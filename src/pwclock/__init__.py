"""Damped-oscillator clock simulator.

A library and CLI for treating the position of a damped-oscillator
wavepacket as the time parameter of an entangled finite-dimensional system:
clock closed forms, position-to-time inversion, conditional probabilities
over abstract time, and the evolution-transfer comparison.

The public names are each module's ``__all__``, re-exported here.
"""

from .params import *
from .clock import *
from .timemap import *
from .conditional import *
from .evolution import *

__version__ = "0.1.0"
