"""Seeded uniform draws equal to numpy's ``default_rng(seed).uniform``, bit for bit.

``oracle-check`` draws its readings here, so a CLI process never imports
``numpy.random`` (and with it ``secrets`` and ``hashlib``), and its bytes do
not depend on which stream a numpy release gives ``Generator.uniform``.
The stream is numpy's: ``SeedSequence`` hashes the seed's little-endian
32-bit words into a 4-word pool and draws PCG64's 128-bit state and
increment from it; PCG64 is a 128-bit LCG with the XSL-RR output function,
and a double is the top 53 bits of a 64-bit output times 2**-53.
"""

from __future__ import annotations

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash; each call steps the shared constant."""

    def hash_(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hash_


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ result >> 16


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after seeding from ``SeedSequence(seed)``."""
    words = [0] if seed == 0 else []
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    hash_a = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hash_a(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hash_a(word))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    hash_b = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [hash_b(pool[i % 4]) for i in range(8)]
    w = [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]
    increment = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    # pcg64_srandom_r: step from 0, add the initial state, step again.
    return ((increment + (w[0] << 64 | w[1])) * _PCG_MULT + increment) & _M128, increment


def uniform(seed: int, low: float, high: float, size: int) -> np.ndarray:
    """``numpy.random.default_rng(seed).uniform(low, high, size)`` for an int seed >= 0."""
    state, increment = _pcg64_seed(seed)
    low = float(low)
    span = float(high) - low
    draws = []
    for _ in range(size):
        state = (state * _PCG_MULT + increment) & _M128
        value, rot = ((state >> 64) ^ state) & _M64, state >> 122
        value = (value >> rot | value << (64 - rot)) & _M64
        draws.append(low + span * ((value >> 11) * 2.0**-53))
    return np.array(draws, dtype=np.float64)
