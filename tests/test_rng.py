import numpy as np
import pytest

from pwclock._rng import uniform

SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7, 2**128 + 3, 2**200 + 1]


@pytest.mark.parametrize("span", [(0.25, 0.85), (0.1, 0.65), (0, 1)])
@pytest.mark.parametrize("size", [1, 5, 256])
def test_draws_equal_numpys_default_rng_bit_for_bit(span, size):
    # numpy is the independent oracle: SeedSequence over one to seven 32-bit
    # seed words (each beyond the fourth is mixed into the pool), PCG64 and
    # Generator.uniform's double.
    lo, hi = span
    for seed in SEEDS:
        draws = uniform(seed, lo, hi, size)
        expected = np.random.default_rng(seed).uniform(lo, hi, size)
        assert draws.dtype == np.float64 and draws.shape == (size,)
        assert draws.tobytes() == expected.tobytes(), seed
