"""Scalar (pure Python) reference for the counter-based streams of :mod:`limpprob.rng`.

The construction is the one the :mod:`limpprob.rng` docstring spells out,
written here with Python ints so that the tests can pin the vectorized numpy
functions to it bit for bit.
"""

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def avalanche(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_state(master_seed: int, trial_index: int) -> int:
    """Base stream state for one trial."""
    return avalanche((master_seed + (trial_index + 1) * GOLDEN) & MASK64)


def stream_raw(state: int, position: int) -> int:
    """The 64-bit value at one stream position."""
    return avalanche((state + (position + 1) * GOLDEN) & MASK64)


def stream_uniform(state: int, position: int) -> float:
    """Uniform in [0, 1) at one stream position."""
    return (stream_raw(state, position) >> 11) * 2.0**-53
