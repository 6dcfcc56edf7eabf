"""Scalar (pure Python) reference for the counter-based streams of :mod:`limpprob.rng`.

The construction is the one the :mod:`limpprob.rng` docstring spells out,
written here with Python ints so that the tests can pin the vectorized numpy
functions to it bit for bit.  The float rule that maps a raw value to its
uniform, and a uniform to an index, is written here too, for scalars and numpy
arrays alike, so that the raw-value thresholds and indices of
:mod:`limpprob.rng` are checked against it and not against a conversion of
their own module.
"""

import numpy as np

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


def uniforms_of(raws):
    """Uniforms (raw >> 11) * 2**-53 in [0, 1) of a raw value, or of a uint64 array of them."""
    return (raws >> 11) * 2.0**-53


def index_of(u, bound):
    """Indices min(floor(u * bound), bound - 1) in range(bound) of uniforms u; bound may broadcast against u."""
    return np.minimum(np.floor(u * bound), bound - 1).astype(np.int64)


def stream_uniform(state: int, position: int) -> float:
    """Uniform in [0, 1) at one stream position."""
    return uniforms_of(stream_raw(state, position))
