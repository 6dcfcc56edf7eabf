"""Scalar (pure Python) reference for the counter-based streams of :mod:`limpprob.rng`.

The construction is the one the :mod:`limpprob.rng` docstring spells out,
written here with Python ints so that the tests can pin the vectorized numpy
functions to it bit for bit.  The float rule that maps a raw value to its
uniform, and a uniform to an index, is written here too, for scalars and numpy
arrays alike, so that the raw-value thresholds and indices of
:mod:`limpprob.rng` are checked against it and not against a conversion of
their own module.  So is the geometric gap rule, with Python floats, whose
basic operations round as numpy's do.
"""

import math

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


def log1m_uniform(raw: int) -> float:
    """log(1 - u) of a raw value's uniform u, in the float operations :func:`limpprob.rng.geometric_gaps` spells out."""
    m, e = math.frexp(1.0 - uniforms_of(raw))  # 1 - u is exact
    if m < 0.7071067811865476:  # sqrt(1/2)
        m, e = m + m, e - 1
    s = (m - 1.0) / (m + 1.0)
    t = s * s
    p = 1.0 / 21
    for k in range(9, 0, -1):  # Horner: p = 1/3 + t/5 + ... + t**9/21
        p = p * t + 1.0 / (2 * k + 1)
    s2 = s + s
    return e * 0.6931471805599453 + (s2 + s2 * t * p)


def geometric_gap(raw: int, log1m_q: float, cap: int) -> int:
    """Misses before a hit of odds q, min(floor(log(1 - u) / log1p(-q)), cap); log1m_q is -inf at q = 1."""
    return min(math.floor(log1m_uniform(raw) / log1m_q), cap)
