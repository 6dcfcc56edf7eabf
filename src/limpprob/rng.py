"""Deterministic counter-based random streams for the simulators.

Every random value consumed by a trial is a pure function of
(master_seed, trial_index, position), so results never depend on execution
order, chunking, or worker count.  The construction, bit-exactly:

    avalanche(z):   z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2**64)
                    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2**64)
                    z ^= z >> 31
    trial_state(seed, t)   = avalanche((seed + (t + 1) * 0x9E3779B97F4A7C15) mod 2**64)
    raw(state, pos)        = avalanche((state + (pos + 1) * 0x9E3779B97F4A7C15) mod 2**64)
    uniform(state, pos)    = (raw(state, pos) >> 11) * 2.0**-53      in [0, 1)

The avalanche function and golden-ratio increment are the SplitMix64
finalizer and step constants, used here in counter mode.  This module holds
the vectorized (numpy uint64) evaluation only; the scalar (pure Python)
reference lives in the tests, which pin the two to identical bits.

A position's value depends on nothing but (state, position): never on which
other positions were read, or in what order.  So a sampler may read any
subset of a trial's positions, e.g. only the ones that can still change its
outcome, and the positions it does read keep their values.

Stream layouts per trial (changing one changes simulated CSV rows):
assumption sampler: the count of degraded good nodes at 0 (1..n-1 unread),
then hit k, the k-th block whose holder 1 is degraded, at n+3k (its gap G_k,
:func:`geometric_gaps`), n+3k+1 (with-slow coin) and n+3k+2 (holder 2
degraded); hit k lands on block G_0 + ... + G_k + k, and block 0 degraded, the
per-block draw, is hit 0 landing on block 0 and degraded.  Reads: request j at
[4j, 4j+3) (placement) and 4j+3 (replica choice); writes: [3j, 3j+3).
As layouts (first, slots), element j at first + slots*j + c for c < slots:
count (0, 1), hits (n, 3), reads (0, 4), writes (0, 3).
Protocol: placed block i at [3i, 3i+3) (its three raw replica indices), then
the k-th lost block in block-id order, k = 0, 1, ..., at 3*b_total + 2k
(source coin) and 3*b_total + 2k + 1 (destination rank).  The assumption
layout is pinned by a scalar replay in tests/test_trials.py, its gaps by the
scalar rule in tests/stream_ref.py.  The protocol layout is pinned by a
per-trial replay in tests/test_trials.py that reads it through
:class:`TrialStream` and applies the protocol rules block by block.

Every sampler decision reads raw 64-bit values (:func:`raws_into`, into
buffers the caller reuses): a yes or no, u < x or index(u, k) == 0, against an
exact integer threshold, :func:`uniform_limit` or :func:`index_limit`, an
index by :func:`to_index`, and a count against a table, :func:`_cdf_limits`,
which never draws one whose odds are below about 2**-64 (2**-54 at the top).
Each gives the outcome of the position's uniform, but no sampler makes one:
:func:`uniforms_np` serves :class:`TrialStream` and the tests.  The one float
function of a uniform is the assumption walk's gap, log(1 - u) / log1p(-q)
rounded down, whose log is spelled out in basic float operations
(:func:`log1m_uniforms`): numpy's ``log`` and ``log1p`` dispatch per CPU and
differ from libm's in the last bit on some inputs, so they could not fix a
layout.  A table rests on libm, whose last bit moves a limit by about 2**11.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_U_MIX_B = np.uint64(0x94D049BB133111EB)
_U_ONE = np.uint64(1)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_INV53 = 2.0 ** -53


def _avalanche_np(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array the caller owns; returns z.

    The shifts go into scratch, a uint64 array of z's shape, when one is
    given, and into fresh temporaries otherwise.
    """
    z ^= np.right_shift(z, _SH30, out=scratch)
    z *= _U_MIX_A
    z ^= np.right_shift(z, _SH27, out=scratch)
    z *= _U_MIX_B
    z ^= np.right_shift(z, _SH31, out=scratch)
    return z


def step_terms_np(positions: np.ndarray) -> np.ndarray:
    """(positions + 1) * GOLDEN mod 2**64: raw(state, pos) is the avalanche of state plus this term.

    Array arithmetic wraps silently; a numpy scalar argument needs the
    caller's ``np.errstate(over="ignore")``, as in :func:`uniforms_np`.
    """
    steps = positions + _U_ONE
    steps *= _U_GOLDEN
    return steps


def advance_np(states: np.ndarray, count: int) -> np.ndarray:
    """States whose position p holds the value at position p + count of ``states``."""
    return states + np.uint64(count * GOLDEN & MASK64)


def raws_into(out: np.ndarray, states: np.ndarray, steps: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Raw values at the positions of :func:`step_terms_np` ``steps``, hashed in out; returns out.

    states and steps broadcast to out's shape, and scratch is a uint64 array
    of that shape.  Nothing of out's size is allocated, so a caller that
    reuses out and scratch hashes without fresh memory.
    """
    np.add(states, steps, out=out)
    return _avalanche_np(out, scratch)


def uniforms_np(states: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Vectorized uniforms, in a fresh array; broadcasts uint64 states against uint64 positions."""
    with np.errstate(over="ignore"):  # wraparound mod 2**64 is the algorithm
        raws = _avalanche_np(states + step_terms_np(positions))
    raws >>= _SH11
    u = raws.astype(np.float64)
    u *= _INV53
    return u


def uniform_limit(x: float) -> int:
    """The raw values below this are the ones whose uniform is below x, for 0 <= x <= 1.

    (raw >> 11) * 2**-53 < x iff raw >> 11 < x * 2**53, both sides exact, iff
    raw < ceil(x * 2**53) << 11.  At x = 1 the limit is 2**64, which no uint64
    holds: compare uint64 arrays with the Python int, which numpy does exactly.
    """
    return math.ceil(x * 2.0**53) << 11


def index_limit(k: int) -> int:
    """The raw values below this are the ones whose :func:`to_index` of bound k is 0.

    ((raw >> 11) * 2**-53) * k < 1.0 holds iff raw < ceil(2**53 / k) << 11:
    with j = raw >> 11, fl(j * k) < 2**53 iff j * k < 2**53, because integers
    below 2**53 are exact in float64.  At k = 1 the limit is 2**64, as in
    :func:`uniform_limit`.
    """
    return -(-(1 << 53) // k) << 11


def _cdf_limits(mass: list[float]) -> np.ndarray:
    """uint64 limits floor(CDF(i) * 2**64) of a mass list: a raw r draws index searchsorted(limits, r, "right").

    The CDF is mass's running sum over its math.fsum total; one that rounds to 1 gets no limit."""
    cdf = np.cumsum(mass[:-1]) / math.fsum(mass)
    return np.ldexp(cdf[cdf < 1.0], 64).astype(np.uint64)


def to_index(raws: np.ndarray, bound) -> np.ndarray:
    """Indices min(floor(u * bound), bound - 1) of the uniforms u of the raws, a uint64 array the caller owns.

    The raws are shifted in place to j = raw >> 11, and j * (bound * 2**-53)
    rounds the exact product once, as (j * 2**-53) * bound does; the clamp
    guards against its rounding up.  bound may broadcast, as one per row.
    The indices overwrite the raws, an int64 view of their memory.
    """
    raws >>= _SH11
    x = raws * (bound * _INV53)
    np.minimum(x, bound - 1, out=x)
    indices = raws.view(np.int64)
    np.copyto(indices, x, casting="unsafe")  # truncation floors x >= 0
    return indices


_LN2, _SQRT_HALF = 0.6931471805599453, 0.7071067811865476
_ATANH = [1.0 / (2 * k + 1) for k in range(10, 0, -1)]  # 1/21, 1/19, ..., 1/3: the series after its first term


def log1m_uniforms(raws: np.ndarray) -> np.ndarray:
    """log(1 - u) of the uniforms u of uint64 raws, the same bits on every machine.

    It is spelled out in float64 basic operations, each rounded once, in this
    order: 1 - u = m * 2**e (exact, by frexp); m doubled and e lowered by 1
    where m < sqrt(1/2); s = (m - 1) / (m + 1) and t = s * s; the atanh series
    P = 1/21, then P = P * t + c for c = 1/19, 1/17, ..., 1/3; and
    log(1 - u) = ((2s * t) * P + 2s) + e * ln 2, within 4e-16 of libm's log,
    relatively.  The raws, which the caller owns, are shifted in place.
    """
    raws >>= _SH11
    m, e = np.frexp(1.0 - raws * _INV53)  # 1 - u, exact
    low = m < _SQRT_HALF
    np.ldexp(m, low, out=m)  # doubled below sqrt(1/2), exactly
    e -= low
    s = (m - 1.0) / (m + 1.0)
    t = s * s
    p = np.full_like(t, _ATANH[0])
    for c in _ATANH[1:]:  # Horner's rule, in place: a fresh array per step raised compare's peak RSS by 0.2 MB
        p *= t
        p += c
    s += s
    t *= s
    p *= t
    p += s
    p += e * _LN2
    return p


def geometric_gaps(raws: np.ndarray, log1m_q: float, cap: int) -> np.ndarray:
    """Gaps min(floor(log(1 - u) / log1m_q), cap) of the uniforms u of uint64 raws: Geometric(q) misses before a hit.

    log1m_q is log1p(-q) < 0, or -inf at q = 1, where every gap is 0; the
    log is :func:`log1m_uniforms`, whose raws are shifted in place.  The gaps
    are int64.
    """
    gaps = log1m_uniforms(raws)
    gaps /= log1m_q
    return np.floor(np.minimum(gaps, cap, out=gaps), out=gaps).astype(np.int64)


def trial_states_np(master_seed: int, trial_indices: np.ndarray) -> np.ndarray:
    """Vectorized per-trial base states."""
    seed = np.uint64(master_seed & MASK64)
    with np.errstate(over="ignore"):
        return _avalanche_np(seed + step_terms_np(trial_indices.astype(np.uint64)))


class TrialStream:
    """Sequential view of one trial's stream.

    ``uniforms(k)`` returns the uniforms at the next k positions, equal to
    :func:`uniforms_np` at those positions, and advances the counter by k.
    Rebuilding a stream from the same (master_seed, trial_index) replays
    identical values.
    """

    __slots__ = ("state", "position")

    def __init__(self, master_seed: int, trial_index: int = 0):
        self.state = trial_states_np(master_seed, np.array([trial_index]))[0]
        self.position = 0

    def uniforms(self, count: int) -> np.ndarray:
        positions = np.arange(self.position, self.position + count, dtype=np.uint64)
        self.position += count
        return uniforms_np(np.uint64(self.state), positions)
