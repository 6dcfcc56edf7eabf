import math

import numpy as np
import pytest

from limpprob.rng import (
    TrialStream,
    advance_np,
    geometric_gaps,
    log1m_uniforms,
    raws_into,
    step_terms_np,
    to_index,
    trial_states_np,
    uniforms_np,
)
from stream_ref import (
    avalanche,
    geometric_gap,
    index_of,
    log1m_uniform,
    stream_raw,
    stream_uniform,
    trial_state,
    uniforms_of,
)

# SplitMix64 reference sequence for seed 0 (first outputs of the canonical
# generator, which this counter construction reproduces position by position).
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_reference_sequence():
    assert [stream_raw(0, i) for i in range(4)] == SPLITMIX64_SEED0


def test_avalanche_is_bijective_sample():
    seen = {avalanche(z) for z in range(10_000)}
    assert len(seen) == 10_000


def test_scalar_vector_agree_bitwise():
    state = trial_state(0xDEADBEEF, 17)
    scalar = [stream_uniform(state, pos) for pos in range(64)]
    vector = uniforms_np(np.uint64(state), np.arange(64, dtype=np.uint64))
    assert scalar == list(vector)


def test_trial_states_vectorized_agree():
    idx = np.array([0, 1, 5, 1000, 999_999])
    vec = trial_states_np(123, idx)
    assert [int(v) for v in vec] == [trial_state(123, int(i)) for i in idx]


def test_vector_functions_leave_inputs_unchanged():
    # the avalanche mixes in place, so it must only ever touch arrays it made
    states = trial_states_np(9, np.arange(4))[:, None]
    positions = np.arange(6, dtype=np.uint64)
    indices = np.arange(4)
    kept = (states.copy(), positions.copy(), indices.copy())
    uniforms_np(states, positions)
    trial_states_np(9, indices)
    for before, after in zip(kept, (states, positions, indices)):
        assert np.array_equal(before, after)


def test_raws_in_reused_buffers_agree_bitwise():
    states = trial_states_np(31, np.arange(3))
    out = np.empty((3, 5), dtype=np.uint64)
    scratch = np.full_like(out, 12345)  # stale scratch contents must not matter
    steps = step_terms_np(np.arange(5, dtype=np.uint64))
    for start in (0, 7, 2**40):
        raws = raws_into(out, advance_np(states, start)[:, None], steps, scratch)
        assert raws is out
        want = [[stream_raw(int(s), start + pos) for pos in range(5)] for s in states]
        assert out.tolist() == want
        positions = np.arange(start, start + 5, dtype=np.uint64)
        assert np.array_equal(uniforms_of(out), uniforms_np(states[:, None], positions))


def test_streams_replay():
    a = TrialStream(42, 7)
    b = TrialStream(42, 7)
    assert list(a.uniforms(10)) == list(b.uniforms(10))
    assert list(a.uniforms(5)) == list(b.uniforms(5))
    assert a.position == b.position == 15


def test_streams_differ_across_trials_and_seeds():
    base = list(TrialStream(42, 0).uniforms(1))
    assert TrialStream(42, 1).uniforms(1)[0] not in base
    assert TrialStream(43, 0).uniforms(1)[0] not in base


def test_uniform_range_and_mean():
    u = uniforms_np(np.uint64(trial_state(7, 0)), np.arange(200_000, dtype=np.uint64))
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.cov(u[:-1], u[1:])[0, 1]) < 0.005


def _raws(state: int, count: int) -> np.ndarray:
    """The raw values at positions 0 .. count-1 of a stream state, from the scalar reference."""
    return np.array([stream_raw(state, pos) for pos in range(count)], dtype=np.uint64)


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 64, 1000])
def test_indices_within_bounds(bound):
    state = trial_state(99, 3)
    raws = np.append(_raws(state, 10_000), np.array([0, 2**64 - 1], dtype=np.uint64))
    idx = to_index(raws, bound)
    assert idx.min() >= 0
    assert idx.max() < bound
    assert idx[-2] == 0 and idx[-1] == bound - 1
    assert int(idx[0]) == min(int(stream_uniform(state, 0) * bound), bound - 1)


def test_indices_roughly_uniform():
    idx = to_index(_raws(trial_state(5, 5), 60_000), 6)
    counts = np.bincount(idx, minlength=6)
    assert counts.min() > 9_000  # expectation 10_000 each


def test_index_of_a_raw_value_is_its_uniforms():
    # to_index of raw values against the float rule on their uniforms: random raws, and at boundaries
    # j * 2**53 / k (all of them up to k = 1000, a sample above) the first raw of index j and the raw below it
    pick = np.random.default_rng(8)
    noise = pick.integers(0, 2**64, size=4096, dtype=np.uint64)
    for k in (1, 2, 3, 7, 1000, 2**20, 10**6 + 3, 2**53):
        js = range(1, k) if k <= 1000 else [1, k - 1, *pick.integers(1, k, size=1000).tolist()]
        firsts = [-(-j * 2**53 // k) << 11 for j in js]
        raws = np.concatenate([noise, np.array([0, 2**64 - 1, *firsts, *(r - 1 for r in firsts)], dtype=np.uint64)])
        want = index_of(uniforms_of(raws), k)
        assert np.array_equal(to_index(raws.copy(), k), want), k
        assert want.min() == 0 and want.max() == k - 1
        assert np.array_equal(want[noise.size + 2 : noise.size + 2 + len(firsts)], list(js)), k
    # one bound per row, as the protocol kernel draws a block's indices in range(n), range(n-1) and range(n-2)
    raws = noise[:4095].reshape(3, -1)
    want = np.stack([index_of(uniforms_of(row), k) for row, k in zip(raws, (10, 9, 8))])
    assert np.array_equal(to_index(raws.copy(), np.array([[10], [9], [8]])), want)


def test_sequential_matches_random_access():
    stream = TrialStream(2024, 3)
    seq = list(stream.uniforms(2)) + list(stream.uniforms(4))
    state = trial_state(2024, 3)
    assert seq == [stream_uniform(state, pos) for pos in range(6)]


def _gap_raws() -> np.ndarray:
    """Random raws, raws where 1 - u crosses a power of two or sqrt(1/2), one step either side, and the extremes,
    2**64 - 1 last."""
    edges = [0, 1, 2**11 - 1, 2**11]
    for j in [2**53 - 2**k for k in range(54)] + [math.floor(2**53 * (1 - math.sqrt(0.5)))]:
        edges += [(j + d) << 11 for d in (-1, 0, 1) if 0 <= j + d < 2**53]
    noise = np.random.default_rng(9).integers(0, 2**64, size=3000, dtype=np.uint64)
    return np.concatenate([noise, np.array(edges + [2**64 - 1], dtype=np.uint64)])


def test_log_of_one_minus_u_is_the_scalar_rule_and_libms_to_a_few_ulps():
    raws = _gap_raws()
    want = np.array([log1m_uniform(raw) for raw in raws.tolist()])
    assert np.array_equal(log1m_uniforms(raws.copy()).view(np.uint64), want.view(np.uint64))  # bit for bit
    libm = np.array([math.log(1.0 - uniforms_of(raw)) for raw in raws.tolist()])
    assert np.all(np.abs(want - libm) <= 1e-15 * np.abs(libm))


@pytest.mark.parametrize("q", [0.5, 0.018, 0.9973, 1e-15, 1.0])
def test_geometric_gaps_are_the_scalar_rule(q):
    # bit for bit, so the walk's gaps do not depend on numpy's per-CPU log; at q = 1 every gap is 0, and at
    # q = 1e-15 nearly every gap is clamped to the cap (gaps past block b)
    raws = _gap_raws()
    log1m_q = math.log1p(-q) if q < 1.0 else -math.inf
    for cap in (0, 7, 490, 2**40):
        got = geometric_gaps(raws.copy(), log1m_q, cap)
        assert got.dtype == np.int64
        assert got.tolist() == [geometric_gap(raw, log1m_q, cap) for raw in raws.tolist()], cap
        assert got.min() >= 0 and got.max() <= cap
        assert got[-1] == min(math.floor(math.log(2.0**-53) / log1m_q), cap)  # raw 2**64 - 1: 1 - u = 2**-53
    assert not geometric_gaps(np.array([0], dtype=np.uint64), log1m_q, 490).any()  # u = 0
    if q == 1.0:
        assert not geometric_gaps(raws.copy(), log1m_q, 490).any()
    if q == 1e-15:
        assert (geometric_gaps(raws.copy(), log1m_q, 490) == 490).mean() > 0.99


def test_geometric_gaps_follow_the_geometric_law():
    # P(G >= g) = (1 - q)**g, checked at a few g over 200,000 random raws, within 5 sigma
    q, count = 0.1, 200_000
    gaps = geometric_gaps(np.random.default_rng(10).integers(0, 2**64, size=count, dtype=np.uint64),
                          math.log1p(-q), 10**6)
    for g in (0, 1, 5, 20, 60):
        tail = (1 - q) ** g
        assert abs(np.mean(gaps >= g) - tail) <= 5 * math.sqrt(tail * (1 - tail) / count) + 1e-12, g
