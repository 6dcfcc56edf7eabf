"""Trial-runner tests.

Frozen analytic anchors come from the independent mpmath evaluation recorded
in test_model.py; the Monte Carlo estimates here must land inside bands that
are several standard errors wide, and every run is deterministic in the
master seed, so these tests are stable.
"""

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limpprob import (
    ANY_BLOCK_DEGRADE,
    BLOCK_DEGRADE,
    CLUSTER_DEGRADE,
    NODE_DEGRADE,
    InvalidParamsError,
    RegenParams,
    block_degrade_breakdown,
    enum_slow_dest_prob,
    node_degrade_prob,
    run_assumption_trials,
    run_protocol_trials,
    run_rw_trials,
    trials,
)
from limpprob.rng import (
    TrialStream,
    index_limit,
    stream_uniform,
    to_index,
    to_uniforms,
    trial_state,
    trial_states_np,
    uniform_limit,
    uniforms_np,
)
from limpprob.trials import _node_target, _partition

NODE_10_90 = 0.36110217217355966568
CLUSTER_10_500 = 0.95789415572912219584


def _distinct_triples(u, n):
    """Map a (k, 3) uniform block to k sorted uniform 3-subsets of range(n): the placement law.

    The reference the protocol kernel's sort-free lost-block holders and the
    rw sampler's :func:`limpprob.trials._holds_node_zero` must agree with.
    """
    i1 = to_index(u[:, 0], n)
    i2 = to_index(u[:, 1], n - 1)
    i2 += i2 >= i1
    i3 = to_index(u[:, 2], n - 2)
    i3 += i3 >= np.minimum(i1, i2)
    i3 += i3 >= np.maximum(i1, i2)
    return np.sort(np.stack([i1, i2, i3], axis=1), axis=1)


class TestLazySamplers:
    def test_package_root_resolves_the_samplers_from_trials(self):
        import limpprob
        import limpprob.trials

        assert limpprob.run_protocol_trials is limpprob.trials.run_protocol_trials
        assert not hasattr(limpprob, "bogus")
        with pytest.raises(AttributeError, match="bogus"):
            limpprob.bogus


class TestPartition:
    def test_capped_at_cpu_count(self, monkeypatch):
        chunk = trials._CHUNK_ELEMS  # a trial of one chunk may run in a range of its own
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert _partition(100_000, 100_000, chunk) == [(0, 50_000), (50_000, 100_000)]
        assert _partition(10, 1, chunk) == [(0, 10)]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _partition(10, 100, chunk) == [(0, 4), (4, 7), (7, 10)]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _partition(100_000, 100_000, chunk) == [(0, 100_000)]

    def test_counts_only_the_cpus_this_process_may_run_on(self, monkeypatch):
        # as under `taskset -c 0`: the host has 8 CPUs, the process may use one
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _partition(100_000, 2, trials._CHUNK_ELEMS) == [(0, 100_000)]

    def test_read_and_write_calls_split_by_their_expected_length(self, monkeypatch):
        # a trial stops at its first slow request, about n reads or n/3 writes in: at n = 50 and r = 1000 a
        # read trial reads about 200 positions and a write trial 51, so neither call makes two chunks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert len(_partition(600, 2, 4 * 1000)) == 2  # the bound 4r would split the read call
        ranges = []
        monkeypatch.setattr(trials, "_partition", lambda *args: ranges.append(_partition(*args)) or ranges[-1])
        run_rw_trials("read", 50, 1000, 600, master_seed=1, workers=2)
        run_rw_trials("write", 50, 1000, 800, master_seed=1, workers=2)
        assert ranges == [[(0, 600)], [(0, 800)]]

    def test_assumption_calls_split_by_their_expected_length(self, monkeypatch):
        # the any-block pass stops at a trial's first degraded block, about 1/p blocks in, with
        # p = q(1 - (1 - 2/(n-1))(1 - q)): at (50, 2450) a trial reads about 50 + 3 * 12 positions, not n + 3b;
        # at (50, 490) it reads 50 + 3 * 490 = 1,520 (1/p is about 990), so 2,000 trials make two chunks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert len(_partition(300, 2, 50 + 3 * 2450)) == 2  # the bound n + 3b would split the first call
        ranges = []
        monkeypatch.setattr(trials, "_partition", lambda *args: ranges.append(_partition(*args)) or ranges[-1])
        for n, b, count in ((50, 2450, 300), (30, 1450, 600), (10, 450, 2000), (50, 490, 2000)):
            run_assumption_trials(RegenParams(n, b), count, master_seed=1, workers=2)
        assert ranges == [[(0, 300)], [(0, 600)], [(0, 2000)], [(0, 1000), (1000, 2000)]]

    @pytest.mark.parametrize("chunks, want", [
        (1, [(0, 8)]),
        (2, [(0, 8), (8, 16)]),
        (3, [(0, 8), (8, 16), (16, 24)]),
    ])
    def test_one_range_per_chunk_of_work(self, monkeypatch, chunks, want):
        # 8 trials of an eighth of a chunk each make one chunk of stream positions
        per_trial = trials._CHUNK_ELEMS // 8
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert _partition(8 * chunks, 4, per_trial) == want
        # a trial short of `chunks` chunks leaves one range fewer, each still a chunk or more
        short = _partition(8 * chunks - 1, 4, per_trial)
        assert len(short) == max(1, chunks - 1)
        assert short[0][0] == 0 and short[-1][1] == 8 * chunks - 1
        assert chunks == 1 or min(hi - lo for lo, hi in short) >= 8

    def test_split_call_uses_the_pool_set_on_the_module(self, split_calls, monkeypatch):
        # a tracer hooks a split call's threads by setting trials.ThreadPoolExecutor
        from concurrent.futures import ThreadPoolExecutor

        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(trials, "ThreadPoolExecutor", RecordingPool)
        want = run_rw_trials("read", 10, 5, 20_000, master_seed=3, workers=1)
        assert pools == []
        assert run_rw_trials("read", 10, 5, 20_000, master_seed=3, workers=4) == want
        assert len(pools) == 1 and pools[0] > 1


def _rw_reference(protocol, n, r, count, seed):
    """One request per iteration over all live trials: the loop run_rw_trials must match."""
    slots = 4 if protocol == "read" else 3
    alive = trial_states_np(seed, np.arange(count, dtype=np.int64))
    for j in range(r):
        if alive.size == 0:
            break
        base = np.uint64(j * slots)
        triple = _distinct_triples(uniforms_np(alive[:, None], base + np.arange(3, dtype=np.uint64)), n)
        if protocol == "read":
            choice = to_index(uniforms_np(alive, base + np.uint64(3)), 3)
            touched = triple[np.arange(alive.size), choice] == 0
        else:
            touched = (triple == 0).any(axis=1)
        alive = alive[~touched]
    return count - alive.size


def _assumption_reference(n, b, count, seed):
    """Scalar replay of the documented assumption stream layout, trial by trial."""
    q = _node_target(n, b)
    good = n - 2
    node = cluster = block = any_block = 0
    for t in range(count):
        state = trial_state(seed, t)
        degraded = [stream_uniform(state, k) < q for k in range(good)]
        node += sum(degraded)
        cluster += all(degraded)
        first = min(int(stream_uniform(state, good) * (n - 1)), n - 2)
        second = min(int(stream_uniform(state, good + 1) * (n - 2)), n - 3)
        second += second >= first
        block += all(h == 0 or degraded[h - 1] for h in (first, second))
        u = lambda j, slot: stream_uniform(state, good + 2 + 3 * j + slot)
        any_block += any(u(j, 1) < q and (u(j, 0) < 2.0 / (n - 1) or u(j, 2) < q) for j in range(b))
    return [node, cluster, block, any_block]


def _regen_plan(n, b_total, stream):
    """Replay one trial's placement and plan: (live holders, source, destination) per lost block.

    Node 0 crashes, so the lost blocks are the placed rows that hold it, in
    block-id order; the source is a holder picked by a coin and the
    destination is one of the n-3 live nodes that hold no copy, by rank.
    """
    rows = _distinct_triples(stream.uniforms(3 * b_total).reshape(-1, 3), n).tolist()
    holders = [[h for h in row if h != 0] for row in rows if 0 in row]
    plan = stream.uniforms(2 * len(holders)).reshape(-1, 2).tolist()
    out = []
    for live, (coin, rank) in zip(holders, plan):
        eligible = [v for v in range(1, n) if v not in live]
        out.append((live, live[0] if coin < 0.5 else live[1], eligible[min(int(rank * (n - 3)), n - 4)]))
    return out


def _protocol_reference(n, b_total, count, seed):
    """Per-trial replay of the protocol rules, slow node 1: the counts run_protocol_trials must match."""
    node = cluster = block = lost = any_block = 0
    for t in range(count):
        plan = _regen_plan(n, b_total, TrialStream(seed, t))
        to_slow = Counter(source for _, source, dest in plan if dest == 1)
        degraded = {v for v in range(2, n) if to_slow[v] >= 2}
        hit = sum(all(h == 1 or h in degraded for h in live) for live, _, _ in plan)
        node += len(degraded)
        cluster += len(degraded) == n - 2
        block += hit
        lost += len(plan)
        any_block += hit > 0
    return {
        NODE_DEGRADE: (node, count * (n - 2)),
        CLUSTER_DEGRADE: (cluster, count),
        BLOCK_DEGRADE: (block, lost),
        ANY_BLOCK_DEGRADE: (any_block, count),
    }


class TestDistinctTriples:
    """The placement law: each row a uniform 3-subset of range(n), sorted."""

    @pytest.mark.parametrize("n", [5, 9])
    def test_rows_sorted_distinct_and_in_range(self, n):
        rows = _distinct_triples(TrialStream(5, 0).uniforms(3 * 5000).reshape(-1, 3), n)
        assert rows.shape == (5000, 3)
        assert (rows[:, 0] < rows[:, 1]).all() and (rows[:, 1] < rows[:, 2]).all()
        assert rows.min() == 0 and rows.max() == n - 1

    def test_all_subsets_reached(self):
        rows = _distinct_triples(TrialStream(9, 0).uniforms(3 * 4000).reshape(-1, 3), 5)
        assert len({tuple(row) for row in rows.tolist()}) == 10  # C(5,3)

    def test_node_membership_frequency(self):
        # a fixed node appears in a replica set with frequency 3/n
        rows = _distinct_triples(TrialStream(2024, 0).uniforms(3 * 100_000).reshape(-1, 3), 10)
        assert abs((rows == 1).any(axis=1).mean() - 0.3) <= 0.005


class TestLostLimit:
    """The integer index-0 test equals the float rule ((raw >> 11) * 2**-53) * k < 1.0."""

    @pytest.mark.parametrize("ks", [range(3, 2001), [2**20, 10**6 + 3]])
    def test_integer_threshold_equals_the_float_rule(self, ks):
        noise = np.random.default_rng(8).integers(0, 2**64, size=64, dtype=np.uint64)
        for k in ks:
            limit = index_limit(k)
            c = limit >> 11
            assert c == math.ceil(Fraction(2**53, k)) and limit < 2**64
            edges = [limit - 1, limit, (c - 1) << 11, limit - (1 << 11), limit + (1 << 11), 0, 2**64 - 1]
            near = (np.arange(-32, 32, dtype=np.int64) * 997 + limit).astype(np.uint64)
            raws = np.concatenate([np.array(edges, dtype=np.uint64), near, noise, noise >> np.uint64(k % 60)])
            want = to_uniforms(raws.copy()) * k < 1.0
            assert np.array_equal(raws < np.uint64(limit), want), k
            assert want[0] and not want[1] and want[2]

    def test_one_index_takes_every_raw(self):
        # a write to a 3-node cluster always holds the slow node: its third index is in range(1)
        raws = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        assert index_limit(1) == 2**64 and (raws < index_limit(1)).all()
        assert run_rw_trials("write", 3, 1, 50, master_seed=1).successes == 50


# Every x a sampler compares a uniform with: the extremes, the coins, and q at integer and fractional loads;
# q = 1.0 at (10, 36000), where the limit is 2**64
_UNIFORM_XS = sorted({
    0.0, 5e-324, 0.5, float(np.nextafter(1.0, 0.0)), 1.0,
    *(2.0 / (n - 1) for n in (5, 10, 30, 50, 1001)),
    *(_node_target(n, b) for n, b in ((10, 90), (50, 2450), (10, 14), (50, 490), (12, 22), (10, 36000))),
})


class TestUniformLimit:
    """raw < uniform_limit(x) equals the float rule to_uniforms(raw) < x."""

    @pytest.mark.parametrize("x", _UNIFORM_XS)
    def test_integer_threshold_equals_the_float_rule(self, x):
        limit = uniform_limit(x)
        assert 0 <= limit <= 2**64 and limit % (1 << 11) == 0
        raws = np.array([r for r in (limit - 1, limit, limit + 1, 0, 2**64 - 1) if 0 <= r < 2**64], dtype=np.uint64)
        assert np.array_equal(raws < limit, to_uniforms(raws.copy()) < x), x

    def test_extremes(self):
        assert _node_target(10, 36000) == 1.0
        assert uniform_limit(0.0) == 0 and uniform_limit(5e-324) == 1 << 11 and uniform_limit(1.0) == 2**64
        assert uniform_limit(0.5) == 2**63

    @given(x=st.floats(min_value=0.0, max_value=1.0), raw=st.integers(0, 2**64 - 1), near=st.integers(-4096, 4096))
    @settings(max_examples=300, deadline=None)
    def test_random_raws_and_thresholds(self, x, raw, near):
        limit = uniform_limit(x)
        raws = np.array([raw, min(max(limit + near, 0), 2**64 - 1)], dtype=np.uint64)
        assert np.array_equal(raws < limit, to_uniforms(raws.copy()) < x)


class TestNodeTarget:
    def test_integer_load_is_the_closed_form(self):
        for n in (5, 10, 30, 50, 100, 150, 1000):
            for k in (0, 1, 2, 3, 10, 50, 400):
                want = node_degrade_prob(RegenParams(n, k * (n - 1)))
                assert _node_target(n, k * (n - 1)) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_fractional_load_is_the_exact_mixture(self):
        def at_least_two(k, p):
            return sum(math.comb(k, i) * p**i * (1 - p) ** (k - i) for i in range(2, k + 1))

        for n in (5, 6, 10, 13):
            p = Fraction(1, n - 2)
            for b in range(6 * (n - 1) + 1):
                kf, rem = divmod(b, n - 1)
                frac = Fraction(rem, n - 1)
                want = (1 - frac) * at_least_two(kf, p) + frac * at_least_two(kf + 1, p)
                assert _node_target(n, b) == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert _node_target(10, 14) == pytest.approx(0.00868, abs=5e-6)


class TestMemoryBudget:
    @pytest.mark.parametrize("budget", [trials._CHUNK_ELEMS, 1 << 12])
    def test_no_uniform_array_exceeds_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(trials, "_CHUNK_ELEMS", budget)
        # raw values, uniforms, the protocol kernel's reused hash buffers and its lost-block uniforms
        largest = dict.fromkeys(("raws_np", "uniforms_np", "raws_into", "to_uniforms"), 0)
        for name in largest:
            made = getattr(trials, name)

            def recording(*args, name=name, made=made):
                array = owner = made(*args)
                while owner.base is not None:  # a view into a reused buffer counts as the buffer
                    owner = owner.base
                largest[name] = max(largest[name], owner.size)
                return array

            monkeypatch.setattr(trials, name, recording)
        run_assumption_trials(RegenParams(10, 36000), 3000, master_seed=1)
        run_assumption_trials(RegenParams(50, 2450), 3000, master_seed=1)
        for protocol in ("read", "write"):
            run_rw_trials(protocol, 1000, 1000, 3000, master_seed=1)
        run_protocol_trials(10, 300, 500, master_seed=1)
        run_protocol_trials(30, budget // 3, 2, master_seed=1)  # one trial at the placement cap
        assert 0 < min(largest.values()) and max(largest.values()) <= budget
        assert largest["raws_into"] <= budget >> 4  # one placement tile

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux does")
    def test_protocol_batches_reuse_their_memory(self):
        # 34 batches of 3 trials at (50, 40833): hash buffers made per batch, or a batch's arrays all freed
        # at once, hand the heap back to the kernel and fault it in again, about 9,700 faults; reused, 800
        code = (
            "import resource\n"
            "from limpprob.trials import run_protocol_trials\n"
            "run_protocol_trials(50, 40833, 5, 1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_protocol_trials(50, 40833, 100, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(trials.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 2500


def _draws_by_slot(monkeypatch, base, slots, run):
    """Raw values and uniforms drawn at positions >= base while run() runs, counted by (position - base) % slots."""
    drawn = np.zeros(slots, dtype=np.int64)
    for name in ("raws_np", "uniforms_np"):
        draw = getattr(trials, name)

        def counting(states, positions, draw=draw):
            u = draw(states, positions)
            pos = np.broadcast_to(positions, u.shape)
            pos = pos[pos >= base].astype(np.int64) - base
            drawn[:] += np.bincount(pos % slots, minlength=slots)
            return u

        monkeypatch.setattr(trials, name, counting)
    run()
    return drawn


class TestLazyDraws:
    """The early-exit predicates draw a slot only where the outcome still depends on it."""

    def test_any_block_draws_coin_and_holder_two_only_under_a_degraded_holder_one(self, monkeypatch):
        n, b = 50, 490
        q = _node_target(n, b)
        drawn = _draws_by_slot(monkeypatch, n, 3, lambda: run_assumption_trials(RegenParams(n, b), 2000, 1))
        visited = drawn[1]  # holder 1 is drawn for every visited block
        assert visited > 2000
        assert drawn.sum() <= (1 + 2 * q) * 1.1 * visited

    def test_read_draws_placement_only_when_choosing_the_first_replica(self, monkeypatch):
        drawn = _draws_by_slot(monkeypatch, 0, 4, lambda: run_rw_trials("read", 50, 100, 2000, 1))
        visited = drawn[3]  # the replica choice is drawn for every visited request
        assert visited > 2000
        assert drawn.sum() <= 2.2 * visited


class TestChunking:
    def test_tiny_budget_gives_identical_results(self, monkeypatch):
        def run_all():
            return (
                run_assumption_trials(RegenParams(30, 290), 300, master_seed=4),
                run_assumption_trials(RegenParams(10, 14), 300, master_seed=4),
                run_rw_trials("read", 30, 40, 300, master_seed=4),
                run_rw_trials("write", 30, 40, 300, master_seed=4),
                run_protocol_trials(5, 5, 300, master_seed=4),  # at most 16 // 3 blocks
                run_protocol_trials(10, 5, 300, master_seed=4),
            )

        want = run_all()
        monkeypatch.setattr(trials, "_CHUNK_ELEMS", 16)
        assert run_all() == want


class TestRwTrials:
    @pytest.mark.parametrize("protocol", ["read", "write"])
    def test_matches_one_request_loop(self, protocol):
        for n, r in ((5, 1), (10, 7), (23, 40), (50, 300), (200, 1000)):
            est = run_rw_trials(protocol, n, r, 3000, master_seed=17)
            assert est.successes == _rw_reference(protocol, n, r, 3000, 17)
            assert est.trials == 3000

    @pytest.mark.parametrize("protocol", ["read", "write"])
    def test_matches_one_request_loop_at_five_nodes(self, protocol):
        est = run_rw_trials(protocol, 5, 1000, 3000, master_seed=17)
        assert est.successes == _rw_reference(protocol, 5, 1000, 3000, 17)

    def test_read_single_request_matches_placement_law(self):
        est = run_rw_trials("read", 10, 1, 1_000_000, master_seed=11)
        assert abs(est.point_estimate - 0.100) <= 0.001
        assert est.ci_low <= 0.1 <= est.ci_high

    def test_write_forty_requests(self):
        est = run_rw_trials("write", 50, 40, 100_000, master_seed=12)
        assert abs(est.point_estimate - 0.916) <= 0.005

    def test_zero_requests_never_degrade(self):
        for protocol in ("read", "write"):
            est = run_rw_trials(protocol, 23, 0, 5000, master_seed=1)
            assert est.point_estimate == 0.0
            assert est.successes == 0

    def test_deterministic_and_worker_invariant(self, split_calls):
        one = run_rw_trials("read", 10, 5, 20_000, master_seed=3, workers=1)
        two = run_rw_trials("read", 10, 5, 20_000, master_seed=3, workers=4)
        assert one == two
        assert run_rw_trials("read", 10, 5, 20_000, master_seed=4) != one

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            run_rw_trials("append", 10, 1, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_rw_trials("read", 2, 1, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_rw_trials("read", 10, 1, 0, master_seed=0)


class TestAssumptionTrials:
    def test_node_anchor(self):
        est = run_assumption_trials(RegenParams(10, 90), 200_000, master_seed=21)
        node = est[NODE_DEGRADE]
        assert abs(node.point_estimate - NODE_10_90) <= 0.0015
        assert node.trials == 200_000 * 8

    def test_cluster_anchor_fractional_load(self):
        est = run_assumption_trials(RegenParams(10, 500), 100_000, master_seed=22)
        assert abs(est[CLUSTER_DEGRADE].point_estimate - CLUSTER_10_500) <= 0.006

    def test_block_metrics_converge(self):
        est = run_assumption_trials(RegenParams(10, 90), 100_000, master_seed=23)
        p_block = block_degrade_breakdown(RegenParams(10, 90)).total
        assert abs(est[BLOCK_DEGRADE].point_estimate - p_block) <= 0.006
        # the closed form for >=1 degraded block is essentially 1 here and the
        # sampler honors the cross-block independence it assumes
        assert est[ANY_BLOCK_DEGRADE].point_estimate == 1.0

    def test_single_task_per_node_cannot_degrade(self):
        est = run_assumption_trials(RegenParams(10, 9), 3000, master_seed=5)
        for metric in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE):
            assert est[metric].point_estimate == 0.0

    def test_zero_blocks(self):
        est = run_assumption_trials(RegenParams(12, 0), 500, master_seed=5)
        for summary in est.values():
            assert summary.point_estimate == 0.0

    def test_deterministic_and_worker_invariant(self, split_calls):
        one = run_assumption_trials(RegenParams(10, 90), 20_000, master_seed=9, workers=1)
        three = run_assumption_trials(RegenParams(10, 90), 20_000, master_seed=9, workers=3)
        assert one == three

    def test_matches_scalar_stream_layout(self):
        for n, b in ((10, 50), (12, 22), (10, 9), (7, 0)):
            est = run_assumption_trials(RegenParams(n, b), 300, master_seed=31)
            got = [est[m].successes for m in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)]
            assert got == _assumption_reference(n, b, 300, 31)

    def test_matches_scalar_stream_layout_at_low_high_and_fractional_q(self):
        # q = 0.018 at (50, 490), 0.92 at (10, 450); m = 14/9 at (10, 14)
        for n, b in ((50, 490), (10, 450), (10, 14)):
            est = run_assumption_trials(RegenParams(n, b), 100, master_seed=31)
            got = [est[m].successes for m in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)]
            assert got == _assumption_reference(n, b, 100, 31), (n, b)

    def test_interval_shape(self):
        est = run_assumption_trials(RegenParams(30, 290), 20_000, master_seed=8)
        for summary in est.values():
            assert 0.0 <= summary.ci_low <= summary.point_estimate <= summary.ci_high <= 1.0


def _assert_protocol_replay(points, workers=1):
    for n, b_total, count in points:
        est = run_protocol_trials(n, b_total, count, master_seed=19, workers=workers)
        got = {metric: (summary.successes, summary.trials) for metric, summary in est.items()}
        assert got == _protocol_reference(n, b_total, count, 19), (n, b_total, count)


class TestProtocolTrials:
    def test_matches_single_trial_loop(self):
        over_batch = (trials._CHUNK_ELEMS >> 4) // 3 + 1  # one trial is larger than a tile
        # (5, 60): about half the trials have a degraded cluster, so the cluster
        # and block predicates are tested away from all-or-nothing outcomes
        _assert_protocol_replay(((5, 7, 300), (10, 1, 300), (10, 300, 300), (30, 2900, 100),
                                 (50, 40833, 10), (10, over_batch, 10), (5, 60, 300)))

    def test_matches_single_trial_loop_over_three_workers(self, split_calls):
        # at a 4,096-position budget a stage holds 3 trials at (10, 30), and the
        # ranges hold 334, 333 and 333 trials, so the first two end mid-stage
        _assert_protocol_replay([(10, 30, 1000)], workers=3)

    def test_matches_single_trial_loop_at_a_small_budget(self, monkeypatch):
        # 64 hashes per tile: a trial of 40 or more blocks spans several tiles, 2 of them in each
        # stage at (30, 40) and (50, 60); at (30, 5) a stage holds 4 tiles of 4 trials each
        monkeypatch.setattr(trials, "_CHUNK_ELEMS", 1 << 10)
        _assert_protocol_replay(((30, 40, 100), (50, 60, 100), (30, 5, 300), (5, 1, 300), (10, 300, 20)))

    @given(
        n=st.integers(min_value=5, max_value=12),
        b_total=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_points_match_the_replay(self, n, b_total, seed):
        est = run_protocol_trials(n, b_total, 5, master_seed=seed)
        got = {metric: (summary.successes, summary.trials) for metric, summary in est.items()}
        assert got == _protocol_reference(n, b_total, 5, seed)

    def test_single_stage_frequencies_match_exact_oracle(self):
        # replay many trials at n=10 and check the two conditional laws the
        # enumeration certifies: dest hits the slow node 1/(n-3) of the time
        # when it holds no replica, and the non-source holder is the slow
        # node 1/(n-2) of the time given a good source
        n, slow = 10, 1
        dest_hits = dest_count = 0
        other_hits = other_count = 0
        for trial in range(2000):
            for (h1, h2), source, dest in _regen_plan(n, 30, TrialStream(99, trial)):
                if slow not in (h1, h2):
                    dest_count += 1
                    dest_hits += dest == slow
                if source != slow:
                    other_count += 1
                    other_hits += (h1 if source == h2 else h2) == slow
        assert dest_count > 10_000 and other_count > 10_000
        assert abs(dest_hits / dest_count - float(Fraction(1, n - 3))) <= 0.01
        assert abs(other_hits / other_count - float(enum_slow_dest_prob(n))) <= 0.01

    @pytest.mark.parametrize("n, b_total, count", [(5, 8, 50_000), (7, 40, 20_000), (10, 30, 20_000),
                                                   (10, 300, 4000)])
    def test_node_estimate_hits_the_exact_binomial_target(self, n, b_total, count):
        # a good node g sources a task bound for the slow node from a block holding nodes 0 and g but
        # not the slow node, as source 1 in 2, to destination 1 in n - 3: 3/(n(n-1)(n-2)) a block, and
        # the blocks are independent, so g is degraded with P(Binomial(b_total, 3/(n(n-1)(n-2))) >= 2)
        p = Fraction(3, n * (n - 1) * (n - 2))
        target = float(1 - (1 - p) ** b_total - b_total * p * (1 - p) ** (b_total - 1))
        if (n, b_total) == (5, 8):
            assert round(target, 7) == 0.0572447  # the exact enumeration of the protocol law
        node = run_protocol_trials(n, b_total, count, master_seed=1)[NODE_DEGRADE]
        assert node.trials == count * (n - 2)
        sigma = math.sqrt(target * (1 - target) / node.trials)
        assert abs(node.point_estimate - target) <= 4 * sigma

    def test_lost_count_concentrates(self):
        # the crashed node holds each of 1000 blocks with probability 3/10
        est = run_protocol_trials(10, 1000, 1, master_seed=31337)
        assert abs(est[BLOCK_DEGRADE].trials - 300) <= 30

    def test_deterministic_even_single_trial(self):
        one = run_protocol_trials(10, 300, 1, master_seed=77)
        two = run_protocol_trials(10, 300, 1, master_seed=77)
        assert one == two

    def test_worker_invariance(self, split_calls):
        one = run_protocol_trials(10, 300, 400, master_seed=13, workers=1)
        four = run_protocol_trials(10, 300, 400, master_seed=13, workers=4)
        assert one == four

    def test_single_block_cannot_degrade_anything(self):
        est = run_protocol_trials(10, 1, 2000, master_seed=6)
        for metric in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE):
            assert est[metric].point_estimate == 0.0

    def test_block_estimate_tracks_model_at_heavy_load(self):
        # a crashed node holding about 900 blocks in a 30-node cluster
        est = run_protocol_trials(30, 9000, 2000, master_seed=30)
        want = block_degrade_breakdown(RegenParams(30, 900)).total
        assert abs(est[BLOCK_DEGRADE].point_estimate - want) <= 0.05

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            run_protocol_trials(4, 10, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_protocol_trials(10, 0, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_protocol_trials(10, 10, 0, master_seed=0)
        with pytest.raises(InvalidParamsError, match="take at most"):
            run_protocol_trials(trials._CHUNK_ELEMS + 1, 1, 1, master_seed=0)

    @pytest.mark.parametrize("n, most", [(5, 349_525), (10, 699_050)])
    def test_placement_cap_follows_the_expected_lost_blocks(self, n, most):
        # a trial is refused when its expected lost blocks' 9 * b_total / n raw values pass 60% of the budget
        lost = run_protocol_trials(n, most, 1, master_seed=0)[BLOCK_DEGRADE].trials
        assert abs(lost - 3 * most / n) <= 2_000
        with pytest.raises(InvalidParamsError, match=f"place at most {most} blocks"):
            run_protocol_trials(n, most + 1, 1, master_seed=0)
