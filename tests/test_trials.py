"""Trial-runner tests.

Frozen analytic anchors come from the independent mpmath evaluation recorded
in test_model.py; the Monte Carlo estimates here must land inside bands that
are several standard errors wide, and every run is deterministic in the
master seed, so these tests are stable.
"""

import bisect
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
    rng,
    run_assumption_trials,
    run_protocol_trials,
    run_rw_trials,
    trials,
)
from limpprob.rng import TrialStream, _cdf_limits, index_limit, trial_states_np, uniform_limit, uniforms_np
from limpprob.model import _binomial_window, _node_target, assumption_targets, protocol_targets
from limpprob.trials import _partition
from stream_ref import geometric_gap, index_of, stream_raw, stream_uniform, trial_state, uniforms_of

NODE_10_90 = 0.36110217217355966568
CLUSTER_10_500 = 0.95789415572912219584


def _distinct_triples(u, n):
    """Map a (k, 3) uniform block to k sorted uniform 3-subsets of range(n): the placement law.

    The reference the protocol kernel's sort-free lost-block holders and the
    rw sampler's :func:`limpprob.trials._holds_node_zero` must agree with.
    """
    i1 = index_of(u[:, 0], n)
    i2 = index_of(u[:, 1], n - 1)
    i2 += i2 >= i1
    i3 = index_of(u[:, 2], n - 2)
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
        # a trial reads one position for its node count, then 3 per hit of a block walk that visits only holder-1
        # hits and stops at a trial's first degraded one, about 1/p hits in with p = 1 - (1 - 2/(n-1))(1 - q), or
        # past block b, about bq hits in: at (50, 2450) a trial reads 1 + 3 * 4 positions, not 1 + 3b; at (50, 490)
        # it reads 1 + 3 * 9 = 28 (bq is 8.6), so a range needs ceil(2**20 / 28) = 37,450 trials: 30,000 trials
        # make one chunk, where a node position per good node (50 + 3 * 9) would make two, and 80,000 two
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert len(_partition(300, 2, 1 + 3 * 2450)) == 2  # the bound 1 + 3b would split the first call
        assert len(_partition(30_000, 2, 50 + 3 * 9)) == 2
        ranges = []
        monkeypatch.setattr(trials, "_partition", lambda *args: ranges.append(_partition(*args)) or ranges[-1])
        for n, b, count in ((50, 2450, 300), (30, 1450, 600), (10, 450, 2000), (50, 490, 30_000), (50, 490, 80_000)):
            run_assumption_trials(RegenParams(n, b), count, master_seed=1, workers=2)
        assert ranges == [[(0, 300)], [(0, 600)], [(0, 2000)], [(0, 30_000)], [(0, 40_000), (40_000, 80_000)]]

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
            choice = index_of(uniforms_np(alive, base + np.uint64(3)), 3)
            touched = triple[np.arange(alive.size), choice] == 0
        else:
            touched = (triple == 0).any(axis=1)
        alive = alive[~touched]
    return count - alive.size


def _exact_count_limits(count, q):
    """floor(CDF(k) * 2**64) for k < count, with CDF Binomial(count, q)'s, in integers from q's exact binary value.

    A raw value r draws bisect_right(limits, r): the inversion the sampler's table must give, written from
    math.comb and not from the model's pmf window.
    """
    a, d = Fraction(q).as_integer_ratio()
    terms = (math.comb(count, k) * a**k * (d - a) ** (count - k) for k in range(count))
    return [(cdf << 64) // d**count for cdf in itertools.accumulate(terms)]


def _assumption_reference(n, b, count, seed):
    """Scalar replay of the documented assumption stream layout, trial by trial."""
    q = _node_target(n, b)
    limits = _exact_count_limits(n - 2, q)
    node = cluster = block = any_block = 0
    for t in range(count):
        state = trial_state(seed, t)
        degraded = bisect.bisect_right(limits, stream_raw(state, 0))  # the count of degraded good nodes
        node += degraded
        cluster += degraded == n - 2
        # hit k, a block whose holder 1 is degraded, lies a Geometric(q) gap (n + 3k) past hit k - 1; it is degraded
        # when holder 2 is the slow node (n + 3k + 1, odds 2/(n-1)) or degraded (n + 3k + 2); the walk ends at the
        # first degraded hit or past block b - 1, and block 0 is the per-block draw
        log1m_q = math.log1p(-q) if q < 1.0 else -math.inf
        k, at = 0, -1
        while q > 0.0 and (at := at + 1 + geometric_gap(stream_raw(state, n + 3 * k), log1m_q, b)) < b:
            if stream_uniform(state, n + 3 * k + 1) < 2.0 / (n - 1) or stream_uniform(state, n + 3 * k + 2) < q:
                block += at == 0
                any_block += 1
                break
            k += 1
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
            want = uniforms_of(raws) * k < 1.0
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
    """raw < uniform_limit(x) equals the float rule uniforms_of(raw) < x."""

    @pytest.mark.parametrize("x", _UNIFORM_XS)
    def test_integer_threshold_equals_the_float_rule(self, x):
        limit = uniform_limit(x)
        assert 0 <= limit <= 2**64 and limit % (1 << 11) == 0
        raws = np.array([r for r in (limit - 1, limit, limit + 1, 0, 2**64 - 1) if 0 <= r < 2**64], dtype=np.uint64)
        assert np.array_equal(raws < limit, uniforms_of(raws) < x), x

    def test_extremes(self):
        assert _node_target(10, 36000) == 1.0
        assert uniform_limit(0.0) == 0 and uniform_limit(5e-324) == 1 << 11 and uniform_limit(1.0) == 2**64
        assert uniform_limit(0.5) == 2**63

    @given(x=st.floats(min_value=0.0, max_value=1.0), raw=st.integers(0, 2**64 - 1), near=st.integers(-4096, 4096))
    @settings(max_examples=300, deadline=None)
    def test_random_raws_and_thresholds(self, x, raw, near):
        limit = uniform_limit(x)
        raws = np.array([raw, min(max(limit + near, 0), 2**64 - 1)], dtype=np.uint64)
        assert np.array_equal(raws < limit, uniforms_of(raws) < x)


class TestMemoryBudget:
    @pytest.mark.parametrize("budget", [trials._CHUNK_ELEMS, 1 << 12])
    def test_no_uniform_array_exceeds_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(trials, "_CHUNK_ELEMS", budget)
        # the reused hash buffers of every sampler, and indices drawn from the raw values gathered there
        largest = dict.fromkeys(("raws_into", "to_index"), 0)
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
        run_protocol_trials(10, budget // 4, 1, master_seed=1)  # one trial that loses more blocks than a tile
        assert 0 < min(largest.values()) and max(largest.values()) <= budget
        assert largest["raws_into"] <= budget >> 4  # one placement tile

    @pytest.mark.parametrize("budget", [1 << 20, 1 << 12])
    def test_protocol_plan_hashes_in_tiles(self, monkeypatch, budget):
        # at (10, budget // 4) a trial loses about 0.3 * budget // 4 blocks, more than the budget >> 4 of a tile:
        # their rank draws fill whole tiles, and placement tiles hold 3 * (tile // 3) positions
        monkeypatch.setattr(trials, "_CHUNK_ELEMS", budget)
        avalanche, largest = rng._avalanche_np, []

        def recording(z, *args):
            largest.append(z.size)
            return avalanche(z, *args)

        monkeypatch.setattr(rng, "_avalanche_np", recording)
        run_protocol_trials(10, budget // 4, 1, master_seed=1)
        assert max(largest) == budget >> 4

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
        assert int(_child_stdout(code)) <= 2500

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux does")
    def test_assumption_and_read_tiles_reuse_their_memory(self):
        # a long walk (all 9,990 blocks of (1000, 9990)) and a read call, each after a warm-up call: fresh arrays
        # per hit round and node pass took about 9,500 and 7,000 faults; tiles hashed in reused buffers, about 500
        code = (
            "import resource\n"
            "from limpprob import RegenParams\n"
            "from limpprob.trials import run_assumption_trials, run_rw_trials\n"
            "for call in (lambda: run_assumption_trials(RegenParams(1000, 9990), 2000, 1),\n"
            "             lambda: run_rw_trials('read', 1000, 1000, 4000, 1)):\n"
            "    call()\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    call()\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        faults = [int(count) for count in _child_stdout(code).split()]
        assert len(faults) == 2 and max(faults) <= 2000, faults

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor page faults as Linux does")
    def test_first_large_call_in_a_fresh_process_reuses_its_memory(self):
        # a read call at (1000, 1000) x 20,000 trials after a small warm-up: until glibc has freed one block of a
        # tile's size, it maps and unmaps each temporary above 128 KB, 37,000 to 97,000 faults; about 900
        code = (
            "import resource\n"
            "from limpprob.trials import run_rw_trials\n"
            "run_rw_trials('read', 1000, 1000, 100, 1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_rw_trials('read', 1000, 1000, 20000, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(_child_stdout(code)) <= 2000


def _child_stdout(code):
    """Standard output of a fresh Python process that runs code with this package importable; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trials.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _draws_by_slot(monkeypatch, base, slots, run):
    """Raw values and uniforms drawn at positions >= base while run() runs, counted by (position - base) % slots.

    Draws are tiles hashed into a thread range's buffers at step terms (_Tiles.hash), (position + 1) * GOLDEN
    mod 2**64, so a position is its step times GOLDEN's inverse mod 2**64, less 1.
    """
    drawn = np.zeros(slots, dtype=np.int64)
    draw, inverse = trials._Tiles.hash, np.uint64(pow(rng.GOLDEN, -1, 2**64))

    def counting(*args):  # (the range's tiles, states, steps)
        u = draw(*args)
        pos = np.broadcast_to(args[-1] * inverse - np.uint64(1), u.shape)
        pos = pos[pos >= base].astype(np.int64) - base
        drawn[:] += np.bincount(pos % slots, minlength=slots)
        return u

    monkeypatch.setattr(trials._Tiles, "hash", counting)
    run()
    return drawn


class TestLazyDraws:
    """The early-exit predicates draw a slot only where the outcome still depends on it."""

    def test_any_block_draws_coin_and_holder_two_only_under_a_degraded_holder_one(self, monkeypatch):
        n, b = 50, 490
        q = _node_target(n, b)
        drawn = _draws_by_slot(monkeypatch, n, 3, lambda: run_assumption_trials(RegenParams(n, b), 2000, 1))
        # the walk visits only blocks whose holder 1 is degraded, and reads a hit's gap, coin and holder 2 together
        visited = drawn[0]
        assert visited > 2000 and drawn[1] == drawn[2] == visited
        # a trial walks about min(bq, 1/p) + 1 hits (bq = 8.6), and rounds of doubling width at most double that,
        # where a draw per block would make b = 490
        assert visited <= 2 * 2000 * (b * q + 1)

    @pytest.mark.parametrize("protocol", ["read", "write"])
    def test_read_and_write_walks_drop_a_trial_once_it_is_hit(self, monkeypatch, protocol):
        n, count = 50, 2000
        # every visited request draws its replica choice (a read, slot 3) or its first replica (a write, slot 0)
        slots, slot, expected = (4, 3, n) if protocol == "read" else (3, 0, -(-n // 3))
        drawn = _draws_by_slot(monkeypatch, 0, slots, lambda: run_rw_trials(protocol, n, 1000, count, 1))
        # a trial's first slow request comes after about n requests (a read) or n / 3 (a write), and rounds of
        # doubling width at most double that; a walk that kept hit trials would visit all 1,000 requests of each
        visited = drawn[slot]
        assert count < visited <= 2 * count * (expected + 1)

    def test_read_draws_placement_only_when_choosing_the_first_replica(self, monkeypatch):
        drawn = _draws_by_slot(monkeypatch, 0, 4, lambda: run_rw_trials("read", 50, 100, 2000, 1))
        visited = drawn[3]  # the replica choice is drawn for every visited request
        assert visited > 2000
        assert drawn.sum() <= 2.2 * visited


class TestChunking:
    # at 16 a round holds one position per tile; at 1 << 12 its rounds are capped by _CHUNK_ELEMS // live trials
    # and run in row tiles.  That cap bounds no array (none holds width x live elements): it keeps a round to about
    # _CHUNK_ELEMS // tile row tiles, so decided trials leave the walk soon
    @pytest.mark.parametrize("budget", [16, 1 << 12])
    def test_tiny_budget_gives_identical_results(self, monkeypatch, budget):
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
        monkeypatch.setattr(trials, "_CHUNK_ELEMS", budget)
        assert run_all() == want


class TestSamplerInputs:
    SAMPLERS = {
        "rw": lambda trials=1000, **kw: run_rw_trials("read", 10, 5, trials, **kw),
        "assumption": lambda trials=1000, **kw: run_assumption_trials(RegenParams(10, 90), trials, **kw),
        "protocol": lambda trials=100, **kw: run_protocol_trials(10, 30, trials, **kw),
    }

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("kwargs", [
        {"master_seed": 1, "workers": 0},
        {"master_seed": 1, "workers": -3},
        {"master_seed": 1, "workers": 2.5},
        {"master_seed": 1.5},
        {"master_seed": 1, "workers": True},
        {"master_seed": True},
        {"master_seed": 1, "trials": True},
    ], ids=["workers-0", "workers-negative", "workers-fractional", "seed-fractional",
            "workers-bool", "seed-bool", "trials-bool"])
    def test_bad_workers_or_seed_is_refused(self, sampler, kwargs):
        with pytest.raises(InvalidParamsError):
            self.SAMPLERS[sampler](**kwargs)


class TestRwTrials:
    @pytest.mark.parametrize("protocol", ["read", "write"])
    def test_matches_one_request_loop(self, protocol):
        # 7 trials widen the first-hit rounds to 489 requests: a tile then holds more requests than trials
        for n, r, count in ((5, 1, 3000), (10, 7, 3000), (23, 40, 3000), (50, 300, 3000), (200, 1000, 3000),
                            (200, 1000, 7)):
            est = run_rw_trials(protocol, n, r, count, master_seed=17)
            assert est.successes == _rw_reference(protocol, n, r, count, 17)
            assert est.trials == count

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


def _assert_column_matches_the_calls(protocol, n, requests, count, seed, workers):
    column = trials._run_rw_column(protocol, n, requests, count, seed, workers)
    assert column == [run_rw_trials(protocol, n, r, count, seed, workers) for r in requests]


# a read or write column: ascending request counts, 0 among the values drawn
_COLUMNS = {
    "protocol": st.sampled_from(["read", "write"]),
    "n": st.integers(min_value=3, max_value=80),
    "requests": st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=5).map(sorted),
    "count": st.integers(min_value=1, max_value=300),
    "seed": st.integers(min_value=0, max_value=2**64 - 1),
}


class TestRwColumn:
    """One walk per column gives every r the estimate of its own run_rw_trials call, bit for bit."""

    @given(**_COLUMNS)
    @settings(max_examples=30, deadline=None)
    def test_equals_the_call_at_each_r(self, protocol, n, requests, count, seed):
        _assert_column_matches_the_calls(protocol, n, requests, count, seed, workers=1)

    @given(**_COLUMNS)
    @example(protocol="read", n=50, requests=[0, 1, 10, 150], count=300, seed=7)  # splits: 300 x 200 positions
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_the_call_at_each_r_over_threads(self, split_calls, protocol, n, requests, count, seed):
        _assert_column_matches_the_calls(protocol, n, requests, count, seed, workers=4)


class TestNodeCountDraw:
    """A trial's count of degraded good nodes, Binomial(n - 2, q), is one raw value against a table of limits."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_limits_are_the_exact_cdf(self, n):
        # fractional loads m = (n + 4)/(n - 1) of 1.45 to 2.25 tasks a node (14/9 at (10, 14)), then m = 2, about
        # 5.5 and 50, where q = 0.99 at (10, 450)
        for b in (n + 4, 2 * (n - 1), 5 * (n - 1) + (n - 1) // 2, 50 * (n - 1)):
            q = _node_target(n, b)
            lo, mass = _binomial_window(n - 2, q)
            limits = _cdf_limits(mass).tolist()
            assert limits == sorted(limits)
            # count k is drawn below its limit: 0 for a count under lo, none (2**64) above the table's last
            got = ([0] * lo + limits + [2**64] * (n - 2))[: n - 2]
            for k, (limit, exact) in enumerate(zip(got, _exact_count_limits(n - 2, q))):
                assert abs(limit - exact) <= 1e-14 * 2**64, (n, b, k)

    @pytest.mark.parametrize("n, b", [(10, 36000), (1000, 4995000)])
    def test_sampler_replays_the_exact_table_where_counts_start_above_zero(self, n, b):
        # q = 1 at (10, 36000), so every count is 8 and the table is empty; at (1000, 4995000) q = 0.96 and the pmf
        # window starts at lo = 563, as counts below it underflow to 0.0
        est = run_assumption_trials(RegenParams(n, b), 200, master_seed=31)
        got = [est[m].successes for m in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)]
        assert got == _assumption_reference(n, b, 200, 31)

    # at (1000, 4995000) the pmf window starts at lo = 563
    @pytest.mark.parametrize("n, b", [(5, 12), (10, 14), (10, 450), (30, 290), (50, 2450), (1000, 20000),
                                      (1000, 4995000)])
    def test_count_mean_and_variance_within_four_sigma(self, n, b):
        count, draws = n - 2, 200_000
        q = _node_target(n, b)
        lo, mass = _binomial_window(count, q)
        raws = trial_states_np(7, np.arange(draws, dtype=np.int64))  # uniform 64-bit values
        drawn = lo + np.searchsorted(_cdf_limits(mass), raws, side="right")  # as run_assumption_trials draws
        var = count * q * (1 - q)
        fourth = var * (1 + 3 * (count - 2) * q * (1 - q))  # Binomial's fourth central moment
        assert abs(drawn.mean() - count * q) <= 4 * math.sqrt(var / draws)
        assert abs(drawn.var() - var) <= 4 * math.sqrt((fourth - var**2) / draws)


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

    def test_matches_scalar_stream_layout(self, monkeypatch):
        # (5, 12): the smallest n, with q = 7/27 and a with-slow coin of odds 1/2.  At a budget of 1 << 12 a hash
        # tile holds 256 positions, and (300, 600)'s first-hit rounds reach 32 blocks x 5 trials, more elements
        # than trials.  At 16 a tile holds one position, so each trial's node count is its own row tile, and the
        # cluster, degraded in 273 of the 300 trials at (10, 450) (q = 0.99) and in 3 at (5, 12), is
        # counted one trial at a time
        for n, b, count, budget in ((10, 50, 300, None), (12, 22, 300, None), (10, 9, 300, None), (7, 0, 300, None),
                                    (5, 12, 300, None), (300, 600, 5, 1 << 12), (10, 450, 300, 16), (5, 12, 300, 16)):
            if budget:
                monkeypatch.setattr(trials, "_CHUNK_ELEMS", budget)
            est = run_assumption_trials(RegenParams(n, b), count, master_seed=31)
            got = [est[m].successes for m in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)]
            assert got == _assumption_reference(n, b, count, 31), (n, b)

    def test_matches_scalar_stream_layout_at_low_high_and_fractional_q(self):
        # q = 0.018 at (50, 490), 0.92 at (10, 450); m = 14/9 at (10, 14)
        for n, b in ((50, 490), (10, 450), (10, 14)):
            est = run_assumption_trials(RegenParams(n, b), 100, master_seed=31)
            got = [est[m].successes for m in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)]
            assert got == _assumption_reference(n, b, 100, 31), (n, b)

    def test_block_law_is_the_model_target(self):
        # a block is degraded when holder 1 is (odds q) and holder 2 is the slow node (odds 2/(n-1)) or degraded:
        # the law of every block of the walk, block 0 the per-block draw, must be the model's per-block limit
        for n in (5, 6, 7, 10, 30, 100, 10_000):
            for b in sorted({k * (n - 1) + extra for k in (0, 1, 2, 3, 10, 50) for extra in (0, 1, (n - 1) // 2)}):
                q = _node_target(n, b)
                law = q * (2.0 / (n - 1) + (n - 3) * q / (n - 1))
                want = assumption_targets(RegenParams(n, b))[BLOCK_DEGRADE]
                assert law == pytest.approx(want, rel=1e-10, abs=0.0), (n, b)

    @pytest.mark.parametrize("n, b", [(5, 12), (10, 14), (50, 490), (100, 990), (10, 36000)])
    def test_block_walk_within_four_sigma_of_the_targets(self, n, b):
        # the geometric skips over holder 1 must keep the law of block 0 and of any block; at (10, 36000) q = 1,
        # so every gap is 0 and both indicators are certain
        count = 200_000
        est = run_assumption_trials(RegenParams(n, b), count, master_seed=41)
        targets = assumption_targets(RegenParams(n, b))
        for metric in (BLOCK_DEGRADE, ANY_BLOCK_DEGRADE):
            p, got = targets[metric], est[metric].point_estimate
            assert abs(got - p) <= 4 * math.sqrt(p * (1 - p) / count) + 1e-12, (metric, got, p)

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
        target = protocol_targets(n, b_total)[NODE_DEGRADE]
        p = Fraction(3, n * (n - 1) * (n - 2))
        assert target == pytest.approx(float(1 - (1 - p) ** b_total - b_total * p * (1 - p) ** (b_total - 1)),
                                       rel=1e-12, abs=0.0)
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

    def test_preconditions(self):
        for n, b_total in ((4, 10), (10, 0), (7.5, 10), (10, 2.5), (10, True)):
            with pytest.raises(InvalidParamsError):
                run_protocol_trials(n, b_total, 1, master_seed=0)

    def test_empty_scenario(self):
        # a trial whose one block avoids the crashed node regenerates nothing
        seed = next(s for s in range(100) if not _regen_plan(6, 1, TrialStream(s, 0)))
        est = run_protocol_trials(6, 1, 1, master_seed=seed)
        assert est[BLOCK_DEGRADE].trials == 0
        for metric in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE):
            assert est[metric].successes == 0

    @pytest.mark.parametrize("n, most", [(5, 349_525), (10, 699_050)])
    def test_placement_cap_follows_the_expected_lost_blocks(self, n, most):
        # a trial is refused when its expected lost blocks' 9 * b_total / n raw values pass 60% of the budget
        lost = run_protocol_trials(n, most, 1, master_seed=0)[BLOCK_DEGRADE].trials
        assert abs(lost - 3 * most / n) <= 2_000
        with pytest.raises(InvalidParamsError, match=f"place at most {most} blocks"):
            run_protocol_trials(n, most + 1, 1, master_seed=0)
