"""Monte Carlo trial runners.

Three flavors:

* :func:`run_protocol_trials` replays the actual regeneration protocol
  (random placement, crash, per-block source/destination choice) and is
  expected to agree with the closed forms only approximately.
* :func:`run_assumption_trials` samples the closed-form model's own
  assumptions (every good node gets the average load m, every task hits the
  slow node with probability 1/(n-2), block copies land on a uniform pair of
  survivors, blocks are independent), so its estimates converge to the model
  exactly as trials grow.
* :func:`run_rw_trials` samples read/write request streams.

Every estimate is aggregated from integer success counts whose per-trial
randomness is counter-based (see :mod:`limpprob.rng`), so results are
bit-identical for a given master seed regardless of chunking or worker count.
Trials are split into contiguous index ranges when ``workers > 1``, one
thread each and at most one per CPU, and the counts are summed, which is
order-independent.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidParamsError
from .params import ClusterParams, Probability, RegenParams, WorkloadParams
from .rng import TrialStream, to_index, trial_states_np, uniforms_np
from .sim import _distinct_triples, classify_outcome, gen_placement, make_scenario, plan_regeneration
from .stats import EstimateSummary

NODE_DEGRADE = "node_degrade"
CLUSTER_DEGRADE = "cluster_degrade"
BLOCK_DEGRADE = "block_degrade"
ANY_BLOCK_DEGRADE = "any_block_degrade"
READ_USER_DEGRADE = "read_user_degrade"
WRITE_USER_DEGRADE = "write_user_degrade"

REGEN_METRICS = (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)

# Keep transient uniform matrices around this many elements.
_CHUNK_ELEMS = 4_000_000
_MAX_RANGE = 50_000


def _check_trials(trials: int) -> None:
    if not isinstance(trials, int) or trials < 1:
        raise InvalidParamsError(f"need at least 1 trial, got {trials!r}")


def _partition(trials: int, workers: int) -> list[tuple[int, int]]:
    """Split range(trials) into at most min(workers, CPU count) contiguous ranges."""
    workers = max(1, min(workers, trials, os.cpu_count() or 1))
    step = -(-trials // workers)
    return [(lo, min(trials, lo + step)) for lo in range(0, trials, step)]


def _run_partitioned(counts_fn, trials: int, workers: int):
    """Run counts_fn over trial ranges and sum the resulting count vectors."""
    parts = _partition(trials, workers)
    if len(parts) == 1:
        return counts_fn(*parts[0])
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        results = list(pool.map(lambda p: counts_fn(*p), parts))
    return [sum(col) for col in zip(*results)]


def _summary(metric: str, successes: int, observations: int, master_seed: int) -> EstimateSummary:
    if observations == 0:
        # No observations at all (e.g. no block was ever lost): report an
        # uninformative estimate rather than dividing by zero.
        return EstimateSummary(metric, 0, 0, Probability(0.0), 0.0, 1.0, master_seed)
    return EstimateSummary.from_counts(metric, successes, observations, master_seed)


def run_protocol_trials(
    n: int, b_total: int, trials: int, master_seed: int, workers: int = 1
) -> dict[str, EstimateSummary]:
    """Estimate degraded-node/cluster/block probabilities from full protocol replays.

    Each trial generates a fresh placement of b_total blocks, crashes node 0
    and marks node 1 slow (uniform placement makes the identities
    irrelevant), plans regeneration and classifies the outcome.  The
    node-degrade estimate averages over all good nodes; the block-degrade
    estimate averages over all lost blocks of all trials.
    """
    if not isinstance(n, int) or n < 5:
        raise InvalidParamsError(f"protocol trials need an integer n >= 5, got {n!r}")
    if not isinstance(b_total, int) or b_total < 1:
        raise InvalidParamsError(f"need at least 1 block, got {b_total!r}")
    _check_trials(trials)

    def counts(start: int, stop: int):
        node_hits = cluster_hits = block_hits = lost_total = any_hits = 0
        for t in range(start, stop):
            stream = TrialStream(master_seed, t)
            placement = gen_placement(n, b_total, stream)
            scenario = make_scenario(placement, crashed=0, slow=1)
            plan = plan_regeneration(scenario, stream)
            outcome = classify_outcome(scenario, plan)
            node_hits += len(outcome.degraded_nodes)
            cluster_hits += outcome.cluster_degraded
            block_hits += outcome.degraded_block_count
            lost_total += scenario.lost_blocks.size
            any_hits += outcome.degraded_block_count > 0
        return [node_hits, cluster_hits, block_hits, lost_total, any_hits]

    node_hits, cluster_hits, block_hits, lost_total, any_hits = _run_partitioned(
        counts, trials, workers
    )
    return {
        NODE_DEGRADE: _summary(NODE_DEGRADE, node_hits, trials * (n - 2), master_seed),
        CLUSTER_DEGRADE: _summary(CLUSTER_DEGRADE, cluster_hits, trials, master_seed),
        BLOCK_DEGRADE: _summary(BLOCK_DEGRADE, block_hits, lost_total, master_seed),
        ANY_BLOCK_DEGRADE: _summary(ANY_BLOCK_DEGRADE, any_hits, trials, master_seed),
    }


def _hit_matrix(states: np.ndarray, bases: np.ndarray, kf: int, frac: float, p: float) -> np.ndarray:
    """Degraded indicators for node simulations laid out at the given stream bases.

    states has shape (T,), bases (T,) or (nodes,) broadcast against it.  Per
    simulated node the stream block holds [frac coin, kf task hits, 1 extra
    task hit]; the node counts as degraded when at least 2 tasks hit the slow
    node out of kf tasks plus, with probability frac, one more.
    """
    one = np.uint64(1)
    bases = np.asarray(bases, dtype=np.uint64)
    if bases.ndim == 1 and states.ndim == 1 and bases.shape != states.shape:
        states = states[:, None]  # (T, 1) vs (nodes,) -> (T, nodes)
    if kf > 0:
        task_pos = bases[..., None] + one + np.arange(kf, dtype=np.uint64)
        hits = (uniforms_np(states[..., None], task_pos) < p).sum(axis=-1)
    else:
        hits = np.zeros(np.broadcast_shapes(states.shape, bases.shape), dtype=np.int64)
    if frac > 0.0:
        coin = uniforms_np(states, bases) < frac
        extra = uniforms_np(states, bases + np.uint64(kf + 1)) < p
        hits = hits + (coin & extra)
    return hits >= 2


def run_assumption_trials(
    params: RegenParams, trials: int, master_seed: int, workers: int = 1
) -> dict[str, EstimateSummary]:
    """Estimate the regeneration metrics by sampling the model's assumptions.

    Per trial, each of the n-2 good nodes independently receives
    floor(m)+Bernoulli(frac(m)) copy tasks (mean m = b/(n-1)), each task hits
    the slow node with probability 1/(n-2), and a node is degraded on >= 2
    hits.  The cluster indicator needs all good nodes degraded.  The
    per-block indicator places the block's two surviving copies on a uniform
    pair of the n-1 survivors and checks the degraded-block predicate against
    the trial's node outcomes.  The any-block indicator draws, for each of
    the b blocks, a fresh independent node configuration for its holders,
    mirroring the independence the closed form assumes across blocks.
    """
    _check_trials(trials)
    n, b = params.n, params.b
    good = n - 2
    m = b / (n - 1)
    kf = int(m)
    frac = m - kf
    p = 1.0 / (n - 2)
    pair_with_slow = (n - 2) / math.comb(n - 1, 2)  # = 2/(n-1)

    node_slots = kf + 2
    pair_base = good * node_slots
    block_base = pair_base + 2
    block_stride = 1 + 2 * node_slots

    node_bases = (np.arange(good, dtype=np.uint64)) * np.uint64(node_slots)

    def counts(start: int, stop: int):
        node_hits = cluster_hits = block_hits = any_hits = 0
        sub = max(1, _CHUNK_ELEMS // max(good * max(kf, 1), 1))
        for lo in range(start, stop, sub):
            hi = min(stop, lo + sub)
            states = trial_states_np(master_seed, np.arange(lo, hi, dtype=np.int64))
            degraded = _hit_matrix(states, node_bases, kf, frac, p)  # (T, good)
            node_hits += int(degraded.sum())
            cluster_hits += int(degraded.all(axis=1).sum())
            # one block, copies on a uniform survivor pair; survivor 0 is the
            # slow node, survivor k>=1 is good-node column k-1
            ua = uniforms_np(states, np.uint64(pair_base))
            ub = uniforms_np(states, np.uint64(pair_base + 1))
            first = to_index(ua, n - 1)
            second = to_index(ub, n - 2)
            second += second >= first
            rows = np.arange(hi - lo)
            first_ok = (first == 0) | degraded[rows, np.maximum(first - 1, 0)]
            second_ok = (second == 0) | degraded[rows, np.maximum(second - 1, 0)]
            block_hits += int((first_ok & second_ok).sum())
        # any-block: fresh holder configurations per block, early exit per trial
        for lo in range(start, stop, _MAX_RANGE):
            hi = min(stop, lo + _MAX_RANGE)
            alive = trial_states_np(master_seed, np.arange(lo, hi, dtype=np.int64))
            for j in range(b):
                if alive.size == 0:
                    break
                base = np.uint64(block_base + j * block_stride)
                with_slow = uniforms_np(alive, base) < pair_with_slow
                holder1 = _hit_matrix(alive, base + np.uint64(1), kf, frac, p)
                need_second = holder1 & ~with_slow
                block_degraded = holder1.copy()
                if need_second.any():
                    block_degraded[need_second] = _hit_matrix(
                        alive[need_second], base + np.uint64(1 + node_slots), kf, frac, p
                    )
                alive = alive[~block_degraded]
            any_hits += (hi - lo) - alive.size
        return [node_hits, cluster_hits, block_hits, any_hits]

    node_hits, cluster_hits, block_hits, any_hits = _run_partitioned(counts, trials, workers)
    return {
        NODE_DEGRADE: _summary(NODE_DEGRADE, node_hits, trials * good, master_seed),
        CLUSTER_DEGRADE: _summary(CLUSTER_DEGRADE, cluster_hits, trials, master_seed),
        BLOCK_DEGRADE: _summary(BLOCK_DEGRADE, block_hits, trials, master_seed),
        ANY_BLOCK_DEGRADE: _summary(ANY_BLOCK_DEGRADE, any_hits, trials, master_seed),
    }


def run_rw_trials(
    protocol: str, n: int, r: int, trials: int, master_seed: int, workers: int = 1
) -> EstimateSummary:
    """Estimate the chance that at least one of r requests touches the slow node.

    Reads draw a uniform placement then a uniform replica choice; writes draw
    a uniform 3-node pipeline.  The slow node is id 0.  Requests within a
    trial stop early once one touches the slow node (later requests cannot
    change the indicator).
    """
    if protocol not in ("read", "write"):
        raise InvalidParamsError(f"protocol must be 'read' or 'write', got {protocol!r}")
    ClusterParams(n)
    WorkloadParams(r)
    _check_trials(trials)
    slots = 4 if protocol == "read" else 3

    def counts(start: int, stop: int):
        touched_total = 0
        for lo in range(start, stop, _MAX_RANGE):
            hi = min(stop, lo + _MAX_RANGE)
            alive = trial_states_np(master_seed, np.arange(lo, hi, dtype=np.int64))
            for j in range(r):
                if alive.size == 0:
                    break
                base = np.uint64(j * slots)
                u = uniforms_np(alive[:, None], base + np.arange(3, dtype=np.uint64))
                triple = _distinct_triples(u, n)
                if protocol == "read":
                    choice = to_index(uniforms_np(alive, base + np.uint64(3)), 3)
                    touched = triple[np.arange(alive.size), choice] == 0
                else:
                    touched = (triple == 0).any(axis=1)
                alive = alive[~touched]
            touched_total += (hi - lo) - alive.size
        return [touched_total]

    (touched_total,) = _run_partitioned(counts, trials, workers)
    metric = READ_USER_DEGRADE if protocol == "read" else WRITE_USER_DEGRADE
    return _summary(metric, touched_total, trials, master_seed)
