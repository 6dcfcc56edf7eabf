"""Monte Carlo trial runners.

Three flavors:

* :func:`run_protocol_trials` replays the actual regeneration protocol
  (random placement, crash, per-block source/destination choice) and is
  expected to agree with the closed forms only approximately.  It is a
  batched kernel over whole trials that builds replica triples for lost
  blocks only.
* :func:`run_assumption_trials` samples the closed-form model's own
  assumptions (good nodes degrade independently, block copies land on a
  uniform survivor pair, blocks are independent), so its estimates converge
  to the closed forms at integer load m = b/(n-1) and to
  :func:`_node_target` at fractional m.
* :func:`run_rw_trials` samples read/write request streams.

Each sampler checks its inputs and hands a ``counts(batches)`` to
:func:`_sample`, the one batching and thread policy: the trials split into
contiguous index ranges (:func:`_partition`), one thread each, each range is
walked in batches, and the per-metric integer (successes, observations) pairs
that counts yields per batch are summed, which is order-independent.
Per-trial randomness is counter-based (see :mod:`limpprob.rng`), so results
are bit-identical for a given master seed regardless of batching or worker
count.  ``_CHUNK_ELEMS`` bounds every transient array and is also the unit of
parallel work: a call splits only into ranges of at least ``_CHUNK_ELEMS``
stream positions each, at most one per usable CPU, so a call below two chunks
runs in the calling thread (a smaller one cannot release the GIL long enough
for a second thread to pay).

Estimates are keyed by the metric names of :mod:`limpprob.model`.  This module
and :mod:`limpprob.rng` are the only ones that import numpy; the package root
and the CLI import them on first use.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidParamsError
from .model import ANY_BLOCK_DEGRADE, BLOCK_DEGRADE, CLUSTER_DEGRADE, NODE_DEGRADE, _at_least_two_hits
from .params import ClusterParams, RegenParams, WorkloadParams
from .rng import (
    advance_np,
    index_limit,
    raws_into,
    raws_np,
    step_terms_np,
    to_index,
    to_uniforms,
    trial_states_np,
    uniform_limit,
    uniforms_np,
)
from .stats import EstimateSummary

# The one memory budget: every transient uniform array holds about this many
# elements at most, and a protocol trial's expected lost blocks 60% of it.
_CHUNK_ELEMS = 1 << 20
_REGEN_METRICS = (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)
# A split call's pool type, if a tracer or a test sets one here; else concurrent.futures', imported on a split
ThreadPoolExecutor = None


def _partition(trials: int, workers: int, per_trial: int) -> list[tuple[int, int]]:
    """Split range(trials) into contiguous ranges of about equal size, one per thread of :func:`_sample`.

    per_trial is the stream positions one trial is expected to read, from its
    sampler's layout in :mod:`limpprob.rng`.  Every range holds at least
    _CHUNK_ELEMS positions, so a call below two chunks gets one range; there
    are at most `workers` ranges, and at most one per CPU this process may run
    on (its affinity mask where the OS has one, else the CPU count).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    min_trials = -(-_CHUNK_ELEMS // max(1, per_trial))
    parts = max(1, min(workers, cpus, trials // min_trials))
    return [(-(-trials * i // parts), -(-trials * (i + 1) // parts)) for i in range(parts)]


def _sample(counts, master_seed: int, trials: int, workers: int, per_trial: int, batch: int, metrics):
    """The one sampler driver: {metric: EstimateSummary} over trials 0 .. trials-1.

    The ranges of :func:`_partition` run one thread each, and each range is
    walked in batches of at most `batch` consecutive trials.  counts(batches)
    is called once per range with an iterator over its batches' trial states
    and yields, per batch, one (successes, observations) pair per metric, in
    the order of metrics; the pairs are summed as integers.  So counts loops
    inline: what it makes once per range, such as hash buffers, it reuses
    across batches, and a batch's arrays are freed one by one as the next
    batch replaces them, never all at once at a function return, which on
    glibc gives the heap back to the kernel only for the next batch to fault
    it in again.
    """
    if not isinstance(trials, int) or trials < 1:
        raise InvalidParamsError(f"need at least 1 trial, got {trials!r}")

    def run(part: tuple[int, int]) -> list[tuple[int, int]]:
        batches = (trial_states_np(master_seed, np.arange(lo, min(part[1], lo + batch), dtype=np.int64))
                   for lo in range(*part, batch))
        sums = [(0, 0)] * len(metrics)
        for pairs in counts(batches):
            sums = [(hits + int(h), seen + int(s)) for (hits, seen), (h, s) in zip(sums, pairs)]
        return sums

    parts = _partition(trials, workers, per_trial)
    if len(parts) == 1:
        results = [run(parts[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor as default_pool
        with (ThreadPoolExecutor or default_pool)(max_workers=len(parts)) as pool:
            results = list(pool.map(run, parts))
    totals = (map(sum, zip(*pairs)) for pairs in zip(*results))  # (successes, observations) per metric
    return {metric: EstimateSummary.from_counts(*total) for metric, total in zip(metrics, totals)}


def _holds_node_zero(r0: np.ndarray, r1: np.ndarray, r2: np.ndarray, n: int) -> np.ndarray:
    """Whether the replica triple of raw values r0, r1, r2 holds node 0.

    The triple is i1 = index(r0, n), then index(r1, n-1) and index(r2, n-2)
    each stepped past the indices before it, so it holds node 0 iff one of the
    three raw indices is 0, each read through its :func:`index_limit`.
    """
    return (r0 < index_limit(n)) | (r1 < index_limit(n - 1)) | (r2 < index_limit(n - 2))


def run_protocol_trials(
    n: int, b_total: int, trials: int, master_seed: int, workers: int = 1
) -> dict[str, EstimateSummary]:
    """Estimate degraded-node/cluster/block probabilities from full protocol replays.

    Each trial places b_total blocks, each on a uniform 3-subset of the n
    nodes, crashes node 0 and marks node 1 slow (uniform placement makes the
    identities irrelevant).  Each lost block (one that held node 0) gets a
    source, a uniform one of its 2 live holders, and a destination, a uniform
    one of the n-3 live nodes holding no copy.  Copies to the slow node never
    finish and all others are instant, so a good node is degraded when at
    least 2 of the tasks it sources go to node 1, the cluster when every good
    node is, and a lost block when each live holder is node 1 or degraded.
    The node-degrade estimate averages over all good nodes; the block-degrade
    estimate averages over all lost blocks of all trials.  The kernel reads
    the stream positions documented in :mod:`limpprob.rng`.

    Trials run in batches (stages) of whole trials that expect about
    _CHUNK_ELEMS >> 7 lost blocks in all, and at most _CHUNK_ELEMS // n trials,
    so that a stage's trials x nodes table fits the memory budget.  Placement
    is hashed in tiles of at most _CHUNK_ELEMS >> 4 raw values, into two
    buffers made once per thread range: whole trials per tile, or one larger
    trial in block chunks.  A block is lost when :func:`_holds_node_zero`, and
    only a lost block's raw values become uniforms, to draw its replica
    indices.  A lost triple holds node 0, so its live holders are the sum of
    its indices less their maximum, and that maximum.  The destination is node
    1 iff the rank is 0 and node 1 holds no copy, so the coin is read only for
    tasks bound for node 1; rank and coin are read as raw values against their
    :func:`~limpprob.rng.index_limit` and :func:`~limpprob.rng.uniform_limit`.
    n is capped at _CHUNK_ELEMS, and b_total by the stages' footprint: a trial's
    expected 3 * b_total / n lost blocks may fill 60% of _CHUNK_ELEMS with raw
    values, so b_total <= _CHUNK_ELEMS * n // 15 (349,525 at n = 5), and every n
    up to 4,195, n = 1000 among them, runs at 50 * (n-1) lost blocks.
    """
    if not isinstance(n, int) or n < 5:
        raise InvalidParamsError(f"protocol trials need an integer n >= 5, got {n!r}")
    if n > _CHUNK_ELEMS:
        raise InvalidParamsError(f"protocol trials take at most {_CHUNK_ELEMS} nodes, got {n}")
    if not isinstance(b_total, int) or b_total < 1:
        raise InvalidParamsError(f"need at least 1 block, got {b_total!r}")
    if b_total > (most := _CHUNK_ELEMS * n // 15):
        raise InvalidParamsError(f"protocol trials place at most {most} blocks on {n} nodes, got {b_total}")
    # whole trials per stage: about _CHUNK_ELEMS >> 7 expected lost blocks, 3 * b_total / n per trial
    stage = max(1, min(_CHUNK_ELEMS // n, (_CHUNK_ELEMS >> 7) * n // (3 * b_total)))
    budget = _CHUNK_ELEMS >> 4  # placement hashes per tile
    rows = max(1, min(stage, budget // (3 * b_total)))  # whole trials per tile
    cols = min(b_total, max(1, budget // 3))  # blocks per tile, below b_total only when rows == 1
    rank_limit, coin_limit = index_limit(n - 3), uniform_limit(0.5)
    # replica c of block j sits at stream position 3j + c; stored column-major
    steps = step_terms_np(3 * np.arange(cols, dtype=np.uint64) + np.arange(3, dtype=np.uint64)[:, None])[:, None]

    def counts(batches):
        # Every tile hashes into these two buffers: fresh 512 KB temporaries
        # per ufunc took about 35,000 more page faults on the compare grid.
        raw_buf, scratch_buf = (np.empty(3 * rows * cols, dtype=np.uint64) for _ in range(2))
        for states in batches:
            size = states.size
            # placement: a block is lost when a raw replica index is 0 (node 0)
            trial_parts, raw_parts = [], []
            for row in range(0, size, rows):
                tile_states = states[row : row + rows]
                for first in range(0, b_total, cols):
                    shape = (3, tile_states.size, min(cols, b_total - first))
                    used = shape[0] * shape[1] * shape[2]
                    raws = raws_into(
                        raw_buf[:used].reshape(shape),
                        advance_np(tile_states, 3 * first)[:, None],
                        steps[..., : shape[2]],
                        scratch_buf[:used].reshape(shape),
                    ).reshape(3, -1)
                    lost = np.flatnonzero(_holds_node_zero(*raws, n))
                    trial_parts.append(lost // shape[2] + row)
                    raw_parts.append(raws[:, lost])
            trial = np.concatenate(trial_parts)  # trial, then block-id order
            u = to_uniforms(np.concatenate(raw_parts, axis=1))
            i1, i2, i3 = to_index(u[0], n), to_index(u[1], n - 1), to_index(u[2], n - 2)
            i2 += i2 >= i1
            low, high = np.minimum(i1, i2), np.maximum(i1, i2)
            i3 += i3 >= low
            i3 += i3 >= high
            np.maximum(high, i3, out=high)
            mid = i1 + i2 + i3 - high  # the holders mid < high; node 0 is the third index
            # plan: the k-th lost block of a trial reads 3*b_total + 2k (coin) and + 1 (rank);
            # rank 0 picks node 1 unless node 1 holds a copy, and then mid == 1
            per_trial = np.bincount(trial, minlength=size)
            k = np.arange(trial.size) - (np.cumsum(per_trial) - per_trial)[trial]
            ranks = (3 * b_total + 1 + 2 * k).astype(np.uint64)
            lost_states = states[trial]
            to_slow = np.flatnonzero((raws_np(lost_states, ranks) < rank_limit) & (mid != 1))
            heads = raws_np(lost_states[to_slow], ranks[to_slow] - np.uint64(1)) < coin_limit
            sources = np.where(heads, mid[to_slow], high[to_slow])
            # classify: a good node is degraded by >= 2 of its tasks bound for node 1;
            # nodes 0 and 1 source none of those, so their cells stay 0
            base = trial * n
            degraded = np.bincount(base[to_slow] + sources, minlength=size * n) >= 2
            per_trial_degraded = degraded.reshape(size, n).sum(axis=1)
            cluster_hits = np.count_nonzero(per_trial_degraded == n - 2)
            # a lost block is degraded when each live holder is the slow node or degraded
            degraded[1::n] = True
            hit = degraded[base + mid] & degraded[base + high]
            yield ((per_trial_degraded.sum(), size * (n - 2)), (cluster_hits, size),
                   (hit.sum(), trial.size), (np.count_nonzero(np.bincount(trial[hit])), size))

    # a trial hashes 3 * b_total placement positions; its two per lost block are few beside them
    return _sample(counts, master_seed, trials, workers, 3 * b_total, stage, _REGEN_METRICS)


def _node_target(n: int, b: int) -> float:
    """The assumption sampler's per-node degrade probability q.

    q = (1-frac)*T2(floor(m)) + frac*T2(floor(m)+1) with T2(k) = P(Bin(k, 1/(n-2)) >= 2)
    is the law of floor(m) + Bernoulli(frac(m)) tasks, m = b/(n-1).  It equals the
    closed form at integer m only (n=10, b=14: q = 0.00868, closed form 0.00702).
    """
    kf, rem = divmod(b, n - 1)
    frac = rem / (n - 1)
    p = 1.0 / (n - 2)
    return (1.0 - frac) * _at_least_two_hits(kf, p) + frac * _at_least_two_hits(kf + 1, p)


def _count_hit_trials(alive: np.ndarray, count: int, base: int, slots: int, hits) -> int:
    """How many of the trials with states alive have at least one of count elements hit.

    Element j owns stream positions [base + j*slots, base + (j+1)*slots).
    hits(states, firsts) maps the live trial states and a round's element
    base positions (a uint64 vector) to (states, firsts) flags; it draws
    whichever slots firsts + k its outcome still depends on, each array at
    most len(states) * len(firsts) elements.  Rounds start at width 1 and
    double while that fits _CHUNK_ELEMS; hit trials drop out between rounds,
    so at most about twice the elements up to a trial's first hit are
    visited, and the count is batching-independent.
    """
    size = alive.size
    j, width = 0, 1
    while j < count and alive.size:
        width = min(width, count - j, max(1, _CHUNK_ELEMS // alive.size))
        firsts = np.arange(base + j * slots, base + (j + width) * slots, slots, dtype=np.uint64)
        alive = alive[~hits(alive, firsts).any(axis=1)]
        j += width
        width *= 2
    return size - alive.size


def run_assumption_trials(
    params: RegenParams, trials: int, master_seed: int, workers: int = 1
) -> dict[str, EstimateSummary]:
    """Estimate the regeneration metrics by sampling the model's assumptions.

    Per trial, each of the n-2 good nodes is degraded when one uniform falls
    below q (:func:`_node_target`), the exact law of >= 2 slow hits among
    floor(m) + Bernoulli(frac(m)) copy tasks.  The cluster indicator needs
    all good nodes degraded.  The per-block indicator places the block's two
    surviving copies on a uniform pair of the n-1 survivors and checks the
    degraded-block predicate against the trial's node indicators.  The
    any-block indicator draws, for each of the b blocks, fresh independent
    indicators for its holders, mirroring the independence the closed form
    assumes across blocks.  The stream layout is in :mod:`limpprob.rng`; each
    u < q and u < 2/(n-1) is read as a raw value against its
    :func:`~limpprob.rng.uniform_limit`.
    """
    n, b = params.n, params.b
    good = n - 2
    q = _node_target(n, b)
    q_limit, coin_limit = uniform_limit(q), uniform_limit(2.0 / (n - 1))
    rows, cols = max(1, _CHUNK_ELEMS // good), min(good, _CHUNK_ELEMS)  # node pass chunks

    def block_degraded(states: np.ndarray, firsts: np.ndarray) -> np.ndarray:
        # holder 1 degraded, and holder 2 the slow node (odds 2/(n-1)) or degraded;
        # the coin and holder 2 are drawn only where holder 1 is degraded
        hit = raws_np(states[:, None], firsts + 1) < q_limit
        trial, block = np.nonzero(hit)
        states, firsts = states[trial], firsts[block]
        hit[trial, block] = (raws_np(states, firsts) < coin_limit) | (raws_np(states, firsts + 2) < q_limit)
        return hit

    def counts(batches):
        for states in batches:
            size, node_hits = states.size, 0
            cluster = np.ones(size, dtype=bool)
            for c in range(0, good, cols):
                degraded = raws_np(states[:, None], np.arange(c, min(good, c + cols), dtype=np.uint64)) < q_limit
                node_hits += int(degraded.sum())
                cluster &= degraded.all(axis=1)
            # one block on a uniform survivor pair; survivor 0 is the slow node,
            # survivor k>=1 the good node whose indicator is re-read at k-1
            u = uniforms_np(states[:, None], np.arange(good, good + 2, dtype=np.uint64))
            first, second = to_index(u[:, 0], n - 1), to_index(u[:, 1], n - 2)
            second += second >= first
            holders = np.stack([first, second], axis=1)
            on_degraded = raws_np(states[:, None], np.maximum(holders - 1, 0).astype(np.uint64)) < q_limit
            block_hits = ((holders == 0) | on_degraded).all(axis=1).sum()
            # with q = 0 no block can be degraded, so skip drawing them
            any_hits = _count_hit_trials(states, b if q > 0.0 else 0, good + 2, 3, block_degraded)
            yield (node_hits, size * good), (cluster.sum(), size), (block_hits, size), (any_hits, size)

    # a trial reads n node and pair positions, then 3 per block up to its first degraded one,
    # expected after 1/p blocks: p = q * P(holder 2 is the slow node or degraded)
    p = q * (1.0 - (1.0 - 2.0 / (n - 1)) * (1.0 - q))
    expected = n + 3 * int(min(b, -(-1.0 // p))) if q > 0.0 else n
    return _sample(counts, master_seed, trials, workers, expected, rows, _REGEN_METRICS)


def run_rw_trials(
    protocol: str, n: int, r: int, trials: int, master_seed: int, workers: int = 1
) -> EstimateSummary:
    """Estimate the chance that at least one of r requests touches the slow node.

    Reads draw a uniform placement then a uniform replica choice; writes draw
    a uniform 3-node pipeline.  The slow node is id 0, so a write touches it
    iff :func:`_holds_node_zero`, and a read iff also its choice picks the
    first replica (u3*3 < 1, read as a raw value against
    :func:`~limpprob.rng.index_limit` of 3); a read's placement is drawn only
    where it does.
    Requests within a trial stop early once one touches the slow node (later
    requests cannot change the indicator).
    """
    if protocol not in ("read", "write"):
        raise InvalidParamsError(f"protocol must be 'read' or 'write', got {protocol!r}")
    ClusterParams(n)
    WorkloadParams(r)

    def holds_slow(states: np.ndarray, firsts: np.ndarray) -> np.ndarray:
        return _holds_node_zero(*(raws_np(states, firsts + k) for k in range(3)), n)

    def read_touched(states: np.ndarray, firsts: np.ndarray) -> np.ndarray:
        hit = raws_np(states[:, None], firsts + 3) < index_limit(3)
        trial, request = np.nonzero(hit)
        hit[trial, request] = holds_slow(states[trial], firsts[request])
        return hit

    # a trial stops at its first slow request, expected after 1/p requests: p = 1/n a read, 3/n a write
    if protocol == "read":
        slots, touched, expected = 4, read_touched, n
    else:
        slots, touched, expected = 3, lambda states, firsts: holds_slow(states[:, None], firsts), -(-n // 3)

    def counts(batches):
        for states in batches:
            yield ((_count_hit_trials(states, r, 0, slots, touched), states.size),)

    per_trial = slots * min(r, expected)
    return _sample(counts, master_seed, trials, workers, per_trial, _CHUNK_ELEMS, [protocol])[protocol]
