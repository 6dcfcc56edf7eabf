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
  to :func:`limpprob.model.assumption_targets`: the closed forms at integer
  load m = b/(n-1), the same path at the node probability q at fractional m.
* :func:`run_rw_trials` samples read/write request streams; :func:`_run_rw_column`
  serves several request counts r at one n from one walk to the largest.

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
for a second thread to pay).  Every array a sampler hashes per block, node or
request (placement and the protocol plan's rank and coin draws, node pass,
the rounds of the assumption block walk and of the read/write first-hit walk,
and the draws gated behind a first test) is one tile of at most
``_CHUNK_ELEMS >> 4`` positions, hashed by :meth:`_Tiles.hash` into the two
buffers that each thread range makes once.  The node pass and the rounds lay
a tile out as (elements, trials), with the trials inner, so numpy's inner
loops run along up to thousands of trials, not along 1 to 256 elements.  A
read/write round's ``hits`` returns the hit pairs as ascending flat indices
into its tile (elements outer), so a trial's first hit is the first index
that names it, and :func:`_count_hit_trials` counts, for each of several
ascending cuts, the trials hit below it: every r of a read/write column comes
from one walk.  The assumption block walk visits only the blocks whose
holder 1 is degraded, a Geometric(q) gap apart, in rounds of doubling width
as well (:func:`run_assumption_trials`).

Estimates are keyed by the metric names of :mod:`limpprob.model`.  This module
and :mod:`limpprob.rng` are the only ones that import numpy; the package root
and the CLI import them on first use.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InvalidParamsError
from .model import ANY_BLOCK_DEGRADE, BLOCK_DEGRADE, CLUSTER_DEGRADE, NODE_DEGRADE, _node_target
from .params import ClusterParams, RegenParams, WorkloadParams, _count
from .rng import (advance_np, geometric_gaps, index_limit, raws_into, step_terms_np, to_index, trial_states_np,
                  uniform_limit)
from .stats import EstimateSummary

# The one memory budget: every transient array a sampler fills holds about this
# many elements at most, and a protocol trial's expected lost blocks 60% of it.
_CHUNK_ELEMS = 1 << 20
_REGEN_METRICS = (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE)
# A split call's pool type, if a tracer or a test sets one here; else concurrent.futures', imported on a split
ThreadPoolExecutor = None


def _tile() -> int:
    """Stream positions in one hash tile: _CHUNK_ELEMS >> 4, at least 1, read from the budget at call time."""
    return max(1, _CHUNK_ELEMS >> 4)


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
    _count("trials", trials, 1)
    _count("workers", workers, 1)
    _count("master_seed", master_seed)

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


class _Tiles:
    """The two uint64 hash buffers of one thread range, made in its ``counts(batches)`` call.

    :meth:`hash` hashes every stream position a sampler reads into views of
    them, so once they have grown (lazily, to the largest tile the range asks
    for) a range hashes without fresh memory.  Fresh temporaries per ufunc
    cost the protocol kernel about 35,000 more page faults on the compare
    grid.  Tile-sized ones in only some passes cost more still: with nothing
    large ever freed, glibc's mmap threshold never rises, and each one is
    mapped and unmapped.
    """

    __slots__ = ("raw", "scratch")

    def __init__(self):
        self.raw = self.scratch = np.empty(0, dtype=np.uint64)

    def hash(self, states: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Raw values at the :func:`~limpprob.rng.step_terms_np` steps of uint64 states, broadcast together and
        hashed in the buffers: valid until the next call."""
        shape = np.broadcast(states, steps).shape
        size = math.prod(shape)
        if size > self.raw.size:
            # a block of this size, freed at once: glibc then raises its mmap threshold to it, so the smaller
            # temporaries of a tile (hit indices, gathered vectors) come from the heap; before a first free,
            # each one above 128 KB is mapped and unmapped, about 97,000 page faults in a fresh process's first
            # read call at (1000, 1000) x 20,000 trials
            np.empty(size, dtype=np.uint64)
            self.raw, self.scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        return raws_into(self.raw[:size].reshape(shape), states, steps, self.scratch[:size].reshape(shape))

    def raws(self, states: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Raw values of uint64 states at uint64 positions, broadcast together: :meth:`hash` of their steps."""
        return self.hash(states, step_terms_np(positions))

    def below(self, states: np.ndarray, positions: np.ndarray, limit: int) -> np.ndarray:
        """Whether the raw values of state and position vectors are below limit, hashed one tile at a time."""
        out, tile = np.empty(positions.size, dtype=bool), _tile()
        for i in range(0, positions.size, tile):
            np.less(self.raws(states[i : i + tile], positions[i : i + tile]), limit, out=out[i : i + tile])
        return out


def _holds_node_zero(raw, n: int) -> np.ndarray:
    """Whether the replica triples whose raw values raw(c) gives for c = 0, 1, 2 hold node 0.

    The triple is i1 = index(raw(0), n), then index(raw(1), n-1) and
    index(raw(2), n-2) each stepped past the indices before it, so it holds
    node 0 iff one of the three raw indices is 0, each read through its
    :func:`index_limit`.  Each raw(c) is compared before the next is asked
    for, so raw may hash them into the same tile.
    """
    return (raw(0) < index_limit(n)) | (raw(1) < index_limit(n - 1)) | (raw(2) < index_limit(n - 2))


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
    is hashed in tiles of at most _CHUNK_ELEMS >> 4 raw values, into the range's
    :class:`_Tiles`: whole trials per tile, or one larger trial in block
    chunks.  A block is lost when :func:`_holds_node_zero`, and only a lost
    block's raw values are gathered, to draw its replica indices by
    :func:`~limpprob.rng.to_index`.  A lost triple holds node 0, so its live
    holders are the sum of its indices less their maximum, and that maximum.
    The destination is node 1 iff the rank is 0 and node 1 holds no copy, so
    the coin is read only for tasks bound for node 1; rank and coin are read
    as raw values against their :func:`~limpprob.rng.index_limit` and
    :func:`~limpprob.rng.uniform_limit`, hashed in the same buffers a tile of
    lost blocks at a time.
    n is capped at _CHUNK_ELEMS, and b_total by the stages' footprint: a trial's
    expected 3 * b_total / n lost blocks may fill 60% of _CHUNK_ELEMS with raw
    values, so b_total <= _CHUNK_ELEMS * n // 15 (349,525 at n = 5), and every n
    up to 4,195, n = 1000 among them, runs at 50 * (n-1) lost blocks.
    """
    RegenParams(n, b_total)
    _count("block count", b_total, 1)
    if n > _CHUNK_ELEMS:
        raise InvalidParamsError(f"protocol trials take at most {_CHUNK_ELEMS} nodes, got {n}")
    if b_total > (most := _CHUNK_ELEMS * n // 15):
        raise InvalidParamsError(f"protocol trials place at most {most} blocks on {n} nodes, got {b_total}")
    # whole trials per stage: about _CHUNK_ELEMS >> 7 expected lost blocks, 3 * b_total / n per trial
    stage = max(1, min(_CHUNK_ELEMS // n, (_CHUNK_ELEMS >> 7) * n // (3 * b_total)))
    budget = _tile()  # placement hashes per tile
    rows = max(1, min(stage, budget // (3 * b_total)))  # whole trials per tile
    cols = min(b_total, max(1, budget // 3))  # blocks per tile, below b_total only when rows == 1
    rank_limit, coin_limit = index_limit(n - 3), uniform_limit(0.5)
    # replica c of block j sits at stream position 3j + c, an index in range(n - c); stored column-major
    steps = step_terms_np(3 * np.arange(cols, dtype=np.uint64) + np.arange(3, dtype=np.uint64)[:, None])[:, None]
    bounds = np.array([[n], [n - 1], [n - 2]])

    def counts(batches):
        tiles = _Tiles()
        for states in batches:
            size = states.size
            # placement: a block is lost when a raw replica index is 0 (node 0)
            trial_parts, raw_parts = [], []
            for row in range(0, size, rows):
                tile_states = states[row : row + rows]
                for first in range(0, b_total, cols):
                    width = min(cols, b_total - first)
                    raws = tiles.hash(advance_np(tile_states, 3 * first)[:, None], steps[..., :width]).reshape(3, -1)
                    lost = np.flatnonzero(_holds_node_zero(raws.__getitem__, n))
                    trial_parts.append(lost // width + row)
                    raw_parts.append(raws.take(lost, axis=1))
            trial = np.concatenate(trial_parts)  # trial, then block-id order
            i1, i2, i3 = to_index(np.concatenate(raw_parts, axis=1), bounds)
            i2 += i2 >= i1
            low, high = np.minimum(i1, i2), np.maximum(i1, i2)
            i3 += i3 >= low
            i3 += i3 >= high
            np.maximum(high, i3, out=high)
            mid = i1 + i2 + i3 - high  # the holders mid < high; node 0 is the third index
            # plan: the k-th lost block of a trial reads 3*b_total + 2k (coin) and + 1 (rank);
            # rank 0 picks node 1 unless node 1 holds a copy, and then mid == 1; trial ascends, so a lost
            # block's k is its distance from its trial's first
            k = np.arange(trial.size) - np.searchsorted(trial, trial)
            ranks = (3 * b_total + 1 + 2 * k).astype(np.uint64)
            lost_states = states[trial]
            to_slow = np.flatnonzero(tiles.below(lost_states, ranks, rank_limit) & (mid != 1))
            heads = tiles.below(lost_states[to_slow], ranks[to_slow] - np.uint64(1), coin_limit)
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


def _gated(tiles: _Tiles, states: np.ndarray, firsts: np.ndarray, slot: int, limit: int, then) -> np.ndarray:
    """Ascending flat indices into the (firsts, states) tile of the pairs whose raw value at firsts + slot is below
    limit and where then(states, firsts) holds, drawn only for the pairs that passed the first test, as two
    gathered vectors.  The first test hashes one tile in tiles, and then may hash its own there once it is read."""
    flat = np.flatnonzero(tiles.raws(states, firsts[:, None] + slot) < limit)
    # no (element, trial) index pair is kept: each index vector is freed once its gather is made
    return flat[then(states[flat % states.size], firsts[flat // states.size])]


def _count_hit_trials(alive: np.ndarray, cuts, base: int, slots: int, hits) -> list[int]:
    """Per ascending cut, how many of the trials with states alive have one of their first cut elements hit.

    Element j owns stream positions [base + j*slots, base + (j+1)*slots).
    hits(states, firsts) maps some live trial states and a round's element
    base positions (a uint64 vector) to the ascending flat indices of the hit
    pairs in the (len(firsts), len(states)) tile, elements outer and trials
    inner; it draws whichever slots firsts + k its outcome still depends on,
    each array at most one tile, len(states) * len(firsts) <= _CHUNK_ELEMS >> 4
    elements.  One walk to the last cut serves every cut, since a trial's first
    hit does not depend on how far the walk goes: a hit trial counts for each
    cut above its first hit, read as the trials marked by the flat indices
    below that cut.  Rounds start at width 1 and double while that fits
    _CHUNK_ELEMS and the tile; each round runs in row tiles of tile // width
    live trials.  Hit trials drop out between rounds, so at most about twice
    the elements up to a trial's first hit are visited, and the counts are
    batching-independent.  It serves reads and writes; the assumption block
    walk, whose trials also stop once past block b, runs its own rounds.
    """
    counts, tile = [0] * len(cuts), _tile()
    j, width, count = 0, 1, cuts[-1]
    while j < count and alive.size:
        width = min(width, count - j, max(1, _CHUNK_ELEMS // alive.size), tile)
        firsts = np.arange(base + j * slots, base + (j + width) * slots, slots, dtype=np.uint64)
        rows = max(1, tile // width)
        hit = np.zeros(alive.size, dtype=bool)
        for row in range(0, alive.size, rows):
            states, marked = alive[row : row + rows], hit[row : row + rows]
            flat = hits(states, firsts)
            # the hits below a cut are a prefix of flat: mark their trials cut by cut and count the marks
            ends = np.searchsorted(flat, [min(max(cut - j, 0), width) * states.size for cut in cuts]).tolist()
            done = seen = 0
            for k, end in enumerate(ends):
                if end > done:
                    marked[flat[done:end] % states.size] = True
                    done, seen = end, np.count_nonzero(marked)
                counts[k] += seen
        alive = alive[~hit]
        j += width
        width *= 2
    return counts


def run_assumption_trials(
    params: RegenParams, trials: int, master_seed: int, workers: int = 1
) -> dict[str, EstimateSummary]:
    """Estimate the regeneration metrics by sampling the model's assumptions.

    Per trial, each of the n-2 good nodes is degraded when one uniform falls
    below q, the exact law of >= 2 slow hits among floor(m) +
    Bernoulli(frac(m)) copy tasks, so the estimates converge to
    :func:`limpprob.model.assumption_targets` at every b.  The cluster
    indicator needs all good nodes degraded.  Each of the b blocks draws
    fresh indicators for its two surviving holders, as independent as the
    closed form assumes: one is degraded (odds q), and the other is the slow
    node (odds 2/(n-1), a uniform survivor pair's) or degraded.  Holder 1's
    draws are i.i.d. Bernoulli(q), so the block walk skips each run of misses
    in one Geometric(q) draw (:func:`~limpprob.rng.geometric_gaps`; Vitter's
    skip, drawn by inversion) and visits only the blocks whose holder 1 is
    degraded, its hits, drawing holder 2 at each.  A trial's walk stops at its
    first degraded hit below block b or once past block b - 1; block 0
    degraded, the per-block indicator, is hit 0 landing on block 0 and
    degraded.  Hits are drawn in rounds whose width doubles, the first as wide
    as a trial's expected hits, each round in (3, hits, trials) tiles of at
    most half a tile; a trial that is done leaves between rounds.  The stream
    layout is in :mod:`limpprob.rng`; each u < q and u < 2/(n-1) is
    read as a raw value against its :func:`~limpprob.rng.uniform_limit`.  At
    q = 0 nothing is drawn, and every count is 0.
    """
    n, b = params.n, params.b
    good = n - 2
    q = _node_target(n, b)
    q_limit, coin_limit = uniform_limit(q), uniform_limit(2.0 / (n - 1))
    log1m_q = math.log1p(-q) if q < 1.0 else -math.inf
    # node pass: batches of _CHUNK_ELEMS // good trials, hashed in tiles of cols nodes x rows trials
    batch, cols = max(1, _CHUNK_ELEMS // good), min(good, _tile())
    rows = _tile() // cols
    # a walk stops at its first degraded hit, expected after 1/p hits with p = P(holder 2 is the slow node or
    # degraded), or past block b - 1, expected after bq hits: its first round is that wide
    p = 1.0 - (1.0 - 2.0 / (n - 1)) * (1.0 - q)
    hits = math.ceil(min(b * q, 1.0 / p)) if q > 0.0 else 0

    def walk(tiles: _Tiles, alive: np.ndarray) -> tuple[int, int]:
        """How many of the trials with states alive have block 0, and some block below b, degraded."""
        block_hits = any_hits = 0
        passed = np.zeros(alive.size, dtype=np.int64)  # blocks up to and including a live trial's last hit
        # a round's tile holds half a hash tile: the gaps' float arithmetic makes several temporaries of a slot's
        # size, and at whole tiles they raised compare's peak resident memory by 0.7 MB
        k, width, tile = 0, hits, max(1, _tile() >> 1)
        slots = np.arange(3, dtype=np.uint64)[:, None, None]
        while alive.size:
            # hit k of a trial reads n + 3k (gap), n + 3k + 1 (coin) and n + 3k + 2 (holder 2), and lands on
            # block k or later: no trial walks more than b hits
            width = min(width, b - k, max(1, _CHUNK_ELEMS // alive.size), max(1, tile // 3))
            positions = np.arange(n + 3 * k, n + 3 * (k + width), 3, dtype=np.uint64)[:, None] + slots
            step = max(1, tile // (3 * width))
            done = np.zeros(alive.size, dtype=bool)
            for row in range(0, alive.size, step):
                states = alive[row : row + step]
                gap, coin, holder = tiles.raws(states, positions)  # each (width, len(states))
                # a hit is degraded when it lands below block b and holder 2 is the slow node or degraded
                degraded = (coin < coin_limit) | (holder < q_limit)
                ends = geometric_gaps(gap, log1m_q, b) + 1
                ends[0] += passed[row : row + step]
                np.cumsum(ends, axis=0, out=ends)  # per hit, the blocks up to and including it
                degraded &= ends <= b
                hit = degraded.any(axis=0)
                if k == 0:
                    block_hits += np.count_nonzero(degraded[0] & (ends[0] == 1))
                any_hits += np.count_nonzero(hit)
                done[row : row + step] = hit | (ends[-1] >= b)
                passed[row : row + step] = ends[-1]
            alive, passed = alive[~done], passed[~done]
            k += width
            width *= 2
        return block_hits, any_hits

    def counts(batches):
        tiles = _Tiles()
        for states in batches:
            size, node_hits, cluster_hits, block_hits, any_hits = states.size, 0, 0, 0, 0
            if q > 0.0:  # at q = 0 no node, and no block, is degraded
                cluster = np.ones(size, dtype=bool)
                for c in range(0, good, cols):
                    nodes = np.arange(c, min(good, c + cols), dtype=np.uint64)[:, None]
                    for row in range(0, size, rows):
                        degraded = tiles.raws(states[row : row + rows], nodes) < q_limit
                        node_hits += np.count_nonzero(degraded)
                        cluster[row : row + rows] &= degraded.all(axis=0)
                cluster_hits = cluster.sum()
                block_hits, any_hits = walk(tiles, states)  # q > 0 only where m > 1, so b >= n
            yield (node_hits, size * good), (cluster_hits, size), (block_hits, size), (any_hits, size)

    # a trial reads its n - 2 node positions (counted as n: n - 2 and n - 1 go unread), then 3 per hit it walks
    return _sample(counts, master_seed, trials, workers, n + 3 * hits, batch, _REGEN_METRICS)


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
    return _run_rw_column(protocol, n, [r], trials, master_seed, workers)[0]


def _run_rw_column(
    protocol: str, n: int, requests, trials: int, master_seed: int, workers: int = 1
) -> list[EstimateSummary]:
    """:func:`run_rw_trials` at each of the ascending request counts, from one walk to the last of them.

    A trial's streams do not depend on r, so its first slow request J is the
    same at every r, and its indicator at r is J < r: one walk counts every
    r, and each estimate equals run_rw_trials' at its r bit for bit.
    """
    if protocol not in ("read", "write"):
        raise InvalidParamsError(f"protocol must be 'read' or 'write', got {protocol!r}")
    ClusterParams(n)
    for r in requests:
        WorkloadParams(r)

    # a trial stops at its first slow request, expected after 1/p requests: p = 1/n a read, 3/n a write
    slots, expected = (4, n) if protocol == "read" else (3, -(-n // 3))

    def counts(batches):
        tiles = _Tiles()
        if protocol == "read":
            # the replica choice picks the first replica, and then the placement holds the slow node
            def touched(states: np.ndarray, firsts: np.ndarray) -> np.ndarray:
                return _gated(tiles, states, firsts, 3, index_limit(3),
                              lambda s, f: _holds_node_zero(lambda k: tiles.raws(s, f + k), n))
        else:
            def touched(states: np.ndarray, firsts: np.ndarray) -> np.ndarray:
                firsts = firsts[:, None]
                return np.flatnonzero(_holds_node_zero(lambda k: tiles.raws(states, firsts + k), n))

        for states in batches:
            yield [(hits, states.size) for hits in _count_hit_trials(states, requests, 0, slots, touched)]

    per_trial = slots * min(requests[-1], expected)
    return list(_sample(counts, master_seed, trials, workers, per_trial, _CHUNK_ELEMS, range(len(requests))).values())
