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

Each sampler checks its inputs and hands a ``counts(tiles, batches)`` to
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
for a second thread to pay).  Every array a sampler hashes per block, trial or
request (placement and the protocol plan's rank and coin draws, the node
counts, the first-hit rounds, and a read's placement, drawn only behind its
replica choice) is one tile of at most ``_CHUNK_ELEMS >> 4`` positions, hashed
by :meth:`_Tiles.hash` into the two buffers :func:`_sample` makes per thread
range.  Every assumption and read/write draw runs in the rounds of
:func:`_rounds`, which own each walk's stream layout, make a round's step
terms once and lay a tile out as (elements, trials), trials inner, so numpy's
inner loops run along up to thousands of trials: a trial's degraded-node
count, one raw value, the read/write request walk and the block walk, which
visits only the blocks whose holder 1 is degraded, a Geometric(q) gap apart.
Only protocol placement and plan keep tiles of their own.  A read/write round
takes each trial's first slow request from its tile's flat hit indices, and
every r of a read/write column is counted from those first requests: one walk
serves the column.

Estimates are keyed by the metric names of :mod:`limpprob.model`.  This module
and :mod:`limpprob.rng` are the only ones that import numpy; the package root
and the CLI import them on first use.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InvalidParamsError
from .model import ANY_BLOCK_DEGRADE, BLOCK_DEGRADE, CLUSTER_DEGRADE, NODE_DEGRADE, _binomial_window, _node_target
from .params import ClusterParams, RegenParams, WorkloadParams, _count
from .rng import (_cdf_limits, advance_np, geometric_gaps, index_limit, raws_into, step_terms_np, to_index,
                  trial_states_np, uniform_limit)
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
    walked in batches of at most `batch` consecutive trials.  counts(tiles,
    batches) is called once per range with the range's :class:`_Tiles` and an
    iterator over its batches' trial states, and yields, per batch, one
    (successes, observations) pair per metric, in the order of metrics; the
    pairs are summed as integers.  So counts loops inline: the hash buffers
    serve every batch, and a batch's arrays are freed one by one as the next
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
        for pairs in counts(_Tiles(), batches):
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
    """The two uint64 hash buffers of one thread range, made by :func:`_sample` for its ``counts`` call.

    :meth:`hash` hashes every stream position a sampler reads, given as its
    :func:`~limpprob.rng.step_terms_np` term, into views of them, so once
    they have grown (lazily, to the largest tile the range asks for) a range
    hashes without fresh memory.
    Fresh temporaries per ufunc cost the protocol kernel about 35,000 more
    page faults on the compare grid.  Tile-sized ones in only some passes
    cost more still: with nothing large ever freed, glibc's mmap threshold
    never rises, and each one is mapped and unmapped.
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

    def below(self, states: np.ndarray, positions: np.ndarray, limit: int) -> np.ndarray:
        """Whether the raw values of state and position vectors are below limit, hashed one tile at a time."""
        out, tile = np.empty(positions.size, dtype=bool), _tile()
        for i in range(0, positions.size, tile):
            steps = step_terms_np(positions[i : i + tile])
            np.less(self.hash(states[i : i + tile], steps), limit, out=out[i : i + tile])
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

    def counts(tiles, batches):
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


def _rounds(live: list, count: int, width: int, tile: int, first: int, slots: int):
    """The one round walk over elements 0 .. count - 1 of some trials, for every assumption and read/write draw.

    Element j reads stream positions first + slots * j + c, c < slots.  live
    lists per-trial arrays, the trial states first.  Rounds start width wide
    and double; each is capped by the elements left, by _CHUNK_ELEMS // live
    trials and by tile, the caller's elements per tile, and runs in row tiles
    of tile // width live trials.  Per row tile it yields (j, width, steps,
    done, *rows): the round's elements are j .. j + width - 1, steps their
    (slots, width, 1) step terms, made once a round, rows the tile's slices
    of the live arrays, views the caller may update in place and that carry
    into the next round, and done the tile's slice of a zeroed mask, set by
    the caller for each decided trial.  Done trials leave between rounds, so
    a first-hit walk visits at most about twice the elements up to the one
    that decides a trial, and what it counts does not depend on batching.
    The live cap bounds no array (none holds width x live elements): it keeps
    a round to about _CHUNK_ELEMS // tile row tiles, so decided trials leave
    soon.
    """
    j, offsets = 0, np.arange(slots, dtype=np.uint64)[:, None, None]
    while j < count and live[0].size:
        width = min(width, count - j, max(1, _CHUNK_ELEMS // live[0].size), tile)
        rows = max(1, tile // width)
        steps = step_terms_np(first + slots * np.arange(j, j + width, dtype=np.uint64)[:, None] + offsets)
        done = np.zeros(live[0].size, dtype=bool)
        for row in range(0, done.size, rows):
            yield j, width, steps, done[row : row + rows], *(array[row : row + rows] for array in live)
        keep = ~done
        live = [array[keep] for array in live]
        j += width
        width *= 2


def run_assumption_trials(
    params: RegenParams, trials: int, master_seed: int, workers: int = 1
) -> dict[str, EstimateSummary]:
    """Estimate the regeneration metrics by sampling the model's assumptions.

    Each of the n-2 good nodes is degraded with odds q, independently, the
    exact law of >= 2 slow hits among floor(m) + Bernoulli(frac(m)) copy
    tasks, so the estimates converge to
    :func:`limpprob.model.assumption_targets` at every b.  A trial's count of
    degraded good nodes, Binomial(n-2, q), is one raw value inverted by a
    table made once per call (:func:`~limpprob.rng._cdf_limits`), and the
    cluster is degraded when it is n-2.  A count whose odds are below about
    2**-64 is never drawn: at (50, 2450) the cluster's 2.8e-27 becomes 0.
    Each block's two surviving holders get fresh indicators, as the closed
    form assumes: one is degraded (odds q), and the other is the slow node
    (odds 2/(n-1)) or degraded.  Holder 1's draws are i.i.d. Bernoulli(q), so
    the block walk skips each run of misses in one Geometric(q) draw
    (:func:`~limpprob.rng.geometric_gaps`, Vitter's skip) and visits only its
    hits (blocks whose holder 1 is degraded), drawing holder 2 at each, until
    its first degraded hit below block b or past block b - 1.  The count and
    the walk run in the rounds of :func:`_rounds`, at the layouts (0, 1) and
    (n, 3) of :mod:`limpprob.rng`; each u < q and u < 2/(n-1) is read as a raw
    value against its :func:`~limpprob.rng.uniform_limit`.
    """
    n, b = params.n, params.b
    q = _node_target(n, b)
    q_limit, coin_limit = uniform_limit(q), uniform_limit(2.0 / (n - 1))
    log1m_q = math.log1p(-q) if q < 1.0 else -math.inf
    lo, mass = _binomial_window(n - 2, q)  # a trial's count of degraded good nodes is lo + its index in mass
    limits = _cdf_limits(mass)
    # a walk stops at its first degraded hit, expected after 1/p hits with p = P(holder 2 is the slow node or
    # degraded), or past block b - 1, expected after bq hits: its first round is that wide
    p = 1.0 - (1.0 - 2.0 / (n - 1)) * (1.0 - q)
    hits = math.ceil(min(b * q, 1.0 / p)) if q > 0.0 else 0
    # a round's tile holds half a hash tile, (3, hits, trials): the gaps' float arithmetic makes several
    # temporaries of a slot's size, and at whole tiles they raised compare's peak resident memory by 0.7 MB
    tile = max(1, (_tile() >> 1) // 3)

    def counts(tiles, batches):
        for states in batches:
            size, node_hits, cluster_hits, block_hits, any_hits = states.size, 0, 0, 0, 0
            if q > 0.0:  # at q = 0 no node, and no block, is degraded; q > 0 only where m > 1, so b >= n
                for _, _, steps, _, alive in _rounds([states], 1, 1, _tile(), 0, 1):
                    degraded = lo + np.searchsorted(limits, tiles.hash(alive, steps[0])[0], side="right")
                    node_hits += degraded.sum()
                    cluster_hits += np.count_nonzero(degraded == n - 2)
                # the block walk: hit k of a trial reads n + 3k (gap), n + 3k + 1 (coin) and n + 3k + 2 (holder 2),
                # and lands on block k or later, so no trial walks more than b hits; passed is a live trial's blocks
                # up to and including its last hit
                walk = _rounds([states, np.zeros(size, dtype=np.int64)], b, hits, tile, n, 3)
                for k, width, steps, done, alive, passed in walk:
                    gap, coin, holder = tiles.hash(alive, steps)  # each (width, len(alive))
                    # a hit is degraded when it lands below block b and holder 2 is the slow node or degraded
                    degraded = (coin < coin_limit) | (holder < q_limit)
                    ends = geometric_gaps(gap, log1m_q, b) + 1
                    ends[0] += passed
                    np.cumsum(ends, axis=0, out=ends)  # per hit, the blocks up to and including it
                    degraded &= ends <= b
                    hit = degraded.any(axis=0)
                    if k == 0:
                        block_hits += np.count_nonzero(degraded[0] & (ends[0] == 1))
                    any_hits += np.count_nonzero(hit)
                    done[:] = hit | (ends[-1] >= b)
                    passed[:] = ends[-1]
            yield (node_hits, size * (n - 2)), (cluster_hits, size), (block_hits, size), (any_hits, size)

    # a trial reads 1 + 3 * hits positions, and batches of _CHUNK_ELEMS // that keep the live cap of _rounds above hits
    batch = max(1, _CHUNK_ELEMS // (1 + 3 * hits))
    return _sample(counts, master_seed, trials, workers, 1 + 3 * hits, batch, _REGEN_METRICS)


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

    # request j reads slots * j + c, c < slots; a trial stops at its first slow request, expected after 1/p
    # requests: p = 1/n a read, 3/n a write
    slots, expected = (4, n) if protocol == "read" else (3, -(-n // 3))

    choice_limit = index_limit(3)

    def counts(tiles, batches):
        for states in batches:
            found = [np.empty(0, dtype=np.int64)]  # the first slow requests of the trials hit so far
            for j, width, steps, done, alive in _rounds([states], requests[-1], 1, _tile(), 0, slots):
                # flat indexes the tile's hit (request, trial) pairs, requests outer
                if protocol == "read":
                    # the replica choice picks the first replica, and then the placement holds the slow node,
                    # drawn only for the pairs that passed the choice, as two gathered vectors
                    flat = np.flatnonzero(tiles.hash(alive, steps[3]) < choice_limit)
                    picked, at = alive[flat % alive.size], flat // alive.size
                    flat = flat[_holds_node_zero(lambda k: tiles.hash(picked, steps[k, :, 0][at]), n)]
                    del picked, at  # kept alive into the next tile, they raised peak RSS by 0.5 MB
                else:
                    flat = np.flatnonzero(_holds_node_zero(lambda k: tiles.hash(alive, steps[k]), n))
                first = np.full(alive.size, width)  # per trial, its first slow request in the round, less j
                np.minimum.at(first, flat % alive.size, flat // alive.size)
                np.less(first, width, out=done)
                found.append(first[done] + j)
            found = np.concatenate(found)  # a trial counts at every r above its first slow request
            yield [(np.count_nonzero(found < r), states.size) for r in requests]

    per_trial = slots * min(requests[-1], expected)
    return list(_sample(counts, master_seed, trials, workers, per_trial, _CHUNK_ELEMS, range(len(requests))).values())
