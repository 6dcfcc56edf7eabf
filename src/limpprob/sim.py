"""Single-trial objects and operations for the regeneration protocol simulator.

A trial plants b_total blocks with uniform 3-replica placement, crashes one
node, and replays the regeneration protocol: for every lost block the master
picks a source among the block's 2 live holders and a destination among the
n-3 live non-holders.  Copies between good nodes are treated as instant and
copies to the slow node as never finishing, so thread scheduling order is
irrelevant and a good node is degraded exactly when at least two of its
assigned copy tasks target the slow node.

All randomness comes from a :class:`limpprob.rng.TrialStream`, consumed in a
fixed documented order (placement first, then per lost block a source coin
and a destination rank), so a replay with the same stream reproduces every
object bit for bit.  These functions are the reference that the batched
kernel in :func:`limpprob.trials.run_protocol_trials` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, PlanMismatchError
from .rng import TrialStream, to_index


@dataclass(frozen=True)
class Placement:
    """Replica layout for b_total blocks on an n-node cluster.

    replicas has shape (b_total, 3); each row is a sorted set of 3 distinct
    node ids in [0, n).
    """

    n: int
    replicas: np.ndarray

    @property
    def b_total(self) -> int:
        return self.replicas.shape[0]


@dataclass(frozen=True)
class RegenScenario:
    """One crash: placement plus crashed node, slow node, and the lost blocks."""

    placement: Placement
    crashed: int
    slow: int
    lost_blocks: np.ndarray

    @property
    def n(self) -> int:
        return self.placement.n

    def live_holders(self) -> np.ndarray:
        """(len(lost_blocks), 2) array of surviving holder ids, rows sorted."""
        rows = self.placement.replicas[self.lost_blocks]
        keep = rows != self.crashed
        return rows[keep].reshape(-1, 2)


@dataclass(frozen=True)
class RegenPlan:
    """Source/destination assignment for every lost block, aligned with block_ids."""

    block_ids: np.ndarray
    sources: np.ndarray
    dests: np.ndarray


@dataclass(frozen=True)
class TrialOutcome:
    """Classification of one simulated regeneration."""

    degraded_nodes: frozenset[int]
    cluster_degraded: bool
    degraded_block_count: int
    degraded_block_case_counts: tuple[int, int]


def _distinct_triples(u: np.ndarray, n: int) -> np.ndarray:
    """Map a (k, 3) uniform block to k sorted uniform 3-subsets of range(n)."""
    i1 = to_index(u[:, 0], n)
    i2 = to_index(u[:, 1], n - 1)
    i2 += i2 >= i1
    i3 = to_index(u[:, 2], n - 2)
    lo = np.minimum(i1, i2)
    hi = np.maximum(i1, i2)
    i3 += i3 >= lo
    i3 += i3 >= hi
    return np.sort(np.stack([i1, i2, i3], axis=1), axis=1)


def gen_placement(n: int, b_total: int, rng: TrialStream) -> Placement:
    """Place b_total blocks, each replica set uniform over all C(n,3) subsets."""
    if not isinstance(n, int) or n < 5:
        raise InvalidParamsError(f"placement needs an integer n >= 5, got {n!r}")
    if not isinstance(b_total, int) or b_total < 1:
        raise InvalidParamsError(f"need at least 1 block, got {b_total!r}")
    u = rng.uniforms(3 * b_total).reshape(b_total, 3)
    return Placement(n=n, replicas=_distinct_triples(u, n))


def make_scenario(placement: Placement, crashed: int, slow: int) -> RegenScenario:
    """Crash one node: the lost blocks are exactly those whose replica set holds it."""
    n = placement.n
    if not (0 <= crashed < n and 0 <= slow < n):
        raise InvalidParamsError(f"node ids must lie in [0, {n}), got crashed={crashed!r} slow={slow!r}")
    if crashed == slow:
        raise InvalidParamsError("crashed and slow node must differ")
    lost = np.flatnonzero((placement.replicas == crashed).any(axis=1))
    return RegenScenario(placement=placement, crashed=crashed, slow=slow, lost_blocks=lost)


def plan_regeneration(scenario: RegenScenario, rng: TrialStream) -> RegenPlan:
    """Pick a source and destination for every lost block.

    Source: uniform over the block's 2 live holders (the slow node may be a
    source).  Destination: uniform over the n-3 live nodes holding no replica
    of the block.  Choices are independent across blocks; the stream is
    consumed as (source coin, destination rank) per block in block-id order.
    """
    n = scenario.n
    lost = scenario.lost_blocks
    if lost.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return RegenPlan(block_ids=lost.copy(), sources=empty, dests=empty.copy())
    holders = scenario.live_holders()
    u = rng.uniforms(2 * lost.size).reshape(-1, 2)
    sources = np.where(u[:, 0] < 0.5, holders[:, 0], holders[:, 1])
    ranks = to_index(u[:, 1], n - 3)
    excluded = np.sort(
        np.column_stack([np.full(lost.size, scenario.crashed, dtype=np.int64), holders]),
        axis=1,
    )
    dests = ranks
    for col in range(3):
        dests = dests + (dests >= excluded[:, col])
    return RegenPlan(block_ids=lost.copy(), sources=sources, dests=dests)


def classify_outcome(scenario: RegenScenario, plan: RegenPlan) -> TrialOutcome:
    """Apply the degraded-node / degraded-cluster / degraded-block predicates.

    A good node is degraded iff it sources at least 2 tasks destined for the
    slow node; the cluster is degraded iff every good node is; a lost block is
    degraded iff both its live holders are degraded good nodes (case counts
    index 0) or one holder is the slow node and the other a degraded good node
    (index 1).  Classification is structural: it looks only at holder
    locations and the degraded set.
    """
    if plan.block_ids.shape != scenario.lost_blocks.shape or not np.array_equal(
        plan.block_ids, scenario.lost_blocks
    ):
        raise PlanMismatchError("plan does not cover exactly the scenario's lost blocks")
    n = scenario.n
    to_slow = plan.dests == scenario.slow
    counts = np.bincount(plan.sources[to_slow], minlength=n)
    degraded = counts >= 2
    degraded[scenario.crashed] = False
    degraded[scenario.slow] = False

    if scenario.lost_blocks.size:
        holders = scenario.live_holders()
        h1, h2 = holders[:, 0], holders[:, 1]
        both_degraded = degraded[h1] & degraded[h2]
        via_slow = ((h1 == scenario.slow) & degraded[h2]) | ((h2 == scenario.slow) & degraded[h1])
        case_counts = (int(both_degraded.sum()), int(via_slow.sum()))
    else:
        case_counts = (0, 0)

    degraded_ids = frozenset(int(v) for v in np.flatnonzero(degraded))
    return TrialOutcome(
        degraded_nodes=degraded_ids,
        cluster_degraded=len(degraded_ids) == n - 2,
        degraded_block_count=case_counts[0] + case_counts[1],
        degraded_block_case_counts=case_counts,
    )
