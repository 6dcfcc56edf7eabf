"""Exhaustive enumeration over small clusters with exact rational arithmetic.

These walk every placement/choice combination literally and return
:class:`fractions.Fraction` results, certifying the combinatorial factors of
the closed forms with zero floating-point error.  Node ids are 0..n-1 and the
slow node is taken to be id 0 throughout; uniform placement makes the choice
irrelevant.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceededError
from .params import ClusterParams, RegenParams

# Above this the enumerations stop being instant and add nothing: the same
# closed forms have been certified for every smaller n already.
MAX_ENUM_NODES = 16


def _check_n(params: ClusterParams | RegenParams) -> None:
    if params.n > MAX_ENUM_NODES:
        raise BudgetExceededError(f"enumeration budget is n <= {MAX_ENUM_NODES}, got {params.n}")


def enum_read_prob(n: int) -> Fraction:
    """Exact chance a read hits the slow node, by enumerating all C(n,3)
    replica placements and all 3 uniform replica choices.  Equals 1/n."""
    _check_n(ClusterParams(n))
    slow = 0
    hits = 0
    total = 0
    for placement in combinations(range(n), 3):
        for choice in placement:
            total += 1
            if choice == slow:
                hits += 1
    return Fraction(hits, total)


def enum_write_prob(n: int) -> Fraction:
    """Exact chance a 3-node write pipeline includes the slow node, by
    enumerating all C(n,3) pipelines.  Equals 3/n."""
    _check_n(ClusterParams(n))
    slow = 0
    pipelines = list(combinations(range(n), 3))
    hits = sum(1 for pipe in pipelines if slow in pipe)
    return Fraction(hits, len(pipelines))


def enum_slow_dest_prob(n: int) -> Fraction:
    """Exact chance a copy task from a good node targets the slow node.

    Fixes a source X and the crashed node C as distinct labeled nodes that
    both hold the block, enumerates the third replica's location (uniform over
    the other n-2 nodes) and, when the slow node is not that holder, the
    uniform destination choice over the n-3 live non-holders.  Equals 1/(n-2).
    """
    _check_n(RegenParams(n, 0))
    slow, crashed, source = 0, 1, 2
    others = [v for v in range(n) if v not in (crashed, source)]
    assert len(others) == n - 2
    prob = Fraction(0)
    third_weight = Fraction(1, n - 2)
    for third in others:
        holders = {crashed, source, third}
        if slow in holders:
            continue
        destinations = [v for v in range(n) if v != crashed and v not in holders]
        assert len(destinations) == n - 3
        for dest in destinations:
            if dest == slow:
                prob += third_weight * Fraction(1, len(destinations))
    return prob
