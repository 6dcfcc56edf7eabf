"""Closed-form probabilities of degraded reads, writes and regeneration.

The cluster has n nodes, one of which is slow.  Reads pick one of a block's
3 replicas uniformly; writes allocate a uniform 3-node pipeline.  After a
crash loses b blocks, every surviving node re-replicates on average
m = b/(n-1) blocks, each copy landing on the slow node with probability
p = 1/(n-2); a good node is degraded once two of its (two) regeneration
threads are stuck sending to the slow node.

All functions are pure and return :class:`Probability` (a validated float),
except :func:`regen_load` (the raw per-node load) and the samplers' limits per
metric, :func:`assumption_targets` and :func:`protocol_targets`.
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import LowLoadWarning
from .params import ClusterParams, Probability, Record, RegenParams, WorkloadParams

# Metric names, shared by the closed forms' callers, the samplers and the CSVs.
NODE_DEGRADE = "node_degrade"
CLUSTER_DEGRADE = "cluster_degrade"
BLOCK_DEGRADE = "block_degrade"
ANY_BLOCK_DEGRADE = "any_block_degrade"
READ_USER_DEGRADE = "read_user_degrade"
WRITE_USER_DEGRADE = "write_user_degrade"

# Residual larger than this in "should be zero/one" cancellations indicates a
# real bug, not floating-point noise; never clamp it away silently.
_CLAMP_GUARD = 1e-9


def _guarded_clamp(value: float, context: str) -> float:
    """Clamp rounding spill to [0, 1]; anything beyond the guard is a real error."""
    if 0.0 <= value <= 1.0:
        return value
    overshoot = max(-value, value - 1.0)
    if overshoot > _CLAMP_GUARD:
        raise AssertionError(f"{context}: value {value!r} out of [0, 1] by {overshoot:g}")
    return min(max(value, 0.0), 1.0)


class BlockDegradeBreakdown(Record):
    """Probability that one lost block cannot be regenerated promptly.

    both_on_degraded: both surviving copies sit on degraded good nodes.
    one_on_slow: one copy sits on the slow node, the other on a degraded
    good node.  The two cases are mutually exclusive; total is their sum.
    """

    __slots__ = ("both_on_degraded", "one_on_slow", "total")
    both_on_degraded: Probability
    one_on_slow: Probability
    total: Probability


def _stable_complement_power(per_request: float, count: int) -> float:
    """1 - (1 - per_request)**count, computed via logs so large counts keep precision."""
    if count == 0 or per_request == 0.0:
        return 0.0
    if per_request >= 1.0:
        return 1.0
    return -math.expm1(count * math.log1p(-per_request))


def read_degrade_prob(params: ClusterParams) -> Probability:
    """Chance a single read is served from the slow node: 1/n.

    The slow node holds a replica with probability 3/n and the replica choice
    is uniform over the 3 copies.
    """
    return Probability(1.0 / params.n)


def read_user_degrade_prob(params: ClusterParams, workload: WorkloadParams) -> Probability:
    """Chance at least one of r reads is degraded: 1 - (1 - 1/n)**r."""
    return Probability(_stable_complement_power(1.0 / params.n, workload.r))


def write_degrade_prob(params: ClusterParams) -> Probability:
    """Chance a single write pipeline includes the slow node: 3/n."""
    return Probability(3.0 / params.n)


def write_user_degrade_prob(params: ClusterParams, workload: WorkloadParams) -> Probability:
    """Chance at least one of r writes is degraded: 1 - (1 - 3/n)**r."""
    return Probability(_stable_complement_power(3.0 / params.n, workload.r))


def regen_load(params: RegenParams) -> float:
    """Average number of blocks each surviving node must re-replicate: b/(n-1).

    Deliberately not rounded; the degraded-node formula uses the fractional
    value as an exponent.
    """
    return params.b / (params.n - 1)


def slow_dest_prob(params: RegenParams) -> Probability:
    """Chance one copy task from a good node targets the slow node: 1/(n-2).

    Composition of "slow node holds no replica yet", (n-3)/(n-2), with the
    uniform destination choice over the n-3 candidates.
    """
    return Probability(1.0 / (params.n - 2))


def node_degrade_prob(params: RegenParams) -> Probability:
    """Chance a good node gets at least two of its m copy tasks stuck on the slow node.

    Evaluates 1 - (1-p)**m - m*p*(1-p)**(m-1) with real-valued m = b/(n-1)
    and p = 1/(n-2).  For m <= 1 the result is exactly 0: a single task can
    never pin both regeneration threads (at m = 1 the expression cancels
    algebraically; below 1 it would extrapolate negative).  Emits
    :class:`LowLoadWarning` whenever m < 2, where the "at least two of m
    tasks" reading is already an extrapolation; the warning names the first
    caller outside this module, also when another closed form called this one.
    """
    m = regen_load(params)
    if m < 2.0:
        level, frame = 2, sys._getframe(1)
        while frame.f_globals is globals():
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"per-node regeneration load m = {m:g} < 2 (n={params.n}, b={params.b}); "
            "the degraded-node probability extrapolates the two-task model",
            LowLoadWarning,
            stacklevel=level,
        )
    value = _at_least_two_hits(m, 1.0 / (params.n - 2))
    return Probability(_guarded_clamp(value, f"degraded-node probability (n={params.n}, b={params.b})"))


def _at_least_two_hits(m: float, p: float) -> float:
    """Unclamped 1 - (1-p)**m - m*p*(1-p)**(m-1), exactly 0 for m <= 1.

    At integer m this is P(Binomial(m, p) >= 2).
    """
    if m <= 1.0:
        return 0.0
    none = math.exp(m * math.log1p(-p))
    one = m * p * math.exp((m - 1.0) * math.log1p(-p))
    return 1.0 - none - one


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


def cluster_degrade_prob(params: RegenParams) -> Probability:
    """Chance every good node is degraded at once: node probability to the power n-2."""
    return Probability(node_degrade_prob(params) ** (params.n - 2))


# exp() of anything below about -745.13 underflows to exactly 0.0; the floor
# sits a little under that point.
_LOG_UNDERFLOW = -746.0


def _binomial_window(count: int, p: float) -> tuple[int, list[float]]:
    """Binomial(count, p) mass function via log-gamma, safe for large counts.

    Returns (lo, mass) with mass[k] the probability of lo + k; every term
    outside the window is exactly 0.0 in floating point, so it is never
    evaluated.  The walk starts at the mode and goes outward in each
    direction until a term's log falls below ``_LOG_UNDERFLOW``.  The
    log-pmf is concave in i, so every term past that one is smaller still
    and exp() gives exactly 0.0 for it too.  The computed log carries a
    rounding error of about ulp(lgamma(count)), far below the 0.87 margin
    between the floor and exp's underflow point, so no skipped term could
    have been non-zero.  Keep each term's expression and evaluation order as
    they are: analytic CSV rows depend on their exact bits.
    """
    if p <= 0.0:
        return 0, [1.0]
    if p >= 1.0:
        return count, [1.0]
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_n = math.lgamma(count + 1)

    def log_term(i: int) -> float:
        log_coeff = lg_n - math.lgamma(i + 1) - math.lgamma(count - i + 1)
        return log_coeff + i * log_p + (count - i) * log_q

    mode = min(count, int((count + 1) * p))

    def walk(step: int) -> list[float]:
        mass = []
        i = mode + step
        while 0 <= i <= count and (value := log_term(i)) >= _LOG_UNDERFLOW:
            mass.append(math.exp(value))
            i += step
        return mass

    below = walk(-1)
    below.reverse()
    return mode - len(below), below + [math.exp(log_term(mode))] + walk(1)


def block_degrade_breakdown(params: RegenParams) -> BlockDegradeBreakdown:
    """Per-block degradation probability, split by case.

    Both summands run over the degraded-node-count distribution explicitly:
    with i degraded good nodes, the block's two surviving copies land on two
    of them with odds C(i,2)/C(n-1,2), or on the slow node plus one of them
    with odds i/C(n-1,2).  (The equivalent factorial-moment closed forms are
    reserved as an independent test oracle, so they are not used here.)

    The sums visit only the pmf window of :func:`_binomial_window`, in
    ascending i as a full loop over 1..n-2 would.  Every skipped term is
    exactly 0.0, and adding 0.0 leaves a sum unchanged, so the result is
    bit-identical to the full loop at a cost of about a hundred terms,
    almost flat in n.  Precision: each pmf term's log-gamma exponent is
    rounded to about ulp(lgamma(n)), so the sums drift from the moment forms
    by about that much relative (about 1e-11 at n = 1e4, 1e-9 at n = 1e6,
    2e-8 at n = 1e7); at large n the 12 printed digits overstate the
    accuracy.
    """
    return _breakdown_at(params, node_degrade_prob(params))


def _breakdown_at(params: RegenParams, q: float) -> BlockDegradeBreakdown:
    """The per-block split when good nodes degrade independently with probability q."""
    n = params.n
    lo, mass = _binomial_window(n - 2, q)
    pairs = math.comb(n - 1, 2)
    both = 0.0
    one_slow = 0.0
    for i in range(max(lo, 1), lo + len(mass)):
        term = mass[i - lo]
        one_slow += term * i / pairs
        if i >= 2:
            both += term * math.comb(i, 2) / pairs
    return BlockDegradeBreakdown(
        both_on_degraded=Probability(both),
        one_on_slow=Probability(one_slow),
        total=Probability(_guarded_clamp(both + one_slow, f"per-block probability (n={n}, b={params.b})")),
    )


def any_block_degrade_prob(params: RegenParams) -> Probability:
    """Chance at least one of the b lost blocks is degraded: 1 - (1 - p_block)**b."""
    if params.b == 0:
        return Probability(0.0)
    per_block = block_degrade_breakdown(params).total
    return Probability(_stable_complement_power(per_block, params.b))


def assumption_targets(params: RegenParams) -> dict[str, float]:
    """The limits of :func:`~limpprob.trials.run_assumption_trials` per metric, exact at every b.

    Its good nodes degrade independently at q = _node_target(n, b): the paper's forms at q.
    """
    q = _node_target(params.n, params.b)
    per_block = _breakdown_at(params, q).total
    return {NODE_DEGRADE: q, CLUSTER_DEGRADE: q ** (params.n - 2), BLOCK_DEGRADE: per_block,
            ANY_BLOCK_DEGRADE: _stable_complement_power(per_block, params.b)}


def protocol_targets(n: int, b_total: int) -> dict[str, float]:
    """The known exact limits of :func:`~limpprob.trials.run_protocol_trials`; no key, no target.

    A good node sources a task bound for the slow node from each placed block independently
    with odds 3/(n(n-1)(n-2)), so node_degrade is P(Binomial(b_total, 3/(n(n-1)(n-2))) >= 2).
    """
    return {NODE_DEGRADE: _at_least_two_hits(b_total, 3 / (n * (n - 1) * (n - 2)))}
