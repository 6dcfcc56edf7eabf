"""Binomial-proportion estimates with Wilson score confidence intervals."""

from __future__ import annotations

import math

from .errors import InvalidParamsError
from .params import Probability, Record, _count

# Two-sided 95% normal quantile.
Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and behaves sensibly when the estimate sits at 0 or 1,
    which happens routinely here (cluster-degrade probabilities are often
    effectively 0 or 1).
    """
    _count("trials", trials, 1)
    _count("successes", successes, 0)
    if successes > trials:
        raise InvalidParamsError(f"successes {successes!r} outside 0..{trials}")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    # the interval always contains the point estimate; rounding at p_hat = 0 or 1
    # can leave a residue of ~1e-18 on the wrong side, so pin it
    low = min(max(0.0, center - margin), p_hat)
    high = max(min(1.0, center + margin), p_hat)
    return low, high


class EstimateSummary(Record):
    """Monte Carlo point estimate for one metric.

    trials counts the Bernoulli observations behind the estimate (for
    per-node metrics that is trials x good nodes, not the trial count).
    """

    __slots__ = ("trials", "successes", "point_estimate", "ci_low", "ci_high")
    trials: int
    successes: int
    point_estimate: Probability
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "EstimateSummary":
        """The estimate from successes of trials observations; zero observations (e.g. no block was ever lost)
        give the uninformative estimate, 0 of 0 with CI [0, 1], rather than a division by zero."""
        if trials == 0 == successes:
            return cls(0, 0, Probability(0.0), 0.0, 1.0)
        low, high = wilson_interval(successes, trials)
        return cls(
            trials=trials,
            successes=successes,
            point_estimate=Probability(successes / trials),
            ci_low=low,
            ci_high=high,
        )
