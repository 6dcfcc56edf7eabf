import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from limpprob import EstimateSummary, InvalidParamsError, wilson_interval
from limpprob.stats import Z_95


def test_textbook_value():
    low, high = wilson_interval(9, 10)
    assert low == pytest.approx(0.5958, abs=5e-4)
    assert high == pytest.approx(0.9821, abs=5e-4)


def test_degenerate_counts_stay_in_unit_interval():
    low0, high0 = wilson_interval(0, 20)
    assert low0 == 0.0 and 0.0 < high0 < 0.35
    low1, high1 = wilson_interval(20, 20)
    assert 0.65 < low1 < 1.0 and high1 == 1.0


def test_rejects_bad_counts():
    with pytest.raises(InvalidParamsError):
        wilson_interval(1, 0)
    with pytest.raises(InvalidParamsError):
        wilson_interval(5, 4)
    with pytest.raises(InvalidParamsError):
        wilson_interval(-1, 4)
    for successes, trials in ((True, 4), (1, True), (0, False), (1, 4.0)):
        with pytest.raises(InvalidParamsError):
            wilson_interval(successes, trials)


@given(
    trials=st.integers(min_value=1, max_value=10_000_000),
    ratio=st.floats(min_value=0.0, max_value=1.0),
)
def test_contains_point_estimate(trials, ratio):
    successes = min(trials, int(round(ratio * trials)))
    low, high = wilson_interval(successes, trials)
    p_hat = successes / trials
    assert 0.0 <= low <= p_hat <= high <= 1.0


@given(trials=st.integers(min_value=2, max_value=1_000_000), successes=st.integers(min_value=0))
def test_endpoints_solve_the_score_equation(trials, successes):
    # the Wilson endpoints are exactly the roots of
    # (p_hat - p)^2 = z^2 p (1 - p) / trials, an independent characterization
    successes = successes % (trials + 1)
    p_hat = successes / trials
    for endpoint in wilson_interval(successes, trials):
        lhs = (p_hat - endpoint) ** 2
        rhs = Z_95 * Z_95 * endpoint * (1.0 - endpoint) / trials
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_width_shrinks_with_trials():
    widths = []
    for trials in (10, 100, 1000, 10_000):
        low, high = wilson_interval(trials // 3, trials)
        widths.append(high - low)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_estimate_summary_from_counts():
    summary = EstimateSummary.from_counts(36, 100)
    assert summary.point_estimate == 0.36
    assert summary.ci_low <= summary.point_estimate <= summary.ci_high
    assert summary.trials == 100 and summary.successes == 36
    assert not math.isnan(summary.ci_low)


def test_estimate_summary_from_no_observations():
    # e.g. protocol block_degrade when no trial lost a block: uninformative, not a division by zero
    summary = EstimateSummary.from_counts(0, 0)
    assert (summary.successes, summary.trials, summary.point_estimate) == (0, 0, 0.0)
    assert (summary.ci_low, summary.ci_high) == (0.0, 1.0)
    with pytest.raises(InvalidParamsError):
        EstimateSummary.from_counts(1, 0)
