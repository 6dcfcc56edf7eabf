"""Closed-form model tests.

Expected values marked as frozen below were computed with an independent
50-digit mpmath evaluation of the same formulas (and, for the per-block
split, cross-checked against the binomial factorial-moment identities).
"""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limpprob import (
    ClusterParams,
    LowLoadWarning,
    RegenParams,
    WorkloadParams,
    any_block_degrade_prob,
    block_degrade_breakdown,
    cluster_degrade_prob,
    enum_read_prob,
    enum_slow_dest_prob,
    enum_write_prob,
    node_degrade_prob,
    read_degrade_prob,
    read_user_degrade_prob,
    regen_load,
    slow_dest_prob,
    write_degrade_prob,
    write_user_degrade_prob,
)
from limpprob.model import _binomial_window

# frozen independent-oracle values (mpmath, 50 digits)
READ_USER_100_100 = 0.63396765872677049507
WRITE_USER_50_40 = 0.91583836885657412816
NODE_10_90 = 0.36110217217355966568
CLUSTER_10_90 = 2.890951508758841778e-4
CLUSTER_10_500 = 0.95789415572912219584
PBL1_100_3200 = 1.8090170335618281121e-3
PBL2_100_3200 = 8.6805623194042709644e-4
PBL_100_3200 = 2.6770732655022552085e-3
ANYBLOCK_100_3200 = 0.99981182190123376131

regen_grid = [
    RegenParams(n, b)
    for n in (5, 10, 30, 50, 100, 150)
    for b in (0, n - 1, 10 * (n - 1), 50 * (n - 1), 3200)
]


class TestReadWrite:
    def test_read_examples(self):
        assert read_degrade_prob(ClusterParams(10)) == pytest.approx(0.1, abs=0)
        assert read_degrade_prob(ClusterParams(3)) == pytest.approx(1 / 3, abs=0)
        # n=4 certified by exhaustive enumeration
        assert read_degrade_prob(ClusterParams(4)) == float(enum_read_prob(4)) == 0.25

    def test_read_user_examples(self):
        assert read_user_degrade_prob(ClusterParams(10), WorkloadParams(1)) == 0.1
        assert read_user_degrade_prob(ClusterParams(7), WorkloadParams(0)) == 0.0
        got = read_user_degrade_prob(ClusterParams(100), WorkloadParams(100))
        assert got == pytest.approx(READ_USER_100_100, rel=1e-13)

    def test_write_examples(self):
        assert write_degrade_prob(ClusterParams(10)) == pytest.approx(0.3, abs=0)
        assert write_degrade_prob(ClusterParams(3)) == 1.0
        assert write_degrade_prob(ClusterParams(4)) == float(enum_write_prob(4)) == 0.75

    def test_write_user_examples(self):
        got = write_user_degrade_prob(ClusterParams(50), WorkloadParams(40))
        assert got == pytest.approx(WRITE_USER_50_40, rel=1e-13)
        assert 0.9158 <= got <= 0.9160
        assert write_user_degrade_prob(ClusterParams(3), WorkloadParams(1)) == 1.0
        assert write_user_degrade_prob(ClusterParams(9), WorkloadParams(0)) == 0.0

    def test_exact_fractions_across_sizes(self):
        for n in range(4, 201):
            assert read_degrade_prob(ClusterParams(n)) == float(Fraction(1, n))
            assert write_degrade_prob(ClusterParams(n)) == float(Fraction(3, n))

    def test_monotone_in_requests(self):
        for n in (10, 50, 100):
            values = [
                read_user_degrade_prob(ClusterParams(n), WorkloadParams(r)) for r in range(0, 60)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_cluster_size(self):
        for r in (1, 10, 100):
            for fn in (read_user_degrade_prob, write_user_degrade_prob):
                values = [fn(ClusterParams(n), WorkloadParams(r)) for n in range(10, 101)]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_write_dominates_read(self):
        for n in range(4, 80):
            for r in (0, 1, 7, 40):
                w = write_user_degrade_prob(ClusterParams(n), WorkloadParams(r))
                rv = read_user_degrade_prob(ClusterParams(n), WorkloadParams(r))
                assert w >= rv


class TestRegenScalars:
    def test_regen_load(self):
        assert regen_load(RegenParams(11, 100)) == 10.0
        assert regen_load(RegenParams(5, 10)) == 2.5
        assert regen_load(RegenParams(5, 0)) == 0.0

    def test_slow_dest(self):
        assert slow_dest_prob(RegenParams(5, 1)) == pytest.approx(1 / 3, abs=0)
        assert slow_dest_prob(RegenParams(102, 1)) == 0.01
        # two-stage enumeration oracle agrees exactly
        assert slow_dest_prob(RegenParams(5, 1)) == float(enum_slow_dest_prob(5))

    def test_node_degrade_examples(self):
        assert node_degrade_prob(RegenParams(10, 0)) == 0.0
        assert node_degrade_prob(RegenParams(10, 9)) == 0.0
        got = node_degrade_prob(RegenParams(10, 90))
        assert got == pytest.approx(NODE_10_90, rel=1e-13)

    def test_low_load_warns(self):
        with pytest.warns(LowLoadWarning):
            node_degrade_prob(RegenParams(10, 17))  # m < 2

    @pytest.mark.parametrize("closed_form", [node_degrade_prob, cluster_degrade_prob, block_degrade_breakdown,
                                             any_block_degrade_prob])
    def test_low_load_warning_names_the_caller(self, closed_form):
        # so that filterwarnings(module=...) matches the caller, also where a form reaches node_degrade_prob
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            closed_form(RegenParams(10, 9))
        assert [(w.category, w.filename) for w in caught] == [(LowLoadWarning, __file__)]

    def test_zero_exactly_whenever_load_at_most_one(self):
        for n, b in ((5, 4), (10, 9), (50, 49), (10, 3), (30, 0)):
            assert node_degrade_prob(RegenParams(n, b)) == 0.0

    def test_cluster_examples(self):
        assert cluster_degrade_prob(RegenParams(10, 9)) == 0.0
        got = cluster_degrade_prob(RegenParams(10, 90))
        assert got == pytest.approx(CLUSTER_10_90, rel=1e-12)
        assert abs(got - 2.90e-4) <= 1e-6
        got500 = cluster_degrade_prob(RegenParams(10, 500))
        assert got500 == pytest.approx(CLUSTER_10_500, rel=1e-12)
        assert abs(got500 - 0.958) <= 0.002

    def test_cluster_below_node(self):
        for params in regen_grid:
            assert cluster_degrade_prob(params) <= node_degrade_prob(params)


def _degraded_count_pmf(params):
    """P(i good nodes degraded), i = 0..n-2: the window of the Binomial(n-2, node_degrade) mass padded with zeros."""
    count = params.n - 2
    lo, mass = _binomial_window(count, node_degrade_prob(params))
    return [0.0] * lo + mass + [0.0] * (count + 1 - lo - len(mass))


class TestPmf:
    def test_degenerate_at_zero(self):
        mass = _degraded_count_pmf(RegenParams(10, 9))
        assert mass[0] == 1.0
        assert all(v == 0.0 for v in mass[1:])

    def test_normalization(self):
        for n in range(5, 151):
            for b in (0, n - 1, 10 * (n - 1), 100 * (n - 1)):
                mass = _degraded_count_pmf(RegenParams(n, b))
                assert len(mass) == n - 1
                assert abs(sum(mass) - 1.0) <= 1e-12

    def test_top_entry_is_cluster_probability(self):
        params = RegenParams(10, 90)
        assert _degraded_count_pmf(params)[8] == pytest.approx(cluster_degrade_prob(params), rel=1e-12)

    def test_matches_direct_binomial(self):
        params = RegenParams(12, 60)
        p = node_degrade_prob(params)
        for i, got in enumerate(_degraded_count_pmf(params)):
            want = math.comb(10, i) * p**i * (1 - p) ** (10 - i)
            assert got == pytest.approx(want, rel=1e-10)


class TestBlockBreakdown:
    def test_zero_when_no_degraded_nodes(self):
        split = block_degrade_breakdown(RegenParams(10, 9))
        assert (split.both_on_degraded, split.one_on_slow, split.total) == (0.0, 0.0, 0.0)

    def test_terabyte_node_point(self):
        split = block_degrade_breakdown(RegenParams(100, 3200))
        assert split.both_on_degraded == pytest.approx(PBL1_100_3200, rel=1e-12)
        assert split.one_on_slow == pytest.approx(PBL2_100_3200, rel=1e-12)
        assert split.total == pytest.approx(PBL_100_3200, rel=1e-12)
        # coarse sanity bands
        assert split.both_on_degraded == pytest.approx(1.809e-3, rel=0.02)
        assert split.one_on_slow == pytest.approx(8.68e-4, rel=0.02)
        assert split.total == pytest.approx(2.677e-3, rel=0.02)

    def test_cases_sum_exactly(self):
        for params in regen_grid:
            split = block_degrade_breakdown(params)
            assert split.total == pytest.approx(split.both_on_degraded + split.one_on_slow, abs=1e-15)

    def test_moment_identity_oracle(self):
        # the summed series must match the binomial factorial-moment closed
        # forms, which were never used in the implementation
        for params in regen_grid:
            n = params.n
            split = block_degrade_breakdown(params)
            p_node = node_degrade_prob(params)
            pairs = math.comb(n - 1, 2)
            want_both = math.comb(n - 2, 2) * p_node * p_node / pairs
            want_slow = (n - 2) * p_node / pairs
            if want_both == 0.0:
                assert split.both_on_degraded == 0.0
                assert split.one_on_slow == 0.0
            else:
                assert split.both_on_degraded == pytest.approx(want_both, rel=1e-10)
                assert split.one_on_slow == pytest.approx(want_slow, rel=1e-10)


def _binomial_pmf_full(count, p):
    """The full 0..count log-gamma loop that preceded the pmf window."""
    if p <= 0.0:
        return [1.0] + [0.0] * count
    if p >= 1.0:
        return [0.0] * count + [1.0]
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_n = math.lgamma(count + 1)
    mass = []
    for i in range(count + 1):
        log_coeff = lg_n - math.lgamma(i + 1) - math.lgamma(count - i + 1)
        mass.append(math.exp(log_coeff + i * log_p + (count - i) * log_q))
    return mass


def _full_reference(params):
    """pmf, (both, one_slow, total) and any-block from the O(n) loops over 1..n-2."""
    n = params.n
    pmf = _binomial_pmf_full(n - 2, node_degrade_prob(params))
    pairs = math.comb(n - 1, 2)
    both = 0.0
    one_slow = 0.0
    for i in range(1, n - 1):
        one_slow += pmf[i] * i / pairs
        if i >= 2:
            both += pmf[i] * math.comb(i, 2) / pairs
    total = both + one_slow
    if params.b == 0 or total == 0.0:
        any_block = 0.0
    elif total >= 1.0:
        any_block = 1.0
    else:
        any_block = -math.expm1(params.b * math.log1p(-total))
    return pmf, (both, one_slow, total), any_block


window_points = [
    RegenParams(n, b)
    for n in range(5, 151)
    for b in sorted({0, 1, n - 1, 2 * (n - 1) + 3, 10 * (n - 1), 50 * (n - 1), 1000 * (n - 1), 20000 * (n - 1)})
] + [RegenParams(n, f * (n - 1)) for n in (10_000 + 7 * k for k in range(8)) for f in (1, 10, 50)]


class TestPmfWindow:
    def test_bit_identical_to_full_loop(self):
        # every term outside the window is exactly 0.0, so skipping it must
        # not change a single bit of any output
        failures = []
        for params in window_points:
            pmf, split_want, any_want = _full_reference(params)
            split = block_degrade_breakdown(params)
            got = [split.both_on_degraded, split.one_on_slow, split.total, any_block_degrade_prob(params)]
            if [v.hex() for v in got] != [v.hex() for v in (*split_want, any_want)]:
                failures.append((params.n, params.b, "breakdown"))
            if [v.hex() for v in _degraded_count_pmf(params)] != [v.hex() for v in pmf]:
                failures.append((params.n, params.b, "pmf"))
        assert not failures, failures[:5]

    @pytest.mark.parametrize("factor", [1, 10, 50, 20000])
    def test_cost_is_flat_in_n(self, monkeypatch, factor):
        # the full loop makes 3 * 10**7 lgamma calls at this n
        calls = 0
        lgamma = math.lgamma

        def counting_lgamma(x):
            nonlocal calls
            calls += 1
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", counting_lgamma)
        n = 10**7
        block_degrade_breakdown(RegenParams(n, factor * (n - 1)))
        assert calls <= 2_000

    def test_moment_drift_within_lgamma_ulps(self):
        # each pmf term's exponent is rounded to about ulp(lgamma(n)), so the
        # sums may drift from the moment forms by a few of those, relative
        # (measured: at most 2.3 ulps over 400 random points, n = 1e4..1e7);
        # criterion 4 keeps its 1e-10 bound at n <= 150
        failures = []
        for n in (10**4, 10**5, 3 * 10**5, 10**6, 10**7):
            bound = 4 * math.ulp(math.lgamma(n))
            for factor in (2, 10, 50, 20000):
                params = RegenParams(n, factor * (n - 1))
                split = block_degrade_breakdown(params)
                p_node = node_degrade_prob(params)
                pairs = math.comb(n - 1, 2)
                want_both = math.comb(n - 2, 2) * p_node * p_node / pairs
                want_slow = (n - 2) * p_node / pairs
                for got, want in ((split.both_on_degraded, want_both), (split.one_on_slow, want_slow)):
                    if abs(got - want) / want > bound:
                        failures.append((n, factor, abs(got - want) / want / math.ulp(math.lgamma(n))))
        assert not failures, failures


class TestAnyBlock:
    def test_examples(self):
        assert any_block_degrade_prob(RegenParams(10, 9)) == 0.0
        assert any_block_degrade_prob(RegenParams(17, 0)) == 0.0
        got = any_block_degrade_prob(RegenParams(100, 3200))
        assert got == pytest.approx(ANYBLOCK_100_3200, rel=1e-12)
        assert got >= 0.999


def test_frozen_constants_rederive_from_high_precision_oracle():
    # regenerate every frozen constant above with 50-digit arithmetic
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    one = mp.mpf(1)

    def p_nl(n, b):
        m = mp.mpf(b) / (n - 1)
        p = one / (n - 2)
        if m <= 1:
            return mp.mpf(0)
        return 1 - (1 - p) ** m - m * p * (1 - p) ** (m - 1)

    def breakdown(n, b):
        p_node = p_nl(n, b)
        pairs = mp.binomial(n - 1, 2)
        mass = [
            mp.binomial(n - 2, i) * p_node**i * (1 - p_node) ** (n - 2 - i)
            for i in range(n - 1)
        ]
        both = sum(mass[i] * mp.binomial(i, 2) / pairs for i in range(2, n - 1))
        slow = sum(mass[i] * i / pairs for i in range(1, n - 1))
        return both, slow

    assert float(1 - (1 - one / 100) ** 100) == pytest.approx(READ_USER_100_100, rel=1e-15)
    assert float(1 - (1 - mp.mpf(3) / 50) ** 40) == pytest.approx(WRITE_USER_50_40, rel=1e-15)
    assert float(p_nl(10, 90)) == pytest.approx(NODE_10_90, rel=1e-15)
    assert float(p_nl(10, 90) ** 8) == pytest.approx(CLUSTER_10_90, rel=1e-15)
    assert float(p_nl(10, 500) ** 8) == pytest.approx(CLUSTER_10_500, rel=1e-15)
    both, slow = breakdown(100, 3200)
    assert float(both) == pytest.approx(PBL1_100_3200, rel=1e-15)
    assert float(slow) == pytest.approx(PBL2_100_3200, rel=1e-15)
    assert float(both + slow) == pytest.approx(PBL_100_3200, rel=1e-15)
    assert float(1 - (1 - both - slow) ** 3200) == pytest.approx(ANYBLOCK_100_3200, rel=1e-15)


@given(
    n=st.integers(min_value=5, max_value=250),
    b=st.integers(min_value=0, max_value=50_000),
)
@settings(max_examples=150, deadline=None)
def test_all_outputs_are_probabilities(n, b):
    params = RegenParams(n, b)
    values = [
        node_degrade_prob(params),
        cluster_degrade_prob(params),
        any_block_degrade_prob(params),
        slow_dest_prob(params),
    ]
    split = block_degrade_breakdown(params)
    values += [split.both_on_degraded, split.one_on_slow, split.total]
    values += _degraded_count_pmf(params)
    for v in values:
        assert 0.0 <= v <= 1.0
        assert not math.isnan(v)


@given(n=st.integers(min_value=3, max_value=500), r=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_rw_outputs_are_probabilities(n, r):
    cluster, workload = ClusterParams(n), WorkloadParams(r)
    for v in (
        read_degrade_prob(cluster),
        write_degrade_prob(cluster),
        read_user_degrade_prob(cluster, workload),
        write_user_degrade_prob(cluster, workload),
    ):
        assert 0.0 <= v <= 1.0 and not math.isnan(v)
