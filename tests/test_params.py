import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from limpprob import ClusterParams, InvalidParamsError, Probability, RegenParams, WorkloadParams


class TestProbability:
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 1e-300, 1 - 1e-16])
    def test_accepts_unit_interval(self, value):
        assert Probability(value) == value

    @pytest.mark.parametrize("value", [-1e-18, 1.0000000000000002, 2.0, -3.5, math.nan, math.inf, -math.inf])
    def test_rejects_outside(self, value):
        with pytest.raises(InvalidParamsError):
            Probability(value)

    def test_behaves_like_float(self):
        p = Probability(0.25)
        assert isinstance(p, float)
        assert p * 2 == 0.5

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_construction_never_accepts_bad_values(self, value):
        try:
            p = Probability(value)
        except InvalidParamsError:
            assert not (0.0 <= value <= 1.0) or math.isnan(value)
        else:
            assert 0.0 <= p <= 1.0


class TestClusterParams:
    def test_minimum_size(self):
        assert ClusterParams(3).n == 3
        with pytest.raises(InvalidParamsError):
            ClusterParams(2)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidParamsError):
            ClusterParams(10.5)


class TestWorkloadParams:
    def test_bounds(self):
        assert WorkloadParams(0).r == 0
        with pytest.raises(InvalidParamsError):
            WorkloadParams(-1)


class TestRegenParams:
    def test_minimum_size(self):
        assert RegenParams(5, 0).b == 0
        for n in (4, 3, 0):
            with pytest.raises(InvalidParamsError):
                RegenParams(n, 10)

    def test_negative_blocks_rejected(self):
        with pytest.raises(InvalidParamsError):
            RegenParams(10, -1)
