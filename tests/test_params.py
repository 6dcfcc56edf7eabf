import copy
import math
import pickle
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from limpprob import (
    BlockDegradeBreakdown,
    ClusterParams,
    EstimateSummary,
    InvalidParamsError,
    Probability,
    RegenParams,
    WorkloadParams,
)


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
        for n in (10.5, True):
            with pytest.raises(InvalidParamsError):
                ClusterParams(n)


class TestWorkloadParams:
    def test_bounds(self):
        assert WorkloadParams(0).r == 0
        for r in (-1, False, True):
            with pytest.raises(InvalidParamsError):
                WorkloadParams(r)


class TestRegenParams:
    def test_minimum_size(self):
        assert RegenParams(5, 0).b == 0
        for n in (4, 3, 0, True):
            with pytest.raises(InvalidParamsError):
                RegenParams(n, 10)

    def test_negative_blocks_rejected(self):
        for b in (-1, False, True):
            with pytest.raises(InvalidParamsError):
                RegenParams(10, b)


# every record type: one set of field values, and another that differs in the last field only
RECORDS = [
    (ClusterParams, (10,), (11,)),
    (WorkloadParams, (5,), (6,)),
    (RegenParams, (10, 90), (10, 91)),
    (EstimateSummary, (100, 36, Probability(0.36), 0.27, 0.46), (100, 36, Probability(0.36), 0.27, 0.47)),
    (BlockDegradeBreakdown, (Probability(0.1), Probability(0.2), Probability(0.3)),
     (Probability(0.1), Probability(0.2), Probability(0.25))),
]


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
class TestRecords:
    def test_positional_and_keyword_construction_agree(self, cls, values, other):
        names = cls.__slots__
        record = cls(*values)
        assert tuple(getattr(record, name) for name in names) == values
        assert cls(**dict(zip(names, values))) == record
        assert cls(**dict(reversed(list(zip(names, values))))) == record
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record

    def test_wrong_fields_raise_type_error(self, cls, values, other):
        for args, kwargs in [(values + (1,), {}), (values[:-1], {}), (values, {"bogus": 1}),
                             (values, {cls.__slots__[0]: values[0]})]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, values, other):
        record = cls(*values)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, other[-1])
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(*values)

    def test_equality_hash_and_repr_by_field(self, cls, values, other):
        record, twin, changed = cls(*values), cls(*values), cls(*other)
        assert record == twin and record is not twin and hash(record) == hash(twin)
        assert record != changed and not record == changed
        assert record != values  # a record is not a tuple
        assert len({record, twin, changed}) == 2
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, values))
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_pickle_and_copy_round_trip(self, cls, values, other):
        # an estimate leaves a process pool pickled; a copy or a load re-checks the fields
        record = cls(*values)
        twins = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins + [copy.copy(record), copy.deepcopy(record)]:
            assert type(twin) is cls and twin == record and repr(twin) == repr(record)

    def test_weakly_referenced(self, cls, values, other):
        record = cls(*values)
        ref = weakref.ref(record)
        assert ref() is record
        del record
        assert ref() is None


def test_records_of_different_types_differ():
    assert ClusterParams(10) != WorkloadParams(10)
