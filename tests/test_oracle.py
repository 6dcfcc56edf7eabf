import math
from fractions import Fraction

import pytest

from limpprob import (
    BudgetExceededError,
    ClusterParams,
    InvalidParamsError,
    RegenParams,
    enum_read_prob,
    enum_slow_dest_prob,
    enum_write_prob,
    read_degrade_prob,
    slow_dest_prob,
    write_degrade_prob,
)


def test_read_exact_for_all_budgeted_sizes():
    for n in range(3, 17):
        assert enum_read_prob(n) == Fraction(1, n)


def test_write_exact_for_all_budgeted_sizes():
    for n in range(3, 17):
        assert enum_write_prob(n) == Fraction(3, n)


def test_slow_dest_exact_for_all_budgeted_sizes():
    for n in range(5, 17):
        assert enum_slow_dest_prob(n) == Fraction(1, n - 2)


def test_spot_examples():
    assert enum_read_prob(4) == Fraction(1, 4)
    assert enum_read_prob(3) == Fraction(1, 3)
    assert enum_write_prob(4) == Fraction(3, 4)
    assert enum_write_prob(3) == Fraction(1, 1)
    assert enum_write_prob(12) == Fraction(1, 4)
    assert enum_slow_dest_prob(5) == Fraction(1, 3)
    assert enum_slow_dest_prob(6) == Fraction(1, 4)
    # beyond the enumeration budget the closed form takes over
    assert slow_dest_prob(RegenParams(102, 1)) == float(Fraction(1, 100))


def test_model_agrees_within_one_ulp():
    for n in range(3, 17):
        read = read_degrade_prob(ClusterParams(n))
        write = write_degrade_prob(ClusterParams(n))
        assert abs(read - float(enum_read_prob(n))) <= math.ulp(read)
        assert abs(write - float(enum_write_prob(n))) <= math.ulp(write)
        if n >= 5:
            dest = slow_dest_prob(RegenParams(n, 1))
            assert abs(dest - float(enum_slow_dest_prob(n))) <= math.ulp(dest)


def test_budget_enforced():
    for fn in (enum_read_prob, enum_write_prob, enum_slow_dest_prob):
        with pytest.raises(BudgetExceededError):
            fn(17)
        with pytest.raises(BudgetExceededError):
            fn(102)


def test_minimum_sizes_enforced():
    for n in (2, True):
        with pytest.raises(InvalidParamsError):
            enum_read_prob(n)
        with pytest.raises(InvalidParamsError):
            enum_write_prob(n)
    for n in (4, True):
        with pytest.raises(InvalidParamsError):
            enum_slow_dest_prob(n)


def test_results_in_lowest_terms():
    for n in range(5, 17):
        frac = enum_slow_dest_prob(n)
        assert math.gcd(frac.numerator, frac.denominator) == 1
        assert frac.denominator > 0


def test_package_root_resolves_the_enumerations_from_oracle():
    import limpprob
    import limpprob.oracle

    for name in ("enum_read_prob", "enum_slow_dest_prob", "enum_write_prob"):
        assert getattr(limpprob, name) is getattr(limpprob.oracle, name)
