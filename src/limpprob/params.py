"""Validated parameter types for the cluster probability model.

The cluster under study has n datanodes, 3-way replication, exactly one slow
node and (for regeneration) exactly one crashed node.  All derivations in
:mod:`limpprob.model` are specific to replication factor 3, so no parameter
type carries a replication factor.

Every integer the library takes (a record field, a sampler's trials, workers
and seed, an enumeration's n, a Wilson interval's counts) obeys one rule,
:func:`_count`: it is exactly a Python ``int``, so ``bool`` and numpy integers
raise InvalidParamsError.
"""

from __future__ import annotations

import math

from .errors import InvalidParamsError


def _count(name: str, value, minimum: int | None = None) -> None:
    """Raise InvalidParamsError naming the input unless value is exactly an int of at least minimum, if given."""
    if type(value) is not int or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParamsError(f"{name} must be an integer{bound}, got {value!r}")


class Record:
    """An immutable record whose fields are the names its class lists in ``__slots__``.

    A subclass takes its fields by position or keyword, in ``__slots__`` order,
    and checks the ones its ``_counts`` lists by :func:`_count`.  Records refuse
    assignment, compare, hash, print and pickle by field, and can be weakly referenced.
    ``dataclasses`` builds the same at import time, but loads ``inspect`` and
    ``ast`` to do it, about 10 ms of every CLI start.
    """

    __slots__ = ("__weakref__",)
    _counts: dict[str, tuple[str, int]] = {}  # field -> (its name in an error, its minimum)

    def __init_subclass__(cls) -> None:
        # a generated __init__, as dataclasses and namedtuple make one: a generic
        # *args loop costs about 0.5 us more per record, and the CLI makes one or
        # two records per analytic row
        names = ", ".join(cls.__slots__)
        checks = "".join(f"    _count({what!r}, {name}, {least})\n" for name, (what, least) in cls._counts.items())
        sets = "".join(f"    _set(self, {name!r}, {name})\n" for name in cls.__slots__)
        namespace = {"_count": _count, "_set": object.__setattr__}
        exec(f"def __init__(self, {names}):\n{checks}{sets}", namespace)
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __reduce__(self):
        return type(self), self._fields()  # pickle and copy rebuild through __init__, not the refusing __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"


class Probability(float):
    """A float constrained to [0, 1].

    Construction rejects NaN and out-of-range values; instances otherwise
    behave exactly like floats (arithmetic degrades to plain float).
    """

    __slots__ = ()

    def __new__(cls, value: float) -> "Probability":
        v = float(value)
        if math.isnan(v) or v < 0.0 or v > 1.0:
            raise InvalidParamsError(f"probability must lie in [0, 1], got {value!r}")
        return super().__new__(cls, v)


class ClusterParams(Record):
    """An n-node cluster with one slow node and 3-way replication.

    n must be at least 3 so a full write pipeline fits.
    """

    __slots__ = ("n",)
    _counts = {"n": ("cluster size", 3)}
    n: int


class WorkloadParams(Record):
    """Number of requests r issued during one operation period."""

    __slots__ = ("r",)
    _counts = {"r": ("request count", 0)}
    r: int


class RegenParams(Record):
    """Regeneration inputs: cluster size n and b blocks lost with the crashed node.

    n >= 5 keeps every denominator (n-2, n-3) positive and guarantees at least
    two candidate destinations plus a good node beyond any block-holder pair,
    so every degraded-regeneration scenario is constructible.
    """

    __slots__ = ("n", "b")
    _counts = {"n": ("regeneration cluster size", 5), "b": ("lost-block count", 0)}
    n: int
    b: int
