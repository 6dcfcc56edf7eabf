"""Validated parameter types for the cluster probability model.

The cluster under study has n datanodes, 3-way replication, exactly one slow
node and (for regeneration) exactly one crashed node.  All derivations in
:mod:`limpprob.model` are specific to replication factor 3, so no parameter
type carries a replication factor.
"""

from __future__ import annotations

import math

from .errors import InvalidParamsError


class Record:
    """An immutable record whose fields are the names its class lists in ``__slots__``.

    A subclass takes its fields by position or keyword, in ``__slots__`` order,
    then runs ``_check``.  Records refuse assignment, compare, hash and print by
    field, and can be weakly referenced.  ``dataclasses`` builds the same at
    import time, but loads ``inspect`` and ``ast`` to do it, about 10 ms of
    every CLI start.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        # a generated __init__, as dataclasses and namedtuple make one: a generic
        # *args loop costs about 0.5 us more per record, and the CLI makes one or
        # two records per analytic row
        names = ", ".join(cls.__slots__)
        sets = "".join(f"    _set(self, {name!r}, {name})\n" for name in cls.__slots__)
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {names}):\n{sets}    self._check()\n", namespace)
        cls.__init__ = namespace["__init__"]

    def _check(self) -> None:
        """Raise InvalidParamsError when the fields break a precondition."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

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
    n: int

    def _check(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise InvalidParamsError(f"cluster size must be an integer >= 3, got {self.n!r}")


class WorkloadParams(Record):
    """Number of requests r issued during one operation period."""

    __slots__ = ("r",)
    r: int

    def _check(self) -> None:
        if not isinstance(self.r, int) or self.r < 0:
            raise InvalidParamsError(f"request count must be an integer >= 0, got {self.r!r}")


class RegenParams(Record):
    """Regeneration inputs: cluster size n and b blocks lost with the crashed node.

    n >= 5 keeps every denominator (n-2, n-3) positive and guarantees at least
    two candidate destinations plus a good node beyond any block-holder pair,
    so every degraded-regeneration scenario is constructible.
    """

    __slots__ = ("n", "b")
    n: int
    b: int

    def _check(self) -> None:
        if not isinstance(self.n, int) or self.n < 5:
            raise InvalidParamsError(
                f"regeneration model needs an integer cluster size >= 5, got {self.n!r}"
            )
        if not isinstance(self.b, int) or self.b < 0:
            raise InvalidParamsError(f"lost-block count must be an integer >= 0, got {self.b!r}")
