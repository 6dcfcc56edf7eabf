"""Validated parameter types for the cluster probability model.

The cluster under study has n datanodes, 3-way replication, exactly one slow
node and (for regeneration) exactly one crashed node.  All derivations in
:mod:`limpprob.model` are specific to replication factor 3, so no parameter
type carries a replication factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParamsError

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


@dataclass(frozen=True)
class ClusterParams:
    """An n-node cluster with one slow node and 3-way replication.

    n must be at least 3 so a full write pipeline fits.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise InvalidParamsError(f"cluster size must be an integer >= 3, got {self.n!r}")


@dataclass(frozen=True)
class WorkloadParams:
    """Number of requests r issued during one operation period."""

    r: int

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or self.r < 0:
            raise InvalidParamsError(f"request count must be an integer >= 0, got {self.r!r}")


@dataclass(frozen=True)
class RegenParams:
    """Regeneration inputs: cluster size n and b blocks lost with the crashed node.

    n >= 5 keeps every denominator (n-2, n-3) positive and guarantees at least
    two candidate destinations plus a good node beyond any block-holder pair,
    so every degraded-regeneration scenario is constructible.
    """

    n: int
    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 5:
            raise InvalidParamsError(
                f"regeneration model needs an integer cluster size >= 5, got {self.n!r}"
            )
        if not isinstance(self.b, int) or self.b < 0:
            raise InvalidParamsError(f"lost-block count must be an integer >= 0, got {self.b!r}")
