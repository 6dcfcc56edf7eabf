"""Probabilities of slow-node (limpware) impact on replicated-storage protocols.

Closed-form evaluation, exact small-cluster enumeration, and Monte Carlo
simulation of degraded reads, writes and block regeneration in an n-node
cluster with 3-way replication and a single slow node.
"""

from .errors import (
    BudgetExceededError,
    InvalidParamsError,
    LowLoadWarning,
)
from .model import (
    ANY_BLOCK_DEGRADE,
    BLOCK_DEGRADE,
    CLUSTER_DEGRADE,
    NODE_DEGRADE,
    READ_USER_DEGRADE,
    WRITE_USER_DEGRADE,
    BlockDegradeBreakdown,
    any_block_degrade_prob,
    block_degrade_breakdown,
    cluster_degrade_prob,
    node_degrade_prob,
    read_degrade_prob,
    read_user_degrade_prob,
    regen_load,
    slow_dest_prob,
    write_degrade_prob,
    write_user_degrade_prob,
)
from .params import ClusterParams, Probability, RegenParams, WorkloadParams
from .stats import EstimateSummary, wilson_interval

# Modules that load on first access (PEP 562): the samplers need numpy, and the
# exact enumerations need fractions and decimal, so the closed forms import
# without either.
_LAZY = {
    "run_assumption_trials": "trials",
    "run_protocol_trials": "trials",
    "run_rw_trials": "trials",
    "enum_read_prob": "oracle",
    "enum_slow_dest_prob": "oracle",
    "enum_write_prob": "oracle",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ANY_BLOCK_DEGRADE",
    "BLOCK_DEGRADE",
    "BlockDegradeBreakdown",
    "BudgetExceededError",
    "CLUSTER_DEGRADE",
    "ClusterParams",
    "EstimateSummary",
    "InvalidParamsError",
    "LowLoadWarning",
    "NODE_DEGRADE",
    "Probability",
    "READ_USER_DEGRADE",
    "RegenParams",
    "WRITE_USER_DEGRADE",
    "WorkloadParams",
    "any_block_degrade_prob",
    "block_degrade_breakdown",
    "cluster_degrade_prob",
    "enum_read_prob",
    "enum_slow_dest_prob",
    "enum_write_prob",
    "node_degrade_prob",
    "read_degrade_prob",
    "read_user_degrade_prob",
    "regen_load",
    "run_assumption_trials",
    "run_protocol_trials",
    "run_rw_trials",
    "slow_dest_prob",
    "wilson_interval",
    "write_degrade_prob",
    "write_user_degrade_prob",
]
