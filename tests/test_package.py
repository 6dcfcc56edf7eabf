"""The package's public surface, pinned so that any growth or removal is deliberate."""

import limpprob

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(limpprob.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(limpprob, name)] == []
