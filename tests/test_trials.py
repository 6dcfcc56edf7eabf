"""Trial-runner tests.

Frozen analytic anchors come from the independent mpmath evaluation recorded
in test_model.py; the Monte Carlo estimates here must land inside bands that
are several standard errors wide, and every run is deterministic in the
master seed, so these tests are stable.
"""

import os

import pytest

from limpprob import (
    ANY_BLOCK_DEGRADE,
    BLOCK_DEGRADE,
    CLUSTER_DEGRADE,
    NODE_DEGRADE,
    InvalidParamsError,
    RegenParams,
    block_degrade_breakdown,
    run_assumption_trials,
    run_protocol_trials,
    run_rw_trials,
)
from limpprob.trials import _partition

NODE_10_90 = 0.36110217217355966568
CLUSTER_10_500 = 0.95789415572912219584


class TestPartition:
    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _partition(100_000, 100_000) == [(0, 50_000), (50_000, 100_000)]
        assert _partition(10, 1) == [(0, 10)]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _partition(100_000, 100_000) == [(0, 100_000)]


class TestRwTrials:
    def test_read_single_request_matches_placement_law(self):
        est = run_rw_trials("read", 10, 1, 1_000_000, master_seed=11)
        assert abs(est.point_estimate - 0.100) <= 0.001
        assert est.ci_low <= 0.1 <= est.ci_high

    def test_write_forty_requests(self):
        est = run_rw_trials("write", 50, 40, 100_000, master_seed=12)
        assert abs(est.point_estimate - 0.916) <= 0.005

    def test_zero_requests_never_degrade(self):
        for protocol in ("read", "write"):
            est = run_rw_trials(protocol, 23, 0, 5000, master_seed=1)
            assert est.point_estimate == 0.0
            assert est.successes == 0

    def test_deterministic_and_worker_invariant(self):
        one = run_rw_trials("read", 10, 5, 20_000, master_seed=3, workers=1)
        two = run_rw_trials("read", 10, 5, 20_000, master_seed=3, workers=4)
        assert one == two
        assert run_rw_trials("read", 10, 5, 20_000, master_seed=4) != one

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            run_rw_trials("append", 10, 1, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_rw_trials("read", 2, 1, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_rw_trials("read", 10, 1, 0, master_seed=0)


class TestAssumptionTrials:
    def test_node_anchor(self):
        est = run_assumption_trials(RegenParams(10, 90), 200_000, master_seed=21)
        node = est[NODE_DEGRADE]
        assert abs(node.point_estimate - NODE_10_90) <= 0.0015
        assert node.trials == 200_000 * 8

    def test_cluster_anchor_fractional_load(self):
        est = run_assumption_trials(RegenParams(10, 500), 100_000, master_seed=22)
        assert abs(est[CLUSTER_DEGRADE].point_estimate - CLUSTER_10_500) <= 0.006

    def test_block_metrics_converge(self):
        est = run_assumption_trials(RegenParams(10, 90), 100_000, master_seed=23)
        p_block = block_degrade_breakdown(RegenParams(10, 90)).total
        assert abs(est[BLOCK_DEGRADE].point_estimate - p_block) <= 0.006
        # the closed form for >=1 degraded block is essentially 1 here and the
        # sampler honors the cross-block independence it assumes
        assert est[ANY_BLOCK_DEGRADE].point_estimate == 1.0

    def test_single_task_per_node_cannot_degrade(self):
        est = run_assumption_trials(RegenParams(10, 9), 3000, master_seed=5)
        for metric in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE):
            assert est[metric].point_estimate == 0.0

    def test_zero_blocks(self):
        est = run_assumption_trials(RegenParams(12, 0), 500, master_seed=5)
        for summary in est.values():
            assert summary.point_estimate == 0.0

    def test_deterministic_and_worker_invariant(self):
        one = run_assumption_trials(RegenParams(10, 90), 20_000, master_seed=9, workers=1)
        three = run_assumption_trials(RegenParams(10, 90), 20_000, master_seed=9, workers=3)
        assert one == three

    def test_interval_shape(self):
        est = run_assumption_trials(RegenParams(30, 290), 20_000, master_seed=8)
        for summary in est.values():
            assert 0.0 <= summary.ci_low <= summary.point_estimate <= summary.ci_high <= 1.0


class TestProtocolTrials:
    def test_deterministic_even_single_trial(self):
        one = run_protocol_trials(10, 300, 1, master_seed=77)
        two = run_protocol_trials(10, 300, 1, master_seed=77)
        assert one == two

    def test_worker_invariance(self):
        one = run_protocol_trials(10, 300, 400, master_seed=13, workers=1)
        four = run_protocol_trials(10, 300, 400, master_seed=13, workers=4)
        assert one == four

    def test_single_block_cannot_degrade_anything(self):
        est = run_protocol_trials(10, 1, 2000, master_seed=6)
        for metric in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE):
            assert est[metric].point_estimate == 0.0

    def test_block_estimate_tracks_model_at_heavy_load(self):
        # a crashed node holding about 900 blocks in a 30-node cluster
        est = run_protocol_trials(30, 9000, 2000, master_seed=30)
        want = block_degrade_breakdown(RegenParams(30, 900)).total
        assert abs(est[BLOCK_DEGRADE].point_estimate - want) <= 0.05

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            run_protocol_trials(4, 10, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_protocol_trials(10, 0, 10, master_seed=0)
        with pytest.raises(InvalidParamsError):
            run_protocol_trials(10, 10, 0, master_seed=0)
