"""One simulated protocol trial: its placement and its regeneration plan.

The placement law is ``_distinct_triples`` in test_trials.py; the plan is
the per-trial replay ``_regen_plan`` in test_trials.py, which the protocol
kernel must match count for count.
"""

import numpy as np
import pytest

from limpprob import (
    ANY_BLOCK_DEGRADE,
    BLOCK_DEGRADE,
    CLUSTER_DEGRADE,
    NODE_DEGRADE,
    InvalidParamsError,
    run_protocol_trials,
)
from limpprob.rng import TrialStream
from test_trials import _distinct_triples, _regen_plan


def _placement(n, b_total, stream):
    return _distinct_triples(stream.uniforms(3 * b_total).reshape(-1, 3), n)


class TestGenPlacement:
    def test_deterministic(self):
        a = _placement(8, 100, TrialStream(77, 3))
        b = _placement(8, 100, TrialStream(77, 3))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _placement(8, 100, TrialStream(77, 4)))

    def test_preconditions(self):
        for n, b_total in ((4, 10), (10, 0), (7.5, 10), (10, 2.5), (10, True)):
            with pytest.raises(InvalidParamsError):
                run_protocol_trials(n, b_total, 1, master_seed=0)


class TestPlanRegeneration:
    def test_empty_scenario(self):
        # a trial whose one block avoids the crashed node regenerates nothing
        seed = next(s for s in range(100) if not _regen_plan(6, 1, TrialStream(s, 0)))
        est = run_protocol_trials(6, 1, 1, master_seed=seed)
        assert est[BLOCK_DEGRADE].trials == 0
        for metric in (NODE_DEGRADE, CLUSTER_DEGRADE, BLOCK_DEGRADE, ANY_BLOCK_DEGRADE):
            assert est[metric].successes == 0

    def test_deterministic(self):
        plan = _regen_plan(9, 50, TrialStream(11, 2))
        assert plan and plan == _regen_plan(9, 50, TrialStream(11, 2))
        assert plan != _regen_plan(9, 50, TrialStream(12, 2))
        assert run_protocol_trials(9, 50, 200, master_seed=11) == run_protocol_trials(9, 50, 200, master_seed=11)
