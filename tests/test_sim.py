from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limpprob import (
    InvalidParamsError,
    Placement,
    PlanMismatchError,
    RegenPlan,
    TrialStream,
    classify_outcome,
    enum_slow_dest_prob,
    gen_placement,
    make_scenario,
    plan_regeneration,
)


def _placement(n, rows):
    return Placement(n=n, replicas=np.array(rows, dtype=np.int64))


class TestGenPlacement:
    def test_shape_and_distinctness(self):
        placement = gen_placement(5, 1, TrialStream(123, 0))
        assert placement.b_total == 1
        replicas = set(placement.replicas[0].tolist())
        assert len(replicas) == 3
        assert replicas <= {0, 1, 2, 3, 4}

    def test_rows_sorted_and_distinct_in_bulk(self):
        placement = gen_placement(9, 5000, TrialStream(5, 0))
        rows = placement.replicas
        assert (rows[:, 0] < rows[:, 1]).all() and (rows[:, 1] < rows[:, 2]).all()
        assert rows.min() >= 0 and rows.max() < 9

    def test_deterministic(self):
        a = gen_placement(8, 100, TrialStream(77, 3))
        b = gen_placement(8, 100, TrialStream(77, 3))
        assert np.array_equal(a.replicas, b.replicas)

    def test_slow_membership_frequency(self):
        # a fixed node appears in a replica set with frequency 3/n
        placement = gen_placement(10, 100_000, TrialStream(2024, 0))
        freq = (placement.replicas == 1).any(axis=1).mean()
        assert abs(freq - 0.3) <= 0.005

    def test_all_subsets_reached(self):
        placement = gen_placement(5, 4000, TrialStream(9, 0))
        seen = {tuple(row) for row in placement.replicas.tolist()}
        assert len(seen) == 10  # C(5,3)

    def test_preconditions(self):
        with pytest.raises(InvalidParamsError):
            gen_placement(4, 10, TrialStream(0, 0))
        with pytest.raises(InvalidParamsError):
            gen_placement(10, 0, TrialStream(0, 0))


class TestMakeScenario:
    def test_no_block_on_crashed(self):
        placement = _placement(6, [[1, 2, 3], [2, 4, 5]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        assert scenario.lost_blocks.size == 0

    def test_every_block_on_crashed(self):
        placement = _placement(6, [[0, 2, 3], [0, 4, 5]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        assert list(scenario.lost_blocks) == [0, 1]
        assert scenario.live_holders().tolist() == [[2, 3], [4, 5]]

    def test_lost_count_concentrates(self):
        placement = gen_placement(10, 1000, TrialStream(31337, 0))
        scenario = make_scenario(placement, crashed=0, slow=1)
        assert abs(scenario.lost_blocks.size - 300) <= 30

    def test_bad_ids(self):
        placement = _placement(6, [[0, 2, 3]])
        with pytest.raises(InvalidParamsError):
            make_scenario(placement, crashed=2, slow=2)
        with pytest.raises(InvalidParamsError):
            make_scenario(placement, crashed=6, slow=1)
        with pytest.raises(InvalidParamsError):
            make_scenario(placement, crashed=0, slow=-1)


def _assert_plan_valid(scenario, plan):
    holders = scenario.live_holders()
    for row, (h1, h2) in enumerate(holders.tolist()):
        source = int(plan.sources[row])
        dest = int(plan.dests[row])
        assert source in (h1, h2)
        assert source != scenario.crashed
        assert dest not in (h1, h2)
        assert dest != scenario.crashed
        assert dest != source
        assert 0 <= dest < scenario.n


class TestPlanRegeneration:
    def test_empty_scenario(self):
        placement = _placement(6, [[1, 2, 3]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        plan = plan_regeneration(scenario, TrialStream(1, 0))
        assert plan.block_ids.size == plan.sources.size == plan.dests.size == 0
        outcome = classify_outcome(scenario, plan)
        assert outcome.degraded_block_count == 0

    def test_destination_always_in_eligible_pool(self):
        # at n=5 a lost block leaves exactly n-3 = 2 eligible destinations
        placement = _placement(5, [[0, 2, 3], [0, 1, 4]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        for seed in range(40):
            plan = plan_regeneration(scenario, TrialStream(seed, 0))
            _assert_plan_valid(scenario, plan)
            assert int(plan.dests[0]) in (1, 4)
            assert int(plan.dests[1]) in (2, 3)

    def test_deterministic(self):
        placement = gen_placement(9, 50, TrialStream(4, 2))
        scenario = make_scenario(placement, crashed=0, slow=1)
        p1 = plan_regeneration(scenario, TrialStream(11, 2))
        p2 = plan_regeneration(scenario, TrialStream(11, 2))
        assert np.array_equal(p1.sources, p2.sources)
        assert np.array_equal(p1.dests, p2.dests)

    def test_single_stage_frequencies_match_exact_oracle(self):
        # replay many trials at n=10 and check the two conditional laws the
        # enumeration certifies: dest hits the slow node 1/(n-3) of the time
        # when it holds no replica, and the non-source holder is the slow
        # node 1/(n-2) of the time given a good source
        n, slow = 10, 1
        dest_hits = dest_count = 0
        other_hits = other_count = 0
        for trial in range(2000):
            stream = TrialStream(99, trial)
            placement = gen_placement(n, 30, stream)
            scenario = make_scenario(placement, crashed=0, slow=slow)
            plan = plan_regeneration(scenario, stream)
            holders = scenario.live_holders()
            for (h1, h2), source, dest in zip(
                holders.tolist(), plan.sources.tolist(), plan.dests.tolist()
            ):
                if slow not in (h1, h2):
                    dest_count += 1
                    dest_hits += dest == slow
                if source != slow:
                    other_count += 1
                    other_hits += (h1 if source == h2 else h2) == slow
        assert dest_count > 10_000 and other_count > 10_000
        assert abs(dest_hits / dest_count - float(Fraction(1, n - 3))) <= 0.01
        assert abs(other_hits / other_count - float(enum_slow_dest_prob(n))) <= 0.01


class TestClassifyOutcome:
    def test_no_tasks_to_slow(self):
        placement = _placement(6, [[0, 2, 3], [0, 4, 5]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        plan = RegenPlan(
            block_ids=scenario.lost_blocks,
            sources=np.array([2, 4]),
            dests=np.array([4, 3]),
        )
        outcome = classify_outcome(scenario, plan)
        assert outcome.degraded_nodes == frozenset()
        assert not outcome.cluster_degraded
        assert outcome.degraded_block_count == 0
        assert outcome.degraded_block_case_counts == (0, 0)

    def test_two_tasks_to_slow_degrade_their_source(self):
        # one good node sends both its copies to the slow node: it alone degrades
        placement = _placement(5, [[0, 2, 3], [0, 2, 4]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        plan = RegenPlan(
            block_ids=scenario.lost_blocks,
            sources=np.array([2, 2]),
            dests=np.array([1, 1]),
        )
        outcome = classify_outcome(scenario, plan)
        assert outcome.degraded_nodes == frozenset({2})
        assert not outcome.cluster_degraded

    def test_block_with_copy_on_slow_and_degraded_node(self):
        # holders {slow, degraded good node}: counts as the slow-copy case
        placement = _placement(5, [[0, 2, 3], [0, 2, 4], [0, 1, 2]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        plan = RegenPlan(
            block_ids=scenario.lost_blocks,
            sources=np.array([2, 2, 2]),
            dests=np.array([1, 1, 3]),
        )
        outcome = classify_outcome(scenario, plan)
        assert outcome.degraded_nodes == frozenset({2})
        assert outcome.degraded_block_count == 1
        assert outcome.degraded_block_case_counts == (0, 1)

    def test_block_with_both_copies_on_degraded_nodes(self):
        placement = _placement(6, [[0, 2, 3], [0, 2, 4], [0, 3, 5], [0, 3, 4], [0, 2, 3]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        plan = RegenPlan(
            block_ids=scenario.lost_blocks,
            sources=np.array([2, 2, 3, 3, 4]),
            dests=np.array([1, 1, 1, 1, 5]),
        )
        outcome = classify_outcome(scenario, plan)
        assert outcome.degraded_nodes == frozenset({2, 3})
        # block 0 and block 4 have holders {2, 3}, both degraded
        assert outcome.degraded_block_case_counts == (2, 0)

    def test_cluster_degraded_when_all_good_nodes_are(self):
        placement = _placement(
            5, [[0, 2, 3], [0, 2, 4], [0, 3, 4], [0, 2, 3], [0, 3, 4], [0, 2, 4]]
        )
        scenario = make_scenario(placement, crashed=0, slow=1)
        plan = RegenPlan(
            block_ids=scenario.lost_blocks,
            sources=np.array([2, 2, 3, 3, 4, 4]),
            dests=np.array([1, 1, 1, 1, 1, 1]),
        )
        outcome = classify_outcome(scenario, plan)
        assert outcome.degraded_nodes == frozenset({2, 3, 4})
        assert outcome.cluster_degraded

    def test_plan_mismatch_rejected(self):
        placement = _placement(6, [[0, 2, 3], [0, 4, 5]])
        scenario = make_scenario(placement, crashed=0, slow=1)
        plan = RegenPlan(block_ids=np.array([0]), sources=np.array([2]), dests=np.array([1]))
        with pytest.raises(PlanMismatchError):
            classify_outcome(scenario, plan)


@given(
    n=st.integers(min_value=5, max_value=12),
    b_total=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32),
    ids=st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11)),
)
@settings(max_examples=200, deadline=None)
def test_random_scenarios_produce_valid_plans_and_outcomes(n, b_total, seed, ids):
    crashed, slow = ids[0] % n, ids[1] % n
    if crashed == slow:
        slow = (slow + 1) % n
    stream = TrialStream(seed, 0)
    placement = gen_placement(n, b_total, stream)
    scenario = make_scenario(placement, crashed, slow)
    plan = plan_regeneration(scenario, stream)
    _assert_plan_valid(scenario, plan)
    outcome = classify_outcome(scenario, plan)
    good = set(range(n)) - {crashed, slow}
    assert outcome.degraded_nodes <= good
    assert outcome.cluster_degraded == (outcome.degraded_nodes == good)
    assert 0 <= outcome.degraded_block_count <= scenario.lost_blocks.size
    assert sum(outcome.degraded_block_case_counts) == outcome.degraded_block_count
