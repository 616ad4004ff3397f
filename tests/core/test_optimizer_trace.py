"""Tests for the enumerator's decision trace — including Example 6.2.

"While determining the optimal plan for {student, faculty}, the
optimizer also considers the costs of {student', faculty},
{student, faculty'}, as well as {student', faculty'}, where student' and
faculty' designate relations reduced by probes."
"""

import pytest

from repro.core.optimizer.enumerate import optimize_multijoin
from repro.core.optimizer.estimator import PlanEstimator


@pytest.fixture(scope="module")
def traced(scenario):
    query = scenario.q5()
    estimator = PlanEstimator(query, scenario.context())
    return optimize_multijoin(query, estimator, space="prl")


class TestExample62:
    def test_all_four_probe_alternatives_considered(self, traced):
        """For {student, faculty} the enumerator weighed (a) the plain
        join, (b)/(c) each side probed, and (d) both sides probed."""
        decision = next(
            d for d in traced.trace if d.subset == {"student", "faculty"}
        )
        # (a) plain: a join signature with no probe at all.
        assert any(
            "probe" not in signature for signature, _ in decision.candidates
        )
        # (b) student reduced.
        signatures = [signature for signature, _ in decision.candidates]
        assert any("probe[student.name](student)" in s for s in signatures)
        # (c) faculty reduced.
        assert any("probe[faculty.name](faculty)" in s for s in signatures)
        # (d) both reduced: two probes in one candidate signature.
        assert any(
            signature.count("probe[") >= 2
            for signature, _ in decision.candidates
        )

    def test_winner_is_cheapest_candidate(self, traced):
        for decision in traced.trace:
            cheapest = min(decision.candidates, key=lambda pair: pair[1])
            assert decision.winner == cheapest[0]

    def test_trace_covers_every_decided_subset(self, traced):
        subsets = {decision.subset for decision in traced.trace}
        # In the PrL space Q5's text node must follow BOTH text-predicate
        # relations, so the only decidable subsets are {student, faculty}
        # and the full set.
        assert len(subsets) == 2
        assert frozenset({"student", "faculty"}) in subsets
