"""Golden planning guard: every ranked list and plan the optimizer
produces for the seed-7 default scenario, pinned bit for bit.

``planning_golden.json`` was recorded at the commit *before* the method
space moved into one table (``PYTHONPATH=src:. python
tests/core/test_planning_golden.py`` rewrites it — only ever do that on
purpose).  A refactor of the planners
must reproduce names, order, ``repr(estimate.total)`` and the
enumerator's counters exactly; a change that means to move a ranking has
to re-record and say so.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.multibackend import build_multibackend_scenario
from repro.core.heterogeneous import plan_heterogeneous
from repro.core.inputs import build_cost_inputs
from repro.core.optimizer import (
    PlanEstimator,
    enumerate_method_choices,
    optimize_multijoin,
)
from repro.core.optimizer.plan import plan_signature
from repro.core.query import ResultShape
from repro.workload import build_default_scenario

from tests.conftest import scenario_context

FIXTURE = Path(__file__).with_name("planning_golden.json")
QUERIES = ("q1", "q2", "q3", "q4")
SHAPES = (ResultShape.PAIRS, ResultShape.DOCIDS, ResultShape.TUPLES)
BATCH_LIMITS = (None, 50)
SPACES = ("traditional", "prl", "extended", "bushy")


def _ranked(choices):
    return [[choice.name, repr(choice.estimate.total)] for choice in choices]


def compute_golden() -> dict:
    scenario = build_default_scenario(seed=7)
    single = {}
    multijoin = {}
    for batch_limit in BATCH_LIMITS:
        for qid in QUERIES:
            for shape in SHAPES:
                query = scenario.query(qid).with_shape(shape)
                inputs = build_cost_inputs(
                    query, scenario_context(scenario, batch_limit)
                )
                single[f"{qid}/{shape.value}/batch={batch_limit}"] = _ranked(
                    enumerate_method_choices(query, inputs)
                )
        q5 = scenario.q5()
        for space in SPACES:
            estimator = PlanEstimator(q5, scenario_context(scenario, batch_limit))
            optimized = optimize_multijoin(q5, estimator, space=space)
            multijoin[f"q5/{space}/batch={batch_limit}"] = {
                "plan_signature": plan_signature(optimized.plan),
                "estimated_cost": repr(optimized.estimated_cost),
                "join_tasks": optimized.join_tasks,
                "plans_considered": optimized.plans_considered,
                "subsets_enumerated": optimized.subsets_enumerated,
            }
    multibackend = build_multibackend_scenario()
    plan = plan_heterogeneous(
        multibackend.query(),
        multibackend.boolean_context(),
        multibackend.vector_context(),
    )
    return {
        "single_join": single,
        "multijoin": multijoin,
        "multibackend": {
            "boolean": _ranked(plan.boolean_choices),
            "vector": _ranked(plan.vector_choices),
        },
    }


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute_golden()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("section", ["single_join", "multijoin", "multibackend"])
def test_planning_matches_the_recorded_parent(computed, golden, section):
    assert computed[section].keys() == golden[section].keys()
    for key, expected in golden[section].items():
        assert computed[section][key] == expected, key


def test_golden_covers_the_whole_grid(golden):
    assert len(golden["single_join"]) == (
        len(QUERIES) * len(SHAPES) * len(BATCH_LIMITS)
    )
    assert len(golden["multijoin"]) == len(SPACES) * len(BATCH_LIMITS)
    assert all(golden["multibackend"].values())


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
