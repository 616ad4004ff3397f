"""The method space as data: what the optimizer enumerates is exactly
what applies, at plan time and at run time alike.

For every configured method a table row offers — one per plain row, one
per candidate probe-column set for a probing row — *enumerated ⇔
applies*; the rule gives the same verdict against the cost inputs and
against the client; and every enumerated choice executes and agrees with
tuple substitution.  (``test_rtp_applicability`` runs the same check with
a field hidden from the short form.)
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import TupleSubstitution
from repro.core.optimizer.single_join import (
    METHOD_SPACES,
    enumerate_method_choices,
)
from repro.core.probe_select import candidate_probe_sets
from repro.core.query import ResultShape

from tests.conftest import scenario_context


def configured_methods(entry, text_query, inputs):
    if entry.probe_variant is None:
        return [entry.factory(text_query, inputs)]
    return [
        entry.factory(columns)
        for columns in candidate_probe_sets(text_query, inputs.g)
    ]


def check_method_space(text_query, make_context):
    inputs = build_cost_inputs(text_query, make_context())
    choices = enumerate_method_choices(text_query, inputs)
    enumerated = [choice.name for choice in choices]
    assert len(set(enumerated)) == len(enumerated)
    assert all(choice.method.name == choice.name for choice in choices)

    client = make_context().client
    offered = set()
    for entry in METHOD_SPACES["boolean"]:
        methods = configured_methods(entry, text_query, inputs)
        applying = {m.name for m in methods if m.applies(text_query, inputs)}
        # One rule, two readers: plan time and run time cannot disagree.
        assert applying == {m.name for m in methods if m.applies(text_query, client)}
        chosen = set(enumerated) & {method.name for method in methods}
        assert chosen <= applying
        if entry.probe_variant is None:
            assert chosen == applying
        else:
            # A probing row contributes its one optimal column set.
            assert len(chosen) == (1 if applying else 0)
        offered |= {method.name for method in methods}
    assert set(enumerated) <= offered

    reference = TupleSubstitution().execute(text_query, make_context())
    for choice in choices:
        execution = choice.method.execute(text_query, make_context())
        assert execution.result_keys() == reference.result_keys(), choice.name
    return enumerated


def _shaped(query, shape):
    return replace(
        query, shape=shape, long_form=query.long_form and shape is ResultShape.PAIRS
    )


@pytest.mark.parametrize("batch_limit", [None, 50])
@pytest.mark.parametrize("shape", list(ResultShape), ids=lambda s: s.value)
@pytest.mark.parametrize("query_id", ["q1", "q2", "q3", "q4"])
def test_enumerated_iff_applies_on_the_default_scenario(
    scenario, query_id, shape, batch_limit
):
    enumerated = check_method_space(
        _shaped(scenario.query(query_id), shape),
        lambda: scenario_context(scenario, batch_limit),
    )
    assert ("B+TS" in enumerated) == (batch_limit is not None)
