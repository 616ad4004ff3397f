"""Public-API stability: every exported name resolves and is importable
from its documented location."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.relational",
    "repro.textsys",
    "repro.gateway",
    "repro.core",
    "repro.core.joinmethods",
    "repro.core.optimizer",
    "repro.workload",
    "repro.bench",
    "repro.remote",
    "repro.serving",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


def test_top_level_surface():
    import repro

    # The names the README quickstart leans on.
    for name in (
        "TextJoinQuery",
        "TupleSubstitution",
        "JoinContext",
        "TextClient",
        "Catalog",
        "BooleanTextServer",
        "build_cost_inputs",
        "choose_join_method",
        "optimize_multijoin",
        "execute_plan",
    ):
        assert hasattr(repro, name)
    assert repro.__version__ == "1.0.0"


def test_text_source_contract_surface():
    """The contract is public; what it replaced is gone."""
    from repro import gateway, textsys

    assert textsys.TextSource is importlib.import_module(
        "repro.textsys.source"
    ).TextSource
    for module, name in (
        (textsys, "BatchingTextServer"),
        (gateway, "SearchCall"),
        (gateway.TextClient, "call_log"),
    ):
        assert not hasattr(module, name), name


def test_one_estimate_record_surface():
    """Every estimate-vs-actual pair is an ``EstimateRecord``; the shapes
    it replaced are gone."""
    from repro import core
    from repro.core import feedback

    assert core.EstimateRecord is feedback.EstimateRecord
    for module, name in (
        (core, "NodeActual"),
        (feedback.FeedbackStore, "observe_method"),
        (feedback.FeedbackStore, "record_event"),
        (feedback, "MAX_EVENTS"),
        (feedback, "MAX_METHOD_RUNS"),
    ):
        assert not hasattr(module, name), name


def test_relational_substrate_surface():
    """The relational engine keeps what a plan executes; what no entry
    point reached is gone, exports included."""
    from repro import core, gateway, relational, textsys, workload

    assert set(relational.__all__) >= {
        "Catalog", "Schema", "DataType", "MaterializedInput", "NestedLoopJoin",
    }
    for module, name in (
        (relational, "HashJoin"),
        (relational, "GroupBy"),
        (relational, "HashIndex"),
        (relational, "load_table_csv"),
        (relational, "collect_table_statistics"),
        (relational, "Like"),
        (workload, "save_scenario"),
        (core.joinmethods, "rtp_match"),
        (gateway, "CorrelationModel"),
        (textsys, "intersect_many"),
    ):
        assert not hasattr(module, name), name


def test_unset_settings_are_gone():
    """A value no entry point sets is a constant, not a parameter: the
    28 settings only tests ever passed stay out of every signature."""
    import dataclasses
    import inspect

    from repro import remote, textsys
    from repro.bench.multibackend import multibackend_report
    from repro.core.adaptive import execute_adaptively
    from repro.core.explain import explain_query
    from repro.core.heterogeneous import execute_heterogeneous
    from repro.core.inputs import build_cost_inputs, predicate_statistics
    from repro.core.joinmethods import JoinContext, ProbeTupleSubstitution
    from repro.gateway.inflight import InflightSearchTable
    from repro.remote.resilience import CircuitBreaker
    from repro.remote.router import build_sharded_transport
    from repro.remote.transport import RemoteTextTransport
    from repro.serving import QueryService
    from repro.textsys.sharding import partition_store

    gone = {
        build_cost_inputs: {"exact", "sample_size", "rng"},
        predicate_statistics: {"exact", "sample_size", "rng"},
        execute_adaptively: {"reoptimize", "max_reoptimizations"},
        partition_store: {"scheme"},
        build_sharded_transport: {"scheme", "batch_frame_size"},
        RemoteTextTransport: {"batch_frame_size"},
        QueryService: {"max_share_batch"},
        InflightSearchTable: {"max_batch"},
        CircuitBreaker: {"half_open_probes"},
        explain_query: {"feedback", "fingerprint"},
        ProbeTupleSubstitution: {"exploit_grouping"},
        execute_heterogeneous: {"registry", "g"},
        multibackend_report: {"top_k"},
    }
    for function, names in gone.items():
        parameters = set(inspect.signature(function).parameters)
        assert not parameters & names, (function.__name__, parameters & names)
    fields = {field.name for field in dataclasses.fields(JoinContext)}
    assert "degradation" not in fields
    for module, name in (
        (remote, "DegradationPolicy"),
        (remote, "install_transport"),
        (textsys, "PARTITION_SCHEMES"),
    ):
        assert not hasattr(module, name), name


def test_one_method_space_surface():
    """Vector strategies are rows of the one method-space table, ranked
    by the one enumerator into the one ``MethodChoice``."""
    from repro import core
    from repro.core import heterogeneous
    from repro.core.optimizer import single_join

    for module in (core, heterogeneous):
        for name in (
            "VectorMethodChoice",
            "enumerate_vector_choices",
            "choose_vector_strategy",
        ):
            assert not hasattr(module, name), name
    assert set(single_join.METHOD_SPACES) == {"boolean", "vector"}
    assert "enable_probes" not in (
        core.optimize_multijoin.__code__.co_varnames
    )


def test_core_extension_surface():
    from repro import core

    for name in (
        "parse_query",
        "render_query",
        "explain_query",
        "execute_adaptively",
        "BatchedTupleSubstitution",
    ):
        assert hasattr(core, name)


def test_no_import_cycles_under_fresh_import():
    """Importing any subpackage first must not blow up on cycles."""
    import subprocess
    import sys

    for package_name in PACKAGES:
        result = subprocess.run(
            [sys.executable, "-c", f"import {package_name}"],
            capture_output=True,
        )
        assert result.returncode == 0, (
            package_name,
            result.stderr.decode()[:500],
        )
