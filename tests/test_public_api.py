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
