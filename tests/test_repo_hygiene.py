"""Repository hygiene: no build artefacts under version control.

PR 6 accidentally committed ``__pycache__`` bytecode; this test (and the
matching CI step) keeps that from regressing.  Bytecode is
interpreter-version-specific binary noise — it churns every diff and can
shadow real source changes on import.
"""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files():
    proc = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return probe.returncode == 0 and probe.stdout.strip() == "true"


@pytest.mark.skipif(
    not _in_git_checkout(), reason="not running from a git checkout"
)
def test_no_tracked_bytecode():
    offenders = [
        name
        for name in _tracked_files()
        if name.endswith((".pyc", ".pyo")) or "__pycache__" in name.split("/")
    ]
    assert offenders == [], (
        "compiled bytecode is tracked by git; "
        "run `git rm --cached` on: " + ", ".join(offenders)
    )


@pytest.mark.skipif(
    not _in_git_checkout(), reason="not running from a git checkout"
)
def test_gitignore_covers_bytecode():
    gitignore = (REPO_ROOT / ".gitignore").read_text().splitlines()
    assert "__pycache__/" in gitignore
    assert any(line in ("*.pyc", "*.py[cod]") for line in gitignore)


#: The members of ``repro.textsys.source.TextSource`` plus the
#: in-process attributes callers used to reach for past the contract.
CONTRACT_MEMBERS = {
    "search_batch",
    "batch_limit",
    "retrieve_many",
    "drain_accounting",
    "data_version",
    "data_fingerprint",
    "source_kind",
    "document_count",
    "term_limit",
    "field_names",
    "short_fields",
    "store",
    "index",
    "engine_mode",
}


def test_no_capability_probing():
    """A source publishes its capabilities; callers read them.

    ``getattr(server, "search_batch", None)``-style discovery is how the
    contract came to be re-declared in every caller, so any
    ``getattr``/``hasattr`` naming a contract member fails here.
    """
    offenders = []
    for package in ("core", "gateway", "serving", "remote"):
        for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in CONTRACT_MEMBERS
                ):
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno} "
                        f"{node.func.id}(..., {node.args[1].value!r})"
                    )
    assert offenders == [], "capability probes:\n" + "\n".join(offenders)


def test_core_never_imports_the_text_engine():
    """The database side reaches the text system through ``search`` /
    ``retrieve`` only (Section 2.3).  ``repro.textsys.engine`` holds the
    server's evaluators — ``matches_document`` is the *test oracle* —
    so nothing under ``core/`` may import it, by either spelling."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "core").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if "repro.textsys.engine" in modules:
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert offenders == [], "core imports the text engine:\n" + "\n".join(offenders)


def test_core_never_reaches_past_the_client():
    """Planning and execution talk to the text source through
    ``TextClient`` only — statistics reads included — so every frame is
    settled, traced and fault-injectable in one place.  Any ``.server``
    attribute access under ``core/`` is a reach-around."""
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "core").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "server":
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert offenders == [], "core reaches past the client:\n" + "\n".join(offenders)


def test_router_never_calls_the_codec():
    """Every codec call is made from ``remote/transport.py`` or
    ``remote/endpoint.py``, where the benchmark's tracer times the
    codec functions those modules import by name; a codec function
    imported into the router would run untimed, so it imports none."""
    path = REPO_ROOT / "src" / "repro" / "remote" / "router.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        if any(module.startswith("repro.remote.codec") for module in modules):
            offenders.append(f"router.py:{node.lineno}")
    assert offenders == [], "the router imports the codec:\n" + "\n".join(offenders)


#: Files whose loops run a predicate per tuple: they bind it once
#: (``Expression.bind``) and call the bound function instead.
PER_TUPLE_FILES = (
    "relational/operators.py",
    "relational/table.py",
    "core/executor.py",
    "core/joinmethods/base.py",
    "core/optimizer/estimator.py",
)
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def test_no_per_row_evaluate():
    """``expression.evaluate(row)`` re-binds (resolves every column name)
    per call; inside a loop over tuples it is the per-row cost that
    binding once per operator removed."""
    offenders = []
    for name in PER_TUPLE_FILES:
        path = REPO_ROOT / "src" / "repro" / name
        for loop in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(loop, LOOPS):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "evaluate"
                ):
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == [], "per-row evaluate:\n" + "\n".join(sorted(set(offenders)))
