"""The heterogeneous-backend workload: one query, two text sources.

:func:`build_multibackend_scenario` stands up a complete two-backend
deployment over ONE synthetic corpus:

- a Boolean server (``"mercury"``) answering the Section 3 method space
  over ``title``/``author``;
- a vector server (``"vsim"``) ranking the ``abstract`` field by cosine
  similarity;
- a :class:`~repro.gateway.registry.BackendRegistry` binding each to its
  own calibrated constants and ledger (DESIGN invariant 15);
- a ``student`` relation planted Q4-style so the optimizer's choices are
  pinned: the Boolean half's advisor column probes profitably (a
  probe-based ``P(...)`` method wins), while the vector half's single
  distinct binding (the students' shared ``area``) makes one ranked
  search (``V-TOPK``) beat dumping the corpus (``V-SCAN``).

:func:`multibackend_report` runs the joint EXPLAIN + execution and
renders the per-backend attribution; ``benchmarks/bench_multibackend.py``
asserts on it and sweeps the binding count to show the V-TOPK → V-SCAN
crossover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.reporting import ascii_table
from repro.core.heterogeneous import (
    HeterogeneousJoinQuery,
    execute_heterogeneous,
    explain_heterogeneous,
    plan_heterogeneous,
)
from repro.core.joinmethods.base import JoinContext
from repro.core.query import (
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    VectorJoinPredicate,
)
from repro.gateway.costs import VECTOR_CONSTANTS
from repro.gateway.registry import BackendRegistry
from repro.relational.catalog import Catalog
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.textsys.vectorserver import VectorTextServer
from repro.workload.corpus import SyntheticCorpus
from repro.workload.scenarios import DEFAULT_CONSTANTS
from repro.workload.university import build_student_table
from repro.workload.vocabulary import reserved_pool

__all__ = [
    "MultibackendScenario",
    "build_multibackend_scenario",
    "multibackend_report",
]

#: The study areas whose words are planted into abstracts, so every
#: area binding has matchable vocabulary on the ranked field.
_AREA_TOPICS = {
    "distributed systems": 24,
    "databases": 18,
    "theory": 12,
}


@dataclass
class MultibackendScenario:
    """A two-backend deployment plus its canonical heterogeneous query."""

    catalog: Catalog
    store: DocumentStore
    registry: BackendRegistry
    boolean_name: str = "mercury"
    vector_name: str = "vsim"
    parameters: Dict[str, Any] = field(default_factory=dict)

    def boolean_context(self, **kwargs) -> JoinContext:
        """A context charging the Boolean backend's attributed ledger."""
        return JoinContext(
            self.catalog, self.registry.client(self.boolean_name, **kwargs)
        )

    def vector_context(self, **kwargs) -> JoinContext:
        """A context charging the vector backend's attributed ledger."""
        return JoinContext(
            self.catalog, self.registry.client(self.vector_name, **kwargs)
        )

    def query(
        self,
        top_k: Optional[int] = 5,
        threshold: float = 0.0,
        vector_column: str = "student.area",
    ) -> HeterogeneousJoinQuery:
        """The canonical joint query: Q4-style Boolean half + ranked half.

        Distributed-systems students who co-author with their advisors
        (Boolean: name and advisor in ``author``), ranked against
        abstracts similar to their study ``area`` (vector).  Pass
        ``vector_column="student.name"`` to flip the binding count from
        one to many — the V-SCAN regime the benchmark sweeps.
        """
        boolean = TextJoinQuery(
            relation="student",
            join_predicates=(
                TextJoinPredicate("student.advisor", "author"),
                TextJoinPredicate("student.name", "author"),
            ),
            relation_predicate=Comparison(
                "=", ColumnRef("student.area"), Literal("distributed systems")
            ),
            shape=ResultShape.TUPLES,
        )
        return HeterogeneousJoinQuery(
            boolean=boolean,
            vector=VectorJoinPredicate(
                vector_column, "abstract", top_k=top_k, threshold=threshold
            ),
        )


def build_multibackend_scenario(
    seed: int = 11, document_count: int = 300
) -> MultibackendScenario:
    """Build the two-backend deployment (deterministic per seed).

    Plantings (all exact, so the optimizer's choices are stable):

    - 14 distributed-systems students under 2 advisors; ONE advisor
      appears in the author field (selectivity ½, fanout 6), so probing
      the advisor column halves the substitution work — the probe-based
      methods win the Boolean half;
    - 4 of the students co-author with that advisor (the join result);
    - every study area's words are planted into a block of abstracts, so
      area bindings rank nonzero on the vector backend.
    """
    rng = random.Random(seed)
    corpus = SyntheticCorpus(document_count, seed=seed + 1)

    advisors = reserved_pool("mbadv", 2, rng)
    students = reserved_pool("mbstu", 14, rng)
    others = reserved_pool("mbbg", 40, rng)

    # The matched advisor's documents; the other advisor never publishes.
    advisor_docs = corpus.plant_phrase(advisors[0], "author", 6)
    # Co-authoring students: their names inside the advisor's documents.
    for name in students[:4]:
        corpus.plant_value(name, "author", advisor_docs[:2])
    # Background students publishing elsewhere (keeps name stats honest).
    for name in students[4:8]:
        corpus.plant_phrase(name, "author", 1)
    for name in others:
        corpus.plant_phrase(name, "author", 2)

    # Topic vocabulary on the ranked field: each area's words go into a
    # disjoint-ish block of abstracts so similarity search has signal.
    for area, block in _AREA_TOPICS.items():
        corpus.plant_phrase(area, "abstract", block)

    corpus.pad_authors(per_document=2)

    # Short forms carry the author (Boolean RTP methods) AND the
    # abstract (the V-SCAN corpus dump scores locally against it).
    store = corpus.build_store(
        short_fields=("title", "author", "year", "institution", "abstract")
    )

    catalog = Catalog()
    records = []
    for index, name in enumerate(students):
        advisor = advisors[index % 2]
        records.append(
            (name, "distributed systems", rng.randint(1, 6), advisor, "cs")
        )
    for index, name in enumerate(others):
        area = "databases" if index % 2 else "theory"
        records.append((name, area, rng.randint(1, 6), advisors[1], "ee"))
    build_student_table(catalog, records)

    registry = BackendRegistry()
    registry.register("mercury", BooleanTextServer(store), DEFAULT_CONSTANTS)
    registry.register("vsim", VectorTextServer(store, "abstract"), VECTOR_CONSTANTS)

    return MultibackendScenario(
        catalog=catalog,
        store=store,
        registry=registry,
        parameters={
            "advisors": advisors,
            "students": students,
            "matched_advisor": advisors[0],
            "coauthors": students[:4],
        },
    )


def multibackend_report(
    scenario: MultibackendScenario, vector_column: str = "student.area"
) -> Dict[str, Any]:
    """Plan, explain, execute, and attribute the joint query.

    Returns the EXPLAIN text, the plan, the execution, and the per-
    backend accounting table — everything the benchmark and the CI smoke
    step assert on.
    """
    scenario.registry.reset()
    query = scenario.query(vector_column=vector_column)
    boolean_context = scenario.boolean_context()
    vector_context = scenario.vector_context()
    plan = plan_heterogeneous(query, boolean_context, vector_context)
    explain = explain_heterogeneous(plan)
    execution = execute_heterogeneous(
        query, boolean_context, vector_context, plan=plan
    )
    rows: List[List[Any]] = []
    for name, report in scenario.registry.report().items():
        rows.append(
            [
                name,
                report["source_kind"],
                report["searches"],
                report["postings_processed"],
                report["short_documents"],
                report["rtp_documents"],
                round(report["total"], 3),
            ]
        )
    attribution = ascii_table(
        ["backend", "kind", "searches", "postings", "short", "rtp", "total s"],
        rows,
        title="Per-backend charge attribution (invariant 15)",
    )
    return {
        "scenario": scenario,
        "query": query,
        "plan": plan,
        "explain": explain,
        "execution": execution,
        "attribution": attribution,
        "registry_total": scenario.registry.total(),
    }
