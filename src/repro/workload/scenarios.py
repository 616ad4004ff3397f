"""The canonical experimental setup: the paper's queries Q1–Q5.

:func:`build_default_scenario` constructs a complete integrated system —
synthetic Mercury-like corpus, university relational database, Boolean
text server — with statistics *planted* so that each query lands in the
regime the paper reports (Table 2):

- **Q1** (senior AI students × 'belief update' titles): the text
  selection is highly selective, so RTP beats SJ+RTP (which pays extra
  invocations once the disjunction spills over the term limit) and both
  crush TS.
- **Q2** (Garcia's students × 'text' titles, docids only): the selection
  is *not* selective, so RTP drowns in shipped documents; the semi-join
  wins with a couple of invocations.
- **Q3** (NSF projects: name-in-title and member-in-author): two join
  predicates, a selective but high-fanout probing column — P+TS wins,
  SJ+RTP second, P+RTP pays document shipping, TS pays invocations.
- **Q4** (distributed-systems students co-authoring with advisors):
  s₁ = 1 on the advisor column (probing for TS is useless — P+TS is the
  *worst*), but the advisors' few documents make P+RTP the winner.
- **Q5** (student × faculty × mercury, Example 6.1): the multi-join
  query whose optimal plan probes ``student`` before the relational
  join — a PrL tree outside the traditional left-deep space.

All randomness is seeded; the same seed reproduces the same corpus,
tables and statistics exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.joinmethods.base import JoinContext
from repro.errors import WorkloadError
from repro.core.optimizer.multiquery import MultiJoinQuery, RelationalJoinPredicate
from repro.core.query import (
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
)
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.costs import CostConstants
from repro.gateway.tracing import CallTracer
from repro.relational.catalog import Catalog
from repro.relational.expressions import And, ColumnRef, Comparison, Literal
from repro.textsys.server import BooleanTextServer
from repro.workload.corpus import SyntheticCorpus
from repro.workload.university import (
    build_faculty_table,
    build_project_table,
    build_student_table,
)
from repro.workload.vocabulary import reserved_pool

__all__ = [
    "Scenario",
    "build_default_scenario",
    "build_prl_scenario",
    "build_chain_scenario",
    "DEFAULT_CONSTANTS",
]

#: Cost constants for the default scenario.  c_i, c_p, c_s, c_l are the
#: paper's calibrated OpenODB↔Mercury values; c_a (never published) is
#: set to 50 ms per document-tuple comparison, consistent with OSQL
#: foreign-function string matching of the era and with the relative
#: magnitudes in Table 2 (see EXPERIMENTS.md).
DEFAULT_CONSTANTS = CostConstants(
    invocation=3.0,
    per_posting=0.00001,
    short_form=0.015,
    long_form=4.0,
    rtp_per_document=0.05,
)


@dataclass
class Scenario:
    """A fully built integrated system plus the canonical queries."""

    catalog: Catalog
    server: BooleanTextServer
    constants: CostConstants = field(default_factory=lambda: DEFAULT_CONSTANTS)
    #: Planted workload parameters, keyed by query id ("q1".."q5").
    parameters: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: When set, every fresh client shares this gateway cache (opt-in:
    #: None keeps the paper-calibrated accounting bit-identical).
    shared_cache: Optional[GatewayCache] = None
    #: When set, every fresh client appends spans to this tracer.
    shared_tracer: Optional[CallTracer] = None

    def client(
        self,
        cache: Optional[GatewayCache] = None,
        tracer: Optional[CallTracer] = None,
    ) -> TextClient:
        """A fresh metered client (fresh cost ledger) on the shared server."""
        return TextClient(
            self.server,
            constants=self.constants,
            cache=cache if cache is not None else self.shared_cache,
            tracer=tracer if tracer is not None else self.shared_tracer,
        )

    def context(
        self,
        cache: Optional[GatewayCache] = None,
        tracer: Optional[CallTracer] = None,
    ) -> JoinContext:
        """A fresh execution context (new client, shared catalog)."""
        return JoinContext(
            self.catalog,
            self.client(cache=cache, tracer=tracer),
        )

    # ------------------------------------------------------------------
    # the canonical queries
    # ------------------------------------------------------------------
    def q1(self, long_form: bool = True) -> TextJoinQuery:
        """Q1: senior AI students joined on author with 'belief update' titles."""
        return TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("belief update", "title"),),
            relation_predicate=And(
                (
                    Comparison("=", ColumnRef("student.area"), Literal("AI")),
                    Comparison(">", ColumnRef("student.year"), Literal(3)),
                )
            ),
            shape=ResultShape.PAIRS,
            long_form=long_form,
        )

    def q2(self) -> TextJoinQuery:
        """Q2: docids of 'text'-titled reports authored by Garcia's students."""
        return TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("text", "title"),),
            relation_predicate=Comparison(
                "=", ColumnRef("student.advisor"), Literal(self.parameters["q2"]["advisor"])
            ),
            shape=ResultShape.DOCIDS,
        )

    def q3(self) -> TextJoinQuery:
        """Q3: NSF projects — project name in title, member in author."""
        return TextJoinQuery(
            relation="project",
            join_predicates=(
                TextJoinPredicate("project.name", "title"),
                TextJoinPredicate("project.member", "author"),
            ),
            relation_predicate=Comparison(
                "=", ColumnRef("project.sponsor"), Literal("NSF")
            ),
            shape=ResultShape.PAIRS,
        )

    def q4(self) -> TextJoinQuery:
        """Q4: distributed-systems students co-authoring with their advisors."""
        return TextJoinQuery(
            relation="student",
            join_predicates=(
                TextJoinPredicate("student.advisor", "author"),
                TextJoinPredicate("student.name", "author"),
            ),
            relation_predicate=Comparison(
                "=", ColumnRef("student.area"), Literal("distributed systems")
            ),
            shape=ResultShape.PAIRS,
        )

    def q5(self) -> MultiJoinQuery:
        """Q5 (Example 6.1): student-faculty cross-department co-authorship."""
        return MultiJoinQuery(
            relations=("student", "faculty"),
            text_predicates=(
                TextJoinPredicate("student.name", "author"),
                TextJoinPredicate("faculty.name", "author"),
            ),
            text_selections=(TextSelection("may 1993", "year"),),
            join_predicates=(
                RelationalJoinPredicate(
                    Comparison(
                        "!=", ColumnRef("faculty.dept"), ColumnRef("student.dept")
                    ),
                    ("faculty", "student"),
                ),
            ),
            text_source="mercury",
        )

    def query(self, query_id: str) -> Any:
        """Look up a canonical query by id ('q1'..'q5')."""
        return getattr(self, query_id)()


def build_default_scenario(
    seed: int = 7, document_count: int = 4000
) -> Scenario:
    """Build the full Table-2 scenario (corpus + tables + plantings)."""
    rng = random.Random(seed)
    corpus = SyntheticCorpus(document_count, seed=seed + 1)
    catalog = Catalog()
    parameters: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # value pools
    # ------------------------------------------------------------------
    student_names = reserved_pool("stu", 330, rng)
    ds_advisors = reserved_pool("dsadv", 2, rng)
    other_advisors = reserved_pool("adv", 8, rng)
    garcia = other_advisors[0]
    faculty_names = reserved_pool("fac", 20, rng)
    nsf_project_names = reserved_pool("prj", 12, rng)
    darpa_project_names = reserved_pool("dpr", 8, rng)
    member_names = reserved_pool("mem", 133, rng)

    # ------------------------------------------------------------------
    # student table: 330 students
    #   - 160 AI (80 of them senior: year > 3)        -> Q1
    #   - 14 distributed systems, 2 advisors           -> Q4
    #   - 100 databases, 56 theory
    #   - 17 students (outside DS) advised by Garcia   -> Q2
    # ------------------------------------------------------------------
    depts = ("cs", "ee", "me")
    records: List[Tuple[str, str, int, str, str]] = []
    name_iter = iter(student_names)

    senior_ai: List[str] = []
    for index in range(160):
        name = next(name_iter)
        year = rng.randint(4, 6) if index < 80 else rng.randint(1, 3)
        if index < 80:
            senior_ai.append(name)
        records.append(
            (name, "AI", year, rng.choice(other_advisors), rng.choice(depts))
        )

    ds_students: List[Tuple[str, str]] = []  # (student, advisor)
    for index in range(14):
        name = next(name_iter)
        advisor = ds_advisors[index % 2]
        ds_students.append((name, advisor))
        records.append(
            (name, "distributed systems", rng.randint(1, 6), advisor, rng.choice(depts))
        )

    for index in range(100):
        name = next(name_iter)
        records.append(
            (name, "databases", rng.randint(1, 6), rng.choice(other_advisors), rng.choice(depts))
        )
    for index in range(56):
        name = next(name_iter)
        records.append(
            (name, "theory", rng.randint(1, 6), rng.choice(other_advisors), rng.choice(depts))
        )

    # Reassign exactly 17 non-DS students to Garcia.
    non_ds_indexes = [
        i for i, record in enumerate(records) if record[1] != "distributed systems"
    ]
    garcia_indexes = rng.sample(non_ds_indexes, 17)
    garcia_students: List[str] = []
    for i, record in enumerate(records):
        name, area, year, advisor, dept = record
        if i in set(garcia_indexes):
            advisor = garcia
            garcia_students.append(name)
        elif advisor == garcia and area != "distributed systems":
            advisor = other_advisors[1]
        records[i] = (name, area, year, advisor, dept)

    build_student_table(catalog, records)

    # ------------------------------------------------------------------
    # faculty table (Q5): 20 faculty across departments
    # ------------------------------------------------------------------
    faculty_records = [(name, rng.choice(depts)) for name in faculty_names]
    build_faculty_table(catalog, faculty_records)

    # ------------------------------------------------------------------
    # project table (Q3): 12 NSF projects x ~9 members = 109 NSF rows,
    # plus 8 DARPA projects x 3 members.
    # ------------------------------------------------------------------
    member_iter = iter(member_names)
    memberships: List[Tuple[str, str, str]] = []
    project_members: Dict[str, List[str]] = {}
    for index, project in enumerate(nsf_project_names):
        count = 10 if index == 0 else 9
        members = [next(member_iter) for _ in range(count)]
        project_members[project] = members
        for member in members:
            memberships.append((project, "NSF", member))
    for project in darpa_project_names:
        members = [next(member_iter) for _ in range(3)]
        project_members[project] = members
        for member in members:
            memberships.append((project, "DARPA", member))
    build_project_table(catalog, memberships)

    # ------------------------------------------------------------------
    # corpus plantings
    # ------------------------------------------------------------------
    # Background: a quarter of all student names appear as authors.
    corpus.plant_pool(
        student_names, "author", selectivity=0.25, conditional_fanout=2
    )

    # Q1: 'belief update' in exactly 4 titles; each of those documents is
    # authored by a senior AI student (maximal selection-join overlap).
    belief_docs = corpus.plant_phrase("belief update", "title", 4)
    q1_authors = rng.sample(senior_ai, 4)
    for author, doc in zip(q1_authors, belief_docs):
        corpus.plant_value(author, "author", [doc])
    parameters["q1"] = {
        "senior_ai_count": len(senior_ai),
        "selection_documents": len(belief_docs),
        "planted_authors": q1_authors,
    }

    # Q2: 'text' in 100 titles; 3 of Garcia's students author such reports.
    text_docs = corpus.plant_phrase("text", "title", 100)
    q2_authors = rng.sample(garcia_students, 3)
    for author, doc in zip(q2_authors, rng.sample(list(text_docs), 3)):
        corpus.plant_value(author, "author", [doc])
    parameters["q2"] = {
        "advisor": garcia,
        "garcia_students": len(garcia_students),
        "selection_documents": len(text_docs),
        "planted_authors": q2_authors,
    }

    # Q3: 2 of the 12 NSF project names appear in titles (s1 = 1/6), each
    # in 100 documents (high fanout); every member of those two projects
    # co-authors exactly one document within the project's title set.
    matched_projects = rng.sample(nsf_project_names, 2)
    project_plant = corpus.plant_pool(
        nsf_project_names,
        "title",
        selectivity=2 / 12,
        conditional_fanout=100,
        matched_values=matched_projects,
    )
    join_docs = 0
    for project in matched_projects:
        title_docs = list(project_plant.documents_per_value[project])
        for member in project_members[project]:
            corpus.plant_pool(
                member_names,
                "author",
                selectivity=1 / len(member_names),
                conditional_fanout=1,
                within=title_docs,
                matched_values=[member],
            )
            join_docs += 1
    # Background member appearances (affects member statistics only).
    corpus.plant_pool(
        member_names, "author", selectivity=0.2, conditional_fanout=1
    )
    parameters["q3"] = {
        "nsf_rows": sum(1 for m in memberships if m[1] == "NSF"),
        "distinct_project_names": len(nsf_project_names),
        "matched_projects": matched_projects,
        "title_fanout_per_match": 100,
        "planted_join_documents": join_docs,
    }

    # Q4: both DS advisors author 6 documents each (s1 = 1); every one of
    # those 12 documents is co-authored by a student of that advisor.
    advisor_plant = corpus.plant_pool(
        ds_advisors, "author", selectivity=1.0, conditional_fanout=6
    )
    q4_pairs = 0
    for advisor in ds_advisors:
        advisor_docs = list(advisor_plant.documents_per_value[advisor])
        students = [name for name, adv in ds_students if adv == advisor]
        for position, doc in enumerate(advisor_docs):
            student = students[position % len(students)]
            corpus.plant_value(student, "author", [doc])
            q4_pairs += 1
    parameters["q4"] = {
        "ds_students": len(ds_students),
        "distinct_advisors": len(ds_advisors),
        "advisor_fanout": 6,
        "planted_join_documents": q4_pairs,
    }

    # Q5: 30 extra 'may 1993' documents; 10 cross-department
    # (student, faculty) pairs co-author one of them each.
    may_docs = corpus.plant_phrase("may 1993", "year", 30)
    student_by_name = {record[0]: record for record in records}
    cross_pairs: List[Tuple[str, str]] = []
    attempts = 0
    while len(cross_pairs) < 10 and attempts < 1000:
        attempts += 1
        student = rng.choice(student_names)
        faculty_name, faculty_dept = rng.choice(faculty_records)
        if student_by_name[student][4] != faculty_dept:
            cross_pairs.append((student, faculty_name))
    for index, (student, faculty_name) in enumerate(cross_pairs):
        doc = may_docs[index % len(may_docs)]
        corpus.plant_value(student, "author", [doc])
        corpus.plant_value(faculty_name, "author", [doc])
    # Faculty names also appear broadly as authors.
    corpus.plant_pool(
        faculty_names, "author", selectivity=0.6, conditional_fanout=3
    )
    parameters["q5"] = {
        "extra_may_1993_documents": len(may_docs),
        "planted_pairs": len(cross_pairs),
    }

    # Background co-authors everywhere (after plantings: exact stats kept).
    corpus.pad_authors(per_document=2)

    store = corpus.build_store(short_fields=("title", "author", "year", "institution"))
    server = BooleanTextServer(store)
    return Scenario(
        catalog=catalog,
        server=server,
        constants=DEFAULT_CONSTANTS,
        parameters=parameters,
    )


def build_prl_scenario(
    seed: int = 11,
    document_count: int = 3000,
    enrollment_rows: int = 3000,
    distinct_names: int = 60,
    course_rows: int = 1500,
    name_selectivity: float = 0.1,
) -> Tuple[Scenario, MultiJoinQuery]:
    """A workload where a probe node *strictly* beats every left-deep plan.

    The Example 6.1 situation, amplified: ``enrollment(name, course)`` is
    large but has few distinct names (many enrollments per person), only
    ``name_selectivity`` of which ever author a report.  Joining
    ``enrollment`` with the ``course`` catalogue first is expensive; a
    probe on ``enrollment.name`` shrinks the relation ~10x for the price
    of ``distinct_names`` cheap probes, making both the relational join
    and the foreign join cheaper — a PrL tree outside the traditional
    left-deep space.

    Returns the built scenario plus the three-way join query.
    """
    rng = random.Random(seed)
    corpus = SyntheticCorpus(document_count, seed=seed + 1)
    catalog = Catalog()

    names = reserved_pool("enr", distinct_names, rng)
    course_ids = [f"course{i:04d}" for i in range(course_rows)]

    from repro.relational.schema import Schema
    from repro.relational.types import DataType

    enrollment = catalog.create_table(
        "enrollment",
        Schema.of(("name", DataType.VARCHAR), ("course", DataType.VARCHAR)),
    )
    for _ in range(enrollment_rows):
        enrollment.insert([rng.choice(names), rng.choice(course_ids)])

    course = catalog.create_table(
        "course",
        Schema.of(("course", DataType.VARCHAR), ("dept", DataType.VARCHAR)),
    )
    for course_id in course_ids:
        course.insert([course_id, rng.choice(("cs", "ee", "me"))])

    corpus.plant_pool(
        names, "author", selectivity=name_selectivity, conditional_fanout=2
    )
    corpus.pad_authors(per_document=2)

    store = corpus.build_store(short_fields=("title", "author", "year", "institution"))
    scenario = Scenario(
        catalog=catalog,
        server=BooleanTextServer(store),
        constants=DEFAULT_CONSTANTS,
        parameters={
            "q6": {
                "enrollment_rows": enrollment_rows,
                "distinct_names": distinct_names,
                "course_rows": course_rows,
                "name_selectivity": name_selectivity,
            }
        },
    )
    query = MultiJoinQuery(
        relations=("enrollment", "course"),
        text_predicates=(TextJoinPredicate("enrollment.name", "author"),),
        join_predicates=(
            RelationalJoinPredicate(
                Comparison("=", ColumnRef("enrollment.course"), ColumnRef("course.course")),
                ("enrollment", "course"),
            ),
        ),
        text_source="mercury",
    )
    return scenario, query


def build_chain_scenario(
    relation_count: int,
    seed: int = 23,
    document_count: int = 500,
    rows_per_relation: int = 30,
) -> Tuple[Scenario, MultiJoinQuery]:
    """A chain join of ``relation_count`` relations plus the text source.

    ``r1.key = r2.key = ... = rn.key`` with one text predicate on
    ``r1.name``; used by the E9 enumeration-complexity benchmark to
    measure optimizer effort as a function of ``n``.
    """
    if relation_count < 1:
        raise WorkloadError("relation_count must be at least 1")
    rng = random.Random(seed)
    corpus = SyntheticCorpus(document_count, seed=seed + 1)
    catalog = Catalog()

    from repro.relational.schema import Schema
    from repro.relational.types import DataType

    names = reserved_pool("chn", rows_per_relation, rng)
    keys = [f"key{i:03d}" for i in range(rows_per_relation)]
    relations = tuple(f"r{i + 1}" for i in range(relation_count))
    for relation in relations:
        table = catalog.create_table(
            relation,
            Schema.of(("key", DataType.VARCHAR), ("name", DataType.VARCHAR)),
        )
        for key in keys:
            table.insert([key, rng.choice(names)])

    corpus.plant_pool(names, "author", selectivity=0.3, conditional_fanout=1)
    corpus.pad_authors(per_document=1, pool_size=100)

    store = corpus.build_store(short_fields=("title", "author", "year", "institution"))
    scenario = Scenario(
        catalog=catalog,
        server=BooleanTextServer(store),
        constants=DEFAULT_CONSTANTS,
    )
    join_predicates = tuple(
        RelationalJoinPredicate(
            Comparison(
                "=",
                ColumnRef(f"{relations[i]}.key"),
                ColumnRef(f"{relations[i + 1]}.key"),
            ),
            (relations[i], relations[i + 1]),
        )
        for i in range(relation_count - 1)
    )
    query = MultiJoinQuery(
        relations=relations,
        text_predicates=(TextJoinPredicate(f"{relations[0]}.name", "author"),),
        join_predicates=join_predicates,
        text_source="mercury",
    )
    return scenario, query
