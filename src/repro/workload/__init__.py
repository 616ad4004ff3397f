"""Synthetic workloads: the Mercury-like corpus, the university database,
and the paper's canonical queries Q1–Q5 with planted statistics."""

from repro.workload.corpus import (
    DEFAULT_FIELDS,
    PlantReport,
    SyntheticCorpus,
    expanded_vocabulary,
    iter_synthetic_documents,
)
from repro.workload.scenarios import (
    DEFAULT_CONSTANTS,
    Scenario,
    build_default_scenario,
)
from repro.workload.university import (
    FACULTY_SCHEMA,
    PROJECT_SCHEMA,
    STUDENT_SCHEMA,
    build_faculty_table,
    build_project_table,
    build_student_table,
)
from repro.workload.vocabulary import reserved_pool, zipf_text, zipf_word

__all__ = [
    "SyntheticCorpus",
    "PlantReport",
    "DEFAULT_FIELDS",
    "expanded_vocabulary",
    "iter_synthetic_documents",
    "Scenario",
    "build_default_scenario",
    "DEFAULT_CONSTANTS",
    "STUDENT_SCHEMA",
    "FACULTY_SCHEMA",
    "PROJECT_SCHEMA",
    "build_student_table",
    "build_faculty_table",
    "build_project_table",
    "reserved_pool",
    "zipf_text",
    "zipf_word",
]
