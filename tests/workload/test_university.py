"""Unit tests for the university table builders."""

from repro.relational.catalog import Catalog
from repro.workload.university import (
    build_faculty_table,
    build_project_table,
    build_student_table,
)


def test_student_table():
    catalog = Catalog()
    table = build_student_table(
        catalog, [("kao", "databases", 2, "garcia", "cs")]
    )
    assert len(table) == 1
    row = next(table.scan())
    assert row["student.name"] == "kao"
    assert row["student.year"] == 2
    assert "student" in catalog


def test_faculty_table():
    catalog = Catalog()
    table = build_faculty_table(catalog, [("garcia", "ee"), ("ullman", "cs")])
    assert len(table) == 2
    assert len(set(table.column_values("dept"))) == 2


def test_project_table():
    catalog = Catalog()
    table = build_project_table(
        catalog,
        [("condor", "NSF", "kao"), ("condor", "NSF", "pham")],
    )
    assert len(table) == 2
    assert len(set(table.column_values("name"))) == 1
    assert len(set(table.column_values("member"))) == 2


def test_custom_table_names():
    catalog = Catalog()
    build_student_table(catalog, [], table_name="s2")
    assert "s2" in catalog
