"""Persistence tests for :class:`repro.core.feedback.FeedbackStore`:
hypothesis round-trips, fingerprint invalidation, corrupt stores, and
the format-1 migration."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feedback import (
    DEFAULT_PRIOR_WEIGHT,
    MAX_RECORDS,
    STORE_FORMAT,
    EstimateRecord,
    FeedbackStore,
)
from repro.errors import FeedbackError, StatisticsError
from repro.gateway.statistics import PredicateStatistics

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz.|:", min_size=1, max_size=12
)

predicate_ops = st.tuples(
    names,  # fingerprint
    names,  # column
    names,  # field
    st.integers(min_value=1, max_value=1000),  # searches
    st.integers(min_value=-5, max_value=2000),  # matched (clamped)
    finite,  # documents (clamped)
)
record_ops = st.builds(
    EstimateRecord,
    label=names,
    kind=st.sampled_from(["abort", "method", "node"]),
    estimated=finite,
    actual=finite,
    unit=st.sampled_from(["rows", "seconds", "documents", "fanout"]),
    detail=names,
)

#: ``python -m repro qerror demo --store`` at seed 7, written by the last
#: commit that saved format 1: one predicate, two method keys, one event.
FORMAT1_FIXTURE = Path(__file__).with_name("feedback_store_v1.json")

#: That store's ``report().render()`` as format 1 printed it.
FORMAT1_REPORT = "\n".join((
    '3 estimate/actual pairs, median q-error 1.08, max 6.00',
    'Worst offenders (by q-error)',
    'label                  kind    estimated  actual  unit       q   ',
    '---------------------  ------  ---------  ------  ---------  ----',
    'guard:P(advisor)+RTP   abort   2.00       12.00   documents  6.00',
    'method:P(advisor)+RTP  method  9.65       10.38   seconds    1.08',
    'method:TS              method  43.27      42.18   seconds    1.03',
))


def populated_store(predicates, records, prior_weight):
    store = FeedbackStore(prior_weight=prior_weight)
    for fingerprint, column, field, searches, matched, documents in predicates:
        store.observe_predicate(
            fingerprint, column, field, searches, matched, documents
        )
    for record in records:
        store.record(record)
    return store


def predicate_entry(fingerprint="fp", column="c", field="f", **counts):
    entry = {"fingerprint": fingerprint, "column": column, "field": field}
    entry.update({"searches": 4, "matched": 2, "documents": 8.0}, **counts)
    return entry


def format1_payload(predicates):
    """A format-1 payload: predicates in an object keyed by a string."""
    return {"format": 1, "predicates": predicates, "methods": {}, "events": []}


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        predicates=st.lists(predicate_ops, max_size=8),
        records=st.lists(record_ops, max_size=16),
        prior_weight=st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False
        ),
    )
    def test_payload_identity(self, predicates, records, prior_weight):
        store = populated_store(predicates, records, prior_weight)
        rebuilt = FeedbackStore.from_payload(store.to_payload())
        assert rebuilt == store
        assert rebuilt.summary() == store.summary()

    @settings(max_examples=25, deadline=None)
    @given(
        predicates=st.lists(predicate_ops, max_size=6),
        records=st.lists(record_ops, max_size=12),
    )
    def test_save_load_identity(self, tmp_path_factory, predicates, records):
        store = populated_store(predicates, records, DEFAULT_PRIOR_WEIGHT)
        path = str(tmp_path_factory.mktemp("fb") / "store.json")
        assert store.save(path) == path
        loaded = FeedbackStore.load(path)
        assert loaded == store
        assert loaded.path == path
        # Saving the load writes the identical payload again.
        loaded.save()
        assert FeedbackStore.load(path) == store

    def test_observations_accumulate_across_a_round_trip(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = FeedbackStore(path=path)
        store.observe_predicate("fp", "c", "f", 4, 2, 8.0)
        store.save()
        reloaded = FeedbackStore.open(path)
        reloaded.observe_predicate("fp", "c", "f", 4, 4, 8.0)
        merged = reloaded.observation("fp", "c", "f")
        assert merged.searches == 8
        assert merged.matched == 6
        assert merged.documents == 16.0

    def test_bounded_history_survives_round_trips(self):
        store = FeedbackStore()
        for index in range(MAX_RECORDS + 50):
            store.record(EstimateRecord(f"e{index}", "abort", 1.0, index))
        payload = FeedbackStore.from_payload(store.to_payload()).to_payload()
        assert len(payload["records"]) == MAX_RECORDS
        assert payload["records"][0]["label"] == "e50"
        assert payload["records"][-1]["actual"] == float(MAX_RECORDS + 49)


class TestFingerprintInvalidation:
    PRIOR = PredicateStatistics("c", "f", selectivity=0.5, fanout=2.0)

    def test_other_corpus_observations_never_apply(self):
        store = FeedbackStore(prior_weight=1.0)
        store.observe_predicate("corpus-a", "c", "f", 100, 100, 900.0)
        assert store.blend(self.PRIOR, "corpus-b") == self.PRIOR
        blended = store.blend(self.PRIOR, "corpus-a")
        assert blended.fanout > self.PRIOR.fanout

    def test_stale_observations_stay_isolated_after_reload(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = FeedbackStore(path=path, prior_weight=1.0)
        store.observe_predicate("corpus-a", "c", "f", 100, 100, 900.0)
        store.save()
        reloaded = FeedbackStore.load(path)
        assert reloaded.blend(self.PRIOR, "corpus-b") == self.PRIOR
        assert reloaded.observation("corpus-b", "c", "f") is None
        assert reloaded.observation("corpus-a", "c", "f") is not None


class TestCorruptStores:
    def _reject(self, tmp_path, content):
        path = str(tmp_path / "store.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        with pytest.raises(FeedbackError):
            FeedbackStore.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FeedbackError):
            FeedbackStore.load(str(tmp_path / "absent.json"))

    def test_truncated_json(self, tmp_path):
        store = FeedbackStore()
        store.observe_predicate("fp", "c", "f", 4, 2, 8.0)
        full = json.dumps(store.to_payload())
        self._reject(tmp_path, full[: len(full) // 2])

    def test_not_an_object(self, tmp_path):
        self._reject(tmp_path, "[1, 2, 3]")

    def test_wrong_format_version(self, tmp_path):
        self._reject(tmp_path, json.dumps({"format": STORE_FORMAT + 1}))

    NON_NUMERIC = predicate_entry(searches="many")
    OUT_OF_RANGE = predicate_entry(searches=2, matched=5)  # matched > searches

    def test_non_numeric_counts(self, tmp_path):
        payload = {"format": STORE_FORMAT, "predicates": [self.NON_NUMERIC]}
        self._reject(tmp_path, json.dumps(payload))

    def test_out_of_range_counts(self, tmp_path):
        payload = {"format": STORE_FORMAT, "predicates": [self.OUT_OF_RANGE]}
        self._reject(tmp_path, json.dumps(payload))

    def test_non_numeric_counts_format1(self, tmp_path):
        payload = format1_payload({"k": self.NON_NUMERIC})
        self._reject(tmp_path, json.dumps(payload))

    def test_out_of_range_counts_format1(self, tmp_path):
        payload = format1_payload({"k": self.OUT_OF_RANGE})
        self._reject(tmp_path, json.dumps(payload))

    def test_non_numeric_record(self, tmp_path):
        record = {
            "label": "TS", "kind": "method", "estimated": "soon",
            "actual": 1.0, "unit": "seconds", "detail": "",
        }
        payload = {"format": STORE_FORMAT, "records": [record]}
        self._reject(tmp_path, json.dumps(payload))

    def test_format1_method_run_without_actual(self, tmp_path):
        payload = format1_payload({})
        payload["methods"] = {
            "k": {"fingerprint": "fp", "query": "q", "method": "TS",
                  "runs": [{"estimated": 1.0}]}
        }
        self._reject(tmp_path, json.dumps(payload))

    def test_nan_smuggled_in(self, tmp_path):
        # json.dumps happily writes NaN; loading must refuse it rather
        # than let it poison a blend.
        payload = {
            "format": STORE_FORMAT,
            "prior_weight": float("nan"),
        }
        self._reject(tmp_path, json.dumps(payload))

    def test_corrupt_store_never_yields_estimates(self, tmp_path):
        """The contract: a broken store is a clean typed error up front,
        never a store that silently hands out wrong blends."""
        path = str(tmp_path / "store.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{broken")
        with pytest.raises(FeedbackError):
            FeedbackStore.open(path)

    def test_save_needs_a_path(self):
        with pytest.raises(FeedbackError):
            FeedbackStore().save()

    def test_atomic_save_leaves_no_temp_droppings(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = FeedbackStore()
        store.observe_predicate("fp", "c", "f", 4, 2, 8.0)
        store.save(path)
        store.save(path)
        assert sorted(os.listdir(tmp_path)) == ["store.json"]


class TestConstruction:
    def test_negative_prior_weight_rejected(self):
        with pytest.raises((FeedbackError, StatisticsError)):
            FeedbackStore(prior_weight=-1.0)

    def test_open_creates_fresh_bound_store(self, tmp_path):
        path = str(tmp_path / "new.json")
        store = FeedbackStore.open(path, prior_weight=2.0)
        assert store.path == path
        assert store.prior_weight == 2.0
        assert not os.path.exists(path)  # nothing written until save()


class TestPredicateKeys:
    """A predicate entry is keyed by the (fingerprint, column, field)
    triple it carries, on load and on every later lookup."""

    def test_loaded_entry_is_found_whatever_its_payload_key(self):
        store = FeedbackStore.from_payload(
            format1_payload({"not-its-own-key": predicate_entry()})
        )
        observation = store.observation("fp", "c", "f")
        assert observation is not None and observation.searches == 4
        store.observe_predicate("fp", "c", "f", 4, 4, 8.0)
        assert store.summary()["predicates"] == 1
        assert store.observation("fp", "c", "f").searches == 8

    def test_separator_in_a_name_never_merges_two_predicates(self):
        store = FeedbackStore()
        store.observe_predicate("a|b", "c", "f", 4, 2, 8.0)
        store.observe_predicate("a", "b|c", "f", 10, 10, 50.0)
        assert store.summary()["predicates"] == 2
        assert store.observation("a|b", "c", "f").searches == 4
        assert store.observation("a", "b|c", "f").searches == 10

    def test_duplicate_triple_rejected_in_format2(self):
        payload = {
            "format": STORE_FORMAT,
            "predicates": [predicate_entry(), predicate_entry(searches=9)],
        }
        with pytest.raises(FeedbackError):
            FeedbackStore.from_payload(payload)

    def test_duplicate_triple_rejected_in_format1(self):
        payload = format1_payload(
            {"fp|c|f": predicate_entry(), "other": predicate_entry()}
        )
        with pytest.raises(FeedbackError):
            FeedbackStore.from_payload(payload)


class TestFormat1Store:
    """A store saved in format 1 (before method runs and events became
    estimate records) still loads, reports and re-saves."""

    def test_fixture_loads(self):
        store = FeedbackStore.load(str(FORMAT1_FIXTURE))
        assert store.summary() == {
            "predicates": 1, "records": 3, "prior_weight": 0.5,
        }
        fingerprint = "D4000.v4000.f[abstract,author,institution,title,year]"
        observation = store.observation(fingerprint, "student.advisor", "author")
        assert (observation.searches, observation.matched) == (2, 2)
        assert observation.documents == 12.0

    def test_report_matches_format1(self):
        store = FeedbackStore.load(str(FORMAT1_FIXTURE))
        assert store.report().render() == FORMAT1_REPORT

    def test_resaves_as_current_format(self, tmp_path):
        store = FeedbackStore.load(str(FORMAT1_FIXTURE))
        path = store.save(str(tmp_path / "store.json"))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format"] == STORE_FORMAT == 2
        assert sorted(payload) == [
            "format", "predicates", "prior_weight", "records",
        ]
        reloaded = FeedbackStore.load(path)
        assert reloaded == store
        assert reloaded.report().render() == FORMAT1_REPORT
