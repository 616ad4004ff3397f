"""Engine kernels: optimized vs reference at bit-identical accounting.

The acceptance benchmark for the evaluation kernels (DESIGN.md "Engine
kernels"): on an AND/OR-heavy workload over a Zipfian corpus, the
optimized engine (galloping and set intersections, one set union per
k-way OR, rewriter ordering, conjunctions that restrict each OR-ed list,
memoized repeats) must beat the reference engine's linear
pairwise merges by at least 3x wall clock — while the result docids,
the priced ``CostLedger`` totals, and every ``ServerCounters`` field
stay bit-identical.  The speedup must come from skipped *merge* work
alone; every inverted-list retrieval the reference engine performs, the
optimized engine performs too.

Runs two ways:

- under pytest (the CI benchmarks job) at a small corpus;
- standalone: ``python benchmarks/bench_engine.py`` for the full
  50k-document measurement, or ``--smoke`` for a seconds-long sanity
  run (identity checks on, no speedup assertion).
"""

from __future__ import annotations

import argparse
import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.reporting import ascii_table
from repro.gateway.client import TextClient
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    SearchNode,
    TermQuery,
    TruncatedQuery,
)
from repro.textsys.server import BooleanTextServer
from repro.workload.corpus import SyntheticCorpus

FIELD = "abstract"
PYTEST_DOC_COUNT = 4000
FULL_DOC_COUNT = 50_000
SMOKE_DOC_COUNT = 800
MIN_SPEEDUP = 3.0


def build_store(doc_count: int, seed: int = 7):
    """A Zipfian corpus: a few huge inverted lists, a long rare tail."""
    return SyntheticCorpus(doc_count, seed=seed).build_store()


def term_bands(server: BooleanTextServer) -> Dict[str, List[str]]:
    """Vocabulary split by document frequency, without charging pages.

    ``common`` terms sit at the Zipf head (lists covering much of the
    corpus), ``mid`` in the body, ``rare`` at the tail — the skew the
    galloping intersection exists for.
    """
    index = server.index
    by_df = sorted(
        index.vocabulary(FIELD),
        key=lambda term: index.list_length(FIELD, term),
        reverse=True,
    )
    count = len(by_df)
    return {
        "common": by_df[:8],
        "mid": by_df[count // 8 : count // 8 + 24],
        "rare": by_df[-24:],
    }


def build_workload(
    server: BooleanTextServer, seed: int = 11
) -> List[Tuple[str, SearchNode]]:
    """(family, query) pairs exercising each kernel's favourite shape."""
    rng = random.Random(seed)
    bands = term_bands(server)

    def pick(band: str) -> str:
        return rng.choice(bands[band])

    def term(band: str) -> TermQuery:
        return TermQuery(FIELD, pick(band))

    workload: List[Tuple[str, SearchNode]] = []
    # Every family conjoins a rare term, keeping RESULTS tiny while the
    # INTERMEDIATE lists stay huge: short-form result construction is
    # identical work in both engines, so small answers keep the timing
    # focused on the merge kernels — exactly the shape probe/semi-join
    # batches produce (a selective author AND broad content terms).
    #
    # Skewed conjunctions: tiny list x huge list.  The reference engine
    # walks both lists linearly; the optimized engine gallops.
    for _ in range(30):
        workload.append(("skewed AND", AndQuery((term("common"), term("rare")))))
    for _ in range(15):
        workload.append(
            ("3-way AND", AndQuery((term("common"), term("mid"), term("rare"))))
        )
    # NOT inside a conjunction: the reference engine materializes the
    # complement against all_docs; the optimized engine subtracts from
    # the (tiny) running intersection.
    for _ in range(15):
        workload.append(
            ("AND NOT", AndQuery((term("rare"), NotQuery(term("common")))))
        )
    # Wide disjunctions (the OR-batched semi-join shape): pairwise
    # folding is quadratic in the fan-in; the heap union is one pass.
    for _ in range(15):
        members = tuple(
            TermQuery(FIELD, word) for word in rng.sample(bands["mid"], 12)
        )
        workload.append(("wide OR + AND", AndQuery((OrQuery(members), term("rare")))))
    # Repeated subtrees: the reference engine evaluates the disjunction
    # twice; the optimized engine evaluates once and charge-walks the
    # duplicate.
    for _ in range(15):
        shared = OrQuery(
            tuple(TermQuery(FIELD, word) for word in rng.sample(bands["mid"], 6))
        )
        workload.append(
            ("repeated subtree", AndQuery((shared, shared, term("rare"))))
        )
    # Truncations expand to many lists: k-way union vs pairwise fold.
    prefixes = sorted({word[:2] for word in bands["common"] + bands["mid"]})
    for _ in range(15):
        workload.append(
            (
                "truncation + AND",
                AndQuery((TruncatedQuery(FIELD, rng.choice(prefixes)), term("rare"))),
            )
        )
    return workload


def run_mode(store, workload: Sequence[Tuple[str, SearchNode]], mode: str):
    """Run the workload on a fresh server; index build is not timed."""
    server = BooleanTextServer(store, engine_mode=mode)
    client = TextClient(server)
    family_seconds: Dict[str, float] = {}
    docids: List[Tuple[str, ...]] = []
    for family, query in workload:
        started = time.perf_counter()
        docids.append(client.search(query).docids)
        family_seconds[family] = family_seconds.get(family, 0.0) + (
            time.perf_counter() - started
        )
    return {
        "seconds": sum(family_seconds.values()),
        "family_seconds": family_seconds,
        "docids": docids,
        "ledger_total": client.ledger.total,
        "counters": server.counters.as_dict(),
    }


def compare_modes(store, workload):
    reference = run_mode(store, workload, "reference")
    optimized = run_mode(store, workload, "optimized")
    # The observable outputs must not know which engine ran.
    assert optimized["docids"] == reference["docids"]
    assert optimized["ledger_total"] == reference["ledger_total"]
    assert optimized["counters"] == reference["counters"]
    return reference, optimized


def report(reference, optimized, doc_count: int) -> str:
    rows = []
    for family, ref_seconds in reference["family_seconds"].items():
        opt_seconds = optimized["family_seconds"][family]
        rows.append(
            [
                family,
                round(ref_seconds, 4),
                round(opt_seconds, 4),
                f"{ref_seconds / opt_seconds:.1f}x",
            ]
        )
    speedup = reference["seconds"] / optimized["seconds"]
    rows.append(
        [
            "TOTAL",
            round(reference["seconds"], 4),
            round(optimized["seconds"], 4),
            f"{speedup:.1f}x",
        ]
    )
    return ascii_table(
        ["workload", "reference (s)", "optimized (s)", "speedup"],
        rows,
        title=(
            f"engine kernels at {doc_count} documents "
            "(docids, ledger, counters bit-identical)"
        ),
    )


# ----------------------------------------------------------------------
# pytest entry point (CI benchmarks job)
# ----------------------------------------------------------------------
def test_optimized_kernels_speedup_with_identical_accounting():
    store = build_store(PYTEST_DOC_COUNT)
    workload = build_workload(BooleanTextServer(store))
    # Best-of-2 on total wall clock: absorbs one-off interpreter noise.
    runs = [compare_modes(store, workload) for _ in range(2)]
    reference, optimized = min(
        runs, key=lambda pair: pair[1]["seconds"] / pair[0]["seconds"]
    )
    speedup = reference["seconds"] / optimized["seconds"]
    print()
    print(report(reference, optimized, PYTEST_DOC_COUNT))
    assert speedup >= MIN_SPEEDUP, (
        f"optimized engine only {speedup:.2f}x over reference "
        f"(needs {MIN_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# standalone entry point (full-size measurement / CI smoke)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--docs",
        type=int,
        default=FULL_DOC_COUNT,
        help=f"corpus size (default {FULL_DOC_COUNT})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"tiny corpus ({SMOKE_DOC_COUNT} docs), identity checks only",
    )
    parser.add_argument("--seed", type=int, default=7)
    options = parser.parse_args(argv)
    doc_count = SMOKE_DOC_COUNT if options.smoke else options.docs

    started = time.perf_counter()
    store = build_store(doc_count, seed=options.seed)
    server = BooleanTextServer(store)
    workload = build_workload(server)
    print(
        f"built + indexed {doc_count} documents, {len(workload)} queries "
        f"in {time.perf_counter() - started:.1f}s"
    )
    reference, optimized = compare_modes(store, workload)
    print(report(reference, optimized, doc_count))
    speedup = reference["seconds"] / optimized["seconds"]
    if options.smoke:
        print(f"smoke OK: accounting identical, speedup {speedup:.1f}x (not asserted)")
        return 0
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor")
        return 1
    print(f"OK: {speedup:.1f}x at bit-identical accounting")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
