"""Disk-backed index at scale: build throughput, bounded RSS, cache effect.

The acceptance benchmark for :mod:`repro.textsys.diskindex`:

- **bounded build**: stream a synthetic corpus (default one million
  documents) through :class:`DiskIndexBuilder` — documents are never
  materialized in RAM, sorted segment runs spill to disk, and the final
  index is one compact file of delta + group-varint posting blocks.
  Peak RSS for build *plus* querying must stay under a configurable
  budget (default 512 MB);
- **cold/warm querying**: the same query set is run twice against the
  file through a bounded block cache (``io_mode="read"`` so every
  physical access is an explicit syscall, not a page fault): charged
  page reads are identical in both passes while physical block fetches
  collapse onto the cache;
- **charge identity** (DESIGN invariant 13): at a comparison size the
  same queries run against the in-memory :class:`InvertedIndex` —
  docids, ``postings_processed``, and ``pages_read`` must be
  bit-identical to the disk engine's;
- **codec kernels**: every posting block of the comparison index is
  re-encoded and decoded in isolation — µs per block for each kernel —
  and each block's docids must round-trip.

Run standalone for the full million-document measurement, or
``--smoke`` for a seconds-long CI pass (identity asserted, RSS
reported against the same budget).
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.bench.reporting import ascii_table
from repro.textsys.diskindex import DiskIndexBuilder, DiskInvertedIndex
from repro.textsys.diskindex.codec import decode_block_docs, encode_block
from repro.textsys.documents import DocumentStore
from repro.textsys.engine import evaluate
from repro.textsys.inverted_index import InvertedIndex
from repro.textsys.parser import parse_search
from repro.workload import iter_synthetic_documents

#: The query mix: single terms, conjunctions steered by the rewriter
#: onto the skip-driven galloping path, a disjunction, and a negation.
QUERIES = [
    "TI='algorithm'",
    "AB='database' and AB='query'",
    "AB='retrieval' and AB='parallel' and AB='index'",
    "TI='system' or AB='cache'",
    "AB='protocol' and not TI='network'",
]

#: Corpus size for the in-memory comparison (full size would defeat the
#: point of the disk index).
COMPARISON_DOCS = 20_000


def peak_rss_mb() -> float:
    """Lifetime peak resident set of this process, in MB (Linux: KiB)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        return rss / (1024 * 1024)
    return rss / 1024


def build_index(
    docs: int, path: Path, *, seed: int, builder_budget_mb: int
) -> Dict[str, float]:
    builder = DiskIndexBuilder(
        ["title", "abstract"],
        path,
        memory_budget_mb=builder_budget_mb,
    )
    started = time.perf_counter()
    count = builder.add_documents(iter_synthetic_documents(docs, seed=seed))
    builder.finish()
    seconds = time.perf_counter() - started
    return {
        "documents": count,
        "seconds": round(seconds, 2),
        "docs_per_s": round(count / seconds) if seconds else 0,
        "file_mb": round(path.stat().st_size / 1e6, 2),
        "segments": builder.segments_spilled,
    }


def query_pass(index: DiskInvertedIndex) -> Dict[str, float]:
    """One pass over the query mix; returns charges + physical deltas."""
    io_before = index.io_stats()
    pages_before = index.pages_read
    started = time.perf_counter()
    matches = postings = 0
    for expression in QUERIES:
        outcome = evaluate(index, parse_search(expression))
        matches += outcome.doc_count()
        postings += outcome.postings_processed
    seconds = time.perf_counter() - started
    io_after = index.io_stats()
    return {
        "ms": round(seconds * 1000, 1),
        "matches": matches,
        "postings": postings,
        "pages": index.pages_read - pages_before,
        "fetches": io_after["block_fetches"] - io_before["block_fetches"],
        "bytes": io_after["bytes_read"] - io_before["bytes_read"],
    }


def cold_warm_table(
    path: Path, cache_mb: float
) -> Tuple[List[Tuple[str, Dict]], Dict]:
    """(cold, warm) passes through one bounded cache, plus cache stats."""
    with DiskInvertedIndex(
        path, cache_budget=int(cache_mb * 1024 * 1024), io_mode="read"
    ) as index:
        cold = query_pass(index)
        warm = query_pass(index)
        stats = index.io_stats()["cache"]
    return [("cold", cold), ("warm", warm)], stats


def assert_charge_identity(
    docs: int, tmp: Path, *, seed: int
) -> Dict[str, int]:
    """Disk vs in-memory engine on an identical corpus: invariant 13."""
    store = DocumentStore(["title", "abstract"], short_fields=["title"])
    for document in iter_synthetic_documents(docs, seed=seed):
        store.add(document)
    memory = InvertedIndex(store)

    path = tmp / "comparison.idx"
    builder = DiskIndexBuilder(["title", "abstract"], path)
    builder.add_documents(iter(store))
    builder.finish()

    with DiskInvertedIndex(path, io_mode="read") as disk:
        for expression in QUERIES:
            node = parse_search(expression)
            expected = evaluate(memory, node)
            actual = evaluate(disk, node)
            assert list(actual.postings.doc_array) == list(
                expected.postings.doc_array
            ), expression
            assert (
                actual.postings_processed == expected.postings_processed
            ), expression
        assert disk.pages_read == memory.pages_read
        return {"pages": disk.pages_read, "documents": docs}


def codec_kernels(path: Path) -> Dict[str, float]:
    """Encode and decode every block of the index at ``path`` in
    isolation, one term at a time; each block must round-trip."""
    blocks = postings = 0
    encode_seconds = decode_seconds = 0.0
    with DiskInvertedIndex(path) as index:
        for field in index.field_names:
            for term in index.vocabulary(field):
                term_postings = list(index.lookup(field, term))
                prev_last = -1
                for start in range(0, len(term_postings), index.block_size):
                    chunk = term_postings[start : start + index.block_size]
                    docs = [posting.doc for posting in chunk]
                    positions = [posting.positions for posting in chunk]
                    started = time.perf_counter()
                    buf = encode_block(docs, positions, prev_last)
                    encoded = time.perf_counter()
                    actual = decode_block_docs(buf, prev_last)
                    decode_seconds += time.perf_counter() - encoded
                    encode_seconds += encoded - started
                    assert list(actual) == docs
                    prev_last = docs[-1]
                    blocks += 1
                    postings += len(docs)
    return {
        "blocks": blocks,
        "postings_per_block": round(postings / blocks, 1),
        "decode_us": round(decode_seconds / blocks * 1e6, 2),
        "encode_us": round(encode_seconds / blocks * 1e6, 2),
    }


def report(build: Dict, passes, cache_stats, rss_mb: float, budget_mb: int):
    print(
        ascii_table(
            ["documents", "seconds", "docs/s", "file MB", "spilled runs"],
            [[
                build["documents"],
                build["seconds"],
                build["docs_per_s"],
                build["file_mb"],
                build["segments"],
            ]],
            title="streamed build",
        )
    )
    print(
        ascii_table(
            ["pass", "ms", "matches", "postings", "pages", "fetches", "bytes"],
            [
                [label] + [outcome[key] for key in (
                    "ms", "matches", "postings", "pages", "fetches", "bytes"
                )]
                for label, outcome in passes
            ],
            title="query mix, cold vs warm block cache (io=read)",
        )
    )
    cold, warm = (outcome for _, outcome in passes)
    print(
        f"charges identical across passes: pages {cold['pages']} == "
        f"{warm['pages']}, postings {cold['postings']} == {warm['postings']}"
    )
    print(
        f"cache: {cache_stats['hits']} hits / {cache_stats['misses']} misses "
        f"({cache_stats['hit_rate']:.0%}), {cache_stats['evictions']} evictions"
    )
    print(f"peak RSS {rss_mb:.0f} MB (budget {budget_mb} MB)")


# ----------------------------------------------------------------------
# pytest entry points (CI benchmarks job)
# ----------------------------------------------------------------------
def test_disk_engine_charge_identical_to_memory(tmp_path):
    oracle = assert_charge_identity(2_000, tmp_path, seed=7)
    assert oracle["pages"] > 0


def test_warm_pass_same_charges_fewer_fetches(tmp_path):
    path = tmp_path / "bench.idx"
    builder = DiskIndexBuilder(["title", "abstract"], path)
    builder.add_documents(iter_synthetic_documents(2_000, seed=7))
    builder.finish()
    passes, stats = cold_warm_table(path, cache_mb=8)
    cold, warm = (outcome for _, outcome in passes)
    assert warm["pages"] == cold["pages"]
    assert warm["postings"] == cold["postings"]
    assert warm["matches"] == cold["matches"]
    assert warm["fetches"] <= cold["fetches"]
    assert stats["hits"] > 0


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--docs",
        type=int,
        default=1_000_000,
        help="corpus size (default one million)",
    )
    parser.add_argument(
        "--budget-mb",
        type=int,
        default=512,
        help="peak-RSS budget asserted over build + query (default 512)",
    )
    parser.add_argument(
        "--builder-budget-mb",
        type=int,
        default=128,
        help="posting-buffer spill threshold inside the builder",
    )
    parser.add_argument("--cache-mb", type=float, default=32.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny corpus; identity asserted, RSS reported in seconds",
    )
    options = parser.parse_args(argv)
    docs = 5_000 if options.smoke else options.docs
    comparison = min(docs, COMPARISON_DOCS)

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        build = build_index(
            docs,
            tmp / "corpus.idx",
            seed=options.seed,
            builder_budget_mb=options.builder_budget_mb,
        )
        passes, cache_stats = cold_warm_table(
            tmp / "corpus.idx", options.cache_mb
        )
        cold, warm = (outcome for _, outcome in passes)
        assert warm["pages"] == cold["pages"]
        assert warm["postings"] == cold["postings"]

        oracle = assert_charge_identity(comparison, tmp, seed=options.seed)
        rss = peak_rss_mb()  # before the kernel row's own scaffolding
        kernels = codec_kernels(tmp / "comparison.idx")
        report(build, passes, cache_stats, rss, options.budget_mb)
        print(
            ascii_table(
                ["blocks", "postings/block", "decode us/block", "encode us/block"],
                [[
                    kernels["blocks"],
                    kernels["postings_per_block"],
                    kernels["decode_us"],
                    kernels["encode_us"],
                ]],
                title="codec kernels over the comparison index's blocks "
                "(each block round-trips)",
            )
        )
        print(
            f"identity OK at {oracle['documents']} documents: disk engine "
            "bit-identical to in-memory (docids, postings, pages)"
        )
        if rss > options.budget_mb:
            print(
                f"FAIL: peak RSS {rss:.0f} MB exceeds the "
                f"{options.budget_mb} MB budget"
            )
            return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
