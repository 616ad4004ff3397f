"""``run.py --compare A.json B.json``: the regression rule.

Per workload and end-to-end metric: the medians of both sides, the change
as a ratio with its base, and a verdict from the bounds ``BENCHMARK.json``
fixes.  ``unresolved`` means a side's run-to-run spread is wider than the
bound, so a difference of that size cannot be told from noise — unless
every run of one side reads better than every run of the other.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles with four or more runs, the whole range with fewer."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
        return (third - first) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    if abs(worsening) <= bound:
        outcome = "same"
    else:
        outcome = "worse" if worsening > 0 else "better"
    if max(spread(parent), spread(change)) > bound:
        # Too noisy to call, unless the two sides do not even overlap.
        if sign * (min(change) - max(parent)) > 0:
            return "worse"
        if sign * (max(change) - min(parent)) < 0:
            return "better"
        return "unresolved"
    return outcome


def compare_documents(spec: Dict[str, Any], parent: Dict[str, Any], change: Dict[str, Any]) -> int:
    """Print one row per workload and metric; 1 if any row is ``worse``."""
    worse = 0
    print(
        f"{'workload':16s} {'metric':18s} {'parent':>12s} {'change':>12s} "
        f"{'ratio (base = parent)':>22s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for workload in spec["workloads"]:
        name = workload["name"]
        left = parent["workloads"].get(name)
        right = change["workloads"].get(name)
        if left is None or right is None:
            print(f"{name:16s} missing from one side")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            a = left["end_to_end"][metric["name"]]["values"]
            b = right["end_to_end"][metric["name"]]["values"]
            result = verdict(a, b, metric["better"], metric["bound"])
            base = statistics.median(a)
            ratio = statistics.median(b) / base if base else float("nan")
            print(
                f"{name:16s} {metric['name']:18s} {base:12.5g} "
                f"{statistics.median(b):12.5g} {ratio:15.4f} of {base:<9.4g} "
                f"{metric['bound']:6.2f} {max(spread(a), spread(b)):7.3f}  {result}"
            )
            worse += result == "worse"
        # failed_share has no relative bound: any failure is a regression.
        failed = right.get("failed_share", 0.0)
        result = "worse" if failed > left.get("failed_share", 0.0) else "same"
        print(
            f"{name:16s} {'failed_share':18s} {left.get('failed_share', 0.0):12.5g} "
            f"{failed:12.5g} {'':>25s} {0:6.2f} {0:7.3f}  {result}"
        )
        worse += result == "worse"
    return 1 if worse else 0
