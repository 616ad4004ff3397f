#!/usr/bin/env python3
"""The repo's real-clock benchmark: one command, six workloads.

    python3 benchmarks/e2e/run.py                      # every workload, both passes
    python3 benchmarks/e2e/run.py --workload disk_cold --seed 7 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --selfcheck

With ``--workload`` the process runs that one workload and prints, as its
last line, the JSON object ``BENCHMARK.json``'s contract asks for.
Without it, every workload runs in a fresh interpreter of its own, one
after another.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Everything the benchmark writes goes here (listed in .gitignore).
WORK_ROOT = ROOT / ".bench_e2e"
SMOKE_CYCLES = 2
HASH_SEED = "0"

sys.path.insert(0, str(HERE))
from compare import compare_documents  # noqa: E402  (stdlib only; no src/ needed)


def load_spec() -> Dict[str, Any]:
    with SPEC_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def _with_units(values: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The declared metrics, each with its unit; a missing one is a bug."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    Under the GIL a second core runs no Python in parallel; it only turns
    each thread hand-off into a cross-core wake-up.  On the 2-vCPU
    sandbox that halves ``remote_sharded`` and makes it bimodal from run
    to run (83-132 ops/s unpinned, 158-169 pinned), which no bound could
    resolve.  Worker, shard and tenant counts still follow ``nproc``.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload in this process; the contract's JSON on the last line."""
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e: no src/repro next to the benchmark", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides set order and dict collisions; a fresh
        # random seed per process moved lib_table2 by 6 % between runs of
        # identical inputs.  Start again with it fixed.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    pin_to_one_cpu()

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cycles = SMOKE_CYCLES if args.smoke and args.cycles is None else args.cycles
    seconds = None if cycles is not None else float(args.seconds or spec["run_seconds"])
    workroot = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    if args.trace:
        result = harness.run_per_layer(
            args.workload, args.seed, workroot, seconds, cycles, out=args.out
        )
        result["metrics"] = _with_units(result["metrics"], spec["per_layer"])
    else:
        result = harness.run_end_to_end(
            args.workload,
            args.seed,
            workroot,
            seconds,
            cycles,
            setup_repeats=1 if args.smoke else harness.SETUP_REPEATS,
        )
        result["metrics"] = _with_units(result["metrics"], spec["end_to_end"])
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another workload's run is using it
    for name, metric in result["metrics"].items():
        print(f"{args.workload:16s} {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# every workload, each in its own interpreter
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
    ]
    if args.cycles is not None:
        command += ["--cycles", str(args.cycles)]
    elif args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if args.out is not None:
        command += ["--out", str(args.out)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_set(
    args: argparse.Namespace, spec: Dict[str, Any], traces: tuple = (0, 1)
) -> Dict[str, Any]:
    """Run the chosen workloads ``--repeats`` times; returns the results
    document that ``--compare`` reads."""
    names = [w["name"] for w in spec["workloads"]]
    document: Dict[str, Any] = {"seed": args.seed, "workloads": {}}
    all_correct = True
    for name in names:
        entry = document["workloads"][name] = {
            "correct": True,
            "attempted": 0,
            "failed": 0,
            "end_to_end": {},
            "per_layer": {},
        }
        for _ in range(args.repeats):
            for trace in traces:
                result = _child(args, name, trace)
                entry["correct"] = entry["correct"] and result["correct"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                kind = entry["per_layer" if trace else "end_to_end"]
                for metric, reading in result["metrics"].items():
                    kind.setdefault(metric, {"unit": reading["unit"], "values": []})[
                        "values"
                    ].append(reading["value"])
        entry["failed_share"] = entry["failed"] / max(entry["attempted"], 1)
        print(
            f"{name:16s} {'failed_share':44s} {entry['failed_share']:14.6g} share"
            f"   ({entry['failed']} of {entry['attempted']})"
        )
        all_correct = all_correct and entry["correct"]
    document["correct"] = all_correct
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="timed phase length (default: run_seconds)")
    parser.add_argument("--cycles", type=int, help="run exactly this many cycles instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_CYCLES} cycles, one set-up")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload and pass")
    parser.add_argument("--out", type=Path, help="directory for results.json and span files")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.compare:
        documents = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                documents.append(json.load(handle))
        return compare_documents(spec, *documents)
    if args.workload:
        return run_one(args, spec)
    if args.selfcheck:
        first = run_set(args, spec, traces=(0,))
        second = run_set(args, spec, traces=(0,))
        if not (first["correct"] and second["correct"]):
            return 1
        return compare_documents(spec, first, second)
    document = run_set(args, spec)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        with (args.out / "results.json").open("w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
