#!/bin/sh
# Trace every entry point DESIGN.md section 7 lists, then report the
# outermost src/repro functions none of them ran (takes a few minutes).
# Usage, from anywhere: tools/reach/run.sh [WORK_DIR]
set -eu
ROOT=$(cd "$(dirname "$0")/../.." && pwd); WORK=${1:-$(mktemp -d)}; cd "$ROOT"
mkdir -p "$WORK/trace"
export REACH_OUT="$WORK/trace" PYTHONPATH="$ROOT/tools/reach:$ROOT/src"
run() { echo "+ $*" >&2; "$@" > "$WORK/last.log" 2>&1 || { cat "$WORK/last.log"; exit 1; }; }
repro() { run python -m repro "$@"; }
repro table2 --shards 4 --replicas 1 --remote wan --pool 4
repro multijoin --remote lan --pool 2
repro index build --synthetic 2000 --out "$WORK/corpus.idx"
repro index stats "$WORK/corpus.idx"
repro index query "$WORK/corpus.idx" --expr "TI='algorithm'" \
    --expr "AB='database' and AB='query'" --io read --cache-mb 1
repro serve --shards 4 --pool 4 --cache
repro qerror demo --store "$WORK/feedback.json"
repro qerror report --store "$WORK/feedback.json"
repro qerror report --store tests/core/feedback_store_v1.json
repro multibackend
repro serve --vector
repro all --trace --feedback "$WORK/all.json"
repro serve --feedback "$WORK/all.json"
for example in examples/*.py; do run python "$example"; done
run python3 benchmarks/e2e/run.py --smoke
for bench in engine serving diskindex feedback multibackend; do
    run python "benchmarks/bench_$bench.py" --smoke
done
run python benchmarks/bench_mqo.py --smoke --out "$WORK/BENCH_mqo.json"
run python -m pytest benchmarks --ignore=benchmarks/e2e -q -p no:cacheprovider
python tools/reach/report.py "$WORK/trace" src/repro
