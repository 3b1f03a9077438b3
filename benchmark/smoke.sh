#!/bin/sh
# Plumbing check for the benchmark: builds approx_bench, then runs every
# workload of BENCHMARK.json at tiny sizes through benchmark/run.py, once
# untraced and once traced.  run.py fails unless every declared metric
# (end_to_end, then per_layer) comes back finite with its declared unit
# and every byte read matched the input.  Sizes are far too small for the
# numbers to mean anything; this only proves the pipeline end to end.
#
#   sh benchmark/smoke.sh        (from the repository root)
set -eu
cd "$(dirname "$0")/.."

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in $workloads; do
  for trace in 0 1; do
    line=$(python3 benchmark/run.py --workload "$w" --seed 1 --seconds 1 \
             --trace "$trace" --smoke | tail -n 1)
    printf '%s' "$line" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, r
print("ok", sys.argv[1], "trace=" + sys.argv[2], len(r["metrics"]), "metrics")
' "$w" "$trace"
  done
done
