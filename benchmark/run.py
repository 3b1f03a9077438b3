#!/usr/bin/env python3
"""Build approx_bench from source and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
build-bench/ (the benchmark's CMake project compiles ../src itself); later
calls rebuild incrementally.  Compiler and child output go to stderr;
approx_bench's "<workload> <metric> <value> <unit>" lines go to stdout,
and the last stdout line is one JSON object:

    {"correct": true, "attempted": N, "failed": F,
     "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  Exits nonzero without that line when the
sources are missing, the build fails, the run fails or a declared metric
is missing or not finite; a run that served wrong bytes prints
"correct": false and exits 1.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
EXE = BUILD / "approx_bench"
# A run must end within 180 s, and a first run that builds within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def die(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "approx_bench",
                  "-j", "4"])
    for cmd in steps:
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            die(f"build step failed ({code}): {' '.join(cmd)}", 2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: checks the plumbing, not the speed")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found", 2)
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}", 2)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out_dir = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out_dir)]
    if args.trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    results = out_dir / "results.json"
    if results.exists():
        results.unlink()
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if not results.is_file():
        die(f"approx_bench exited {code} without results")
    w = json.loads(results.read_text())["workloads"][args.workload]
    if not w["correct"]:
        print(json.dumps({"correct": False, "attempted": w["attempted"],
                          "failed": w["failed"], "metrics": {}}))
        sys.exit(1)
    if w["exit_code"] != 0:
        die(f"workload {args.workload} exited {w['exit_code']}")

    metrics = {}
    for m in declared:
        got = w["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            die(f"metric {m['name']} missing or not finite")
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']} has unit {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": w["attempted"],
                      "failed": w["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
