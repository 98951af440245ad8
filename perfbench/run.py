#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only re-check the build.
Build output goes to stderr.  The last stdout line is the result object,
validated against the metric and workload names in BENCHMARK.json.
Exits non-zero, printing no result, when the build fails or the result
does not validate.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(bdir):
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, stderr=sys.stderr, check=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def validate(result, spec, workload, trace):
    """Problems of a result object against BENCHMARK.json ([] = valid)."""
    problems = []
    if workload not in {w["name"] for w in spec["workloads"]}:
        problems.append(f"workload {workload!r} is not in BENCHMARK.json")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return problems + ["result must have exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key, low in (("attempted", 1), ("failed", 0)):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            problems.append(f"{key} must be an integer >= {low}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        if name not in wanted:
            continue
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value is not a finite number")
        if not isinstance(m, dict) or m.get("unit") != wanted[name]:
            problems.append(f"{name}: unit must be {wanted[name]!r}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"perfbench: result line does not parse: {e}", file=sys.stderr)
        return 1
    problems = validate(result, load_spec(), args.workload, args.trace)
    if problems:
        for p in problems:
            print(f"perfbench: invalid result: {p}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
