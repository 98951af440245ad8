#!/usr/bin/env python3
"""Self-test of the benchmark, on short runs of every workload.

    python3 perfbench/selftest.py

Checks that
  * the same seed gives identical inputs and identical comm.* counts,
  * a different seed gives different inputs,
  * every result re-parses, is correct, and validates against the metric
    and workload names in BENCHMARK.json.
Prints one line per check and exits non-zero if any failed.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

COUNTS = ("comm.messages_per_step", "comm.bytes_per_step", "comm.collective_calls_per_step")
SECONDS = 2


def one(workload, seed, trace):
    cmd = [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details_path = bench.build_dir() / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(details_path) as f:
        details = json.load(f)
    return result, details["input_digest"]


def main():
    spec = bench.load_spec()
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        failures += not ok

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            runs = [one(workload, seed, trace) for seed in (1, 1, 2)]
            for (result, _), seed in zip(runs, (1, 1, 2)):
                problems = bench.validate(result, spec, workload, trace)
                check(not problems, f"{workload} seed {seed} trace {trace}: result validates {problems or ''}")
                check(result["correct"] and result["failed"] == 0,
                      f"{workload} seed {seed} trace {trace}: correct, {result['failed']} failed")
            (a, da), (b, db), (_, dc) = runs
            check(da == db, f"{workload} trace {trace}: same seed, same inputs ({da})")
            check(da != dc, f"{workload} trace {trace}: other seed, other inputs ({dc})")
            if trace:
                for name in COUNTS:
                    va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                    check(va == vb, f"{workload}: {name} repeats exactly ({va} vs {vb})")
    print(f"{failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
