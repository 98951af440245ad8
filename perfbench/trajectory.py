#!/usr/bin/env python3
"""Record one point of the benchmark trajectory.

    python3 perfbench/trajectory.py --label <name> [--runs 10] [--first-seed 1]

Runs every workload in BENCHMARK.json --runs times untraced (seeds
first-seed, first-seed + 1, ...) and once traced, each for run_seconds.
Writes perfbench/results/<label>.json (every value, plus median, quartiles
and spread = (q3 - q1) / median of each end-to-end metric, as
statistics.quantiles(n=4) gives them; and the traced run's per-layer
metrics) and perfbench/results/<label>.md (the same as tables).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {len(os.sched_getaffinity(0))} cpus"


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def markdown(doc, spec):
    lines = [f"# Benchmark trajectory point: {doc['label']}", "",
             f"{doc['runs']} untraced runs per workload (seeds {doc['seeds'][0]}..{doc['seeds'][-1]}), "
             f"{doc['run_seconds']} s each, on {doc['machine']}.  "
             "Median, quartiles and spread = (q3 - q1) / median.", ""]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w, entry in doc["workloads"].items():
        lines += [f"## {w}", "", f"Failed: {entry['failed']} of {entry['attempted']} attempted.", "",
                  "| metric | unit | median | q1 | q3 | spread | bound |", "|---|---|---|---|---|---|---|"]
        for name, s in entry["end_to_end"].items():
            lines.append(f"| `{name}` | {units[name]} | {s['median']:.5g} | {s['q1']:.5g} | "
                         f"{s['q3']:.5g} | {s['spread']:.3f} | {bounds[name]} |")
        lines += ["", f"Traced run (seed {entry['traced_seed']}):", "",
                  "| per-layer metric | unit | value |", "|---|---|---|"]
        for name, v in entry["per_layer"].items():
            lines.append(f"| `{name}` | {units[name]} | {v:.5g} |")
        lines.append("")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = bench.load_spec()
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    doc = {"label": args.label, "runs": args.runs, "seeds": seeds, "run_seconds": seconds,
           "machine": machine(), "workloads": {}}
    for w in [x["name"] for x in spec["workloads"]]:
        values, attempted, failed = {}, 0, 0
        for seed in seeds:
            r = run_once(w, seed, seconds, 0)
            attempted += r["attempted"]
            failed += r["failed"]
            print(w, seed, json.dumps({k: v["value"] for k, v in r["metrics"].items()}), flush=True)
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        traced = run_once(w, seeds[0], seconds, 1)
        doc["workloads"][w] = {
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out = bench.BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    (out / f"{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    (out / f"{args.label}.md").write_text(markdown(doc, spec))
    print(f"wrote {out / (args.label + '.json')} and .md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
