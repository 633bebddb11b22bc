#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or the ones named) once per seed, untraced, and reports
for each end-to-end metric the median of its values and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. A metric is steady when its spread is within its
bound in BENCHMARK.json; the target is a third of the bound.

    python3 .perfbench/steadiness.py --seeds 1-10 [--workload read-mostly ...] \
        [--out .perfbench/STEADINESS.json]

Run from the repository root. With --traced-against it runs each seed traced
instead and reports the tracing overhead (the traced run's "trace.<metric>"
median minus the untraced median of the same seeds in the given report) and
the median of every per-layer metric:

    python3 .perfbench/steadiness.py --seeds 1-3 \
        --traced-against .perfbench/STEADINESS.json --out .perfbench/TRACED.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.time()
    p = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{lines[-2][:2000]}")
    return res, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / statistics.median(values)


def traced(args, bench, workloads):
    """Runs each seed traced and compares with an untraced baseline report."""
    base = json.load(open(args.traced_against))
    report = {"seconds": bench["run_seconds"], "seeds": seeds(args.seeds), "workloads": {}}
    for w in workloads:
        layer, walls = {}, []
        for seed in report["seeds"]:
            res, wall = run(bench["command"], w, seed, bench["run_seconds"], True)
            walls.append(wall)
            for k, v in res["metrics"].items():
                layer.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed} traced: {wall:.1f}s", file=sys.stderr, flush=True)
        bw = base["workloads"][w]["metrics"]
        overhead = {}
        for m in bench["end_to_end"]:
            k = m["name"]
            untraced = [v for s, v in zip(base["seeds"], bw[k]["values"]) if s in report["seeds"]]
            t, u = statistics.median(layer["trace." + k]), statistics.median(untraced)
            overhead[k] = {"traced_median": t, "untraced_median": u, "overhead": t - u}
            print(f"  {w:14s} {k:22s} traced {t:10.4f} untraced {u:10.4f} overhead {t - u:+.4f}",
                  file=sys.stderr, flush=True)
        report["workloads"][w] = {
            "tracing_overhead": overhead,
            "per_layer_median": {k: statistics.median(v) for k, v in sorted(layer.items())},
            "wall_s": walls,
        }
    return report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--traced-against", metavar="STEADINESS.json",
                    help="run traced instead and report the tracing overhead against this untraced report")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.traced_against:
        report = traced(args, bench, workloads)
    else:
        report = steadiness(args, bench, workloads)
    out = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(out + "\n")
    else:
        print(out)


def steadiness(args, bench, workloads):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": bench["run_seconds"], "seeds": seeds(args.seeds), "workloads": {}}
    for w in workloads:
        values, walls = {}, []
        for seed in report["seeds"]:
            res, wall = run(bench["command"], w, seed, bench["run_seconds"], False)
            walls.append(wall)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: {wall:.1f}s", file=sys.stderr, flush=True)
        rows = {}
        for k, vs in sorted(values.items()):
            med, q1, q3, sp = spread(vs)
            rows[k] = {"values": vs, "median": med, "q1": q1, "q3": q3, "spread": sp,
                       "bound": bounds.get(k), "within_third": sp <= bounds.get(k, 0) / 3}
            flag = "ok" if rows[k]["within_third"] else ("WITHIN BOUND" if sp <= bounds.get(k, 0) else "UNSTEADY")
            print(f"  {w:14s} {k:22s} median {med:10.4f} spread {sp:6.3f} bound {bounds.get(k)} {flag}",
                  file=sys.stderr, flush=True)
        report["workloads"][w] = {"metrics": rows, "wall_s": walls}
    return report


if __name__ == "__main__":
    main()
