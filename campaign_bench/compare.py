#!/usr/bin/env python3
"""Compares two result sets of the campaign benchmark.

Collect alternating pairs from two checkouts (the parent and the change),
each holding this benchmark:

    python3 campaign_bench/compare.py run --parent ../parent --change . \\
        --pairs 10 --out pairs.jsonl

Pair i runs every workload of the change's BENCHMARK.json on both sides
for its run_seconds, parent first when i is even and change first when i
is odd, with seed 1000 + i on both sides. Then report:

    python3 campaign_bench/compare.py report pairs.jsonl

For every workload and end-to-end metric the report gives each side's
median and quartiles, the change/parent ratio with its base, the change's
share of pair wins (ties count for neither side) and a verdict:

  better      at least 10 pairs, the change wins at least 9/10 of them, and
              its median is better than the parent's by more than the
              parent's interquartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json) and by more than the
              parent's interquartile distance;
  unchanged   neither, and the parent's own spread is within the bound;
  unresolved  fewer than 10 pairs, or the parent's spread is wider than the
              bound (unless every change run beats every parent run);
  failed      the change side has more failed or incorrect runs on the
              workload than the parent side; this overrides every other
              verdict, since a gain does not count when more runs fail.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def run_pairs(args):
    bench, _ = load_benchmark(os.path.join(args.change, "BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    with open(args.out, "a") as out:
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            for workload in workloads:
                for side, root in sides:
                    cmd = [sys.executable, "campaign_bench/run.py", "--workload", workload,
                           "--seed", str(1000 + i), "--seconds", str(seconds), "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                    out.write(json.dumps({"pair": i, "side": side, "workload": workload,
                                          "result": result}) + "\n")
                    out.flush()
                    print("pair %d %s %s: %s" % (i, workload, side,
                                                 "ok" if result else "exit %d" % proc.returncode),
                          file=sys.stderr)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Classifies one metric from per-pair values (equal-length lists)."""
    n = len(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    iqr = p_q3 - p_q1
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)  # > 0 means the change is better
    if n >= 10 and wins >= 0.9 * n and gain > iqr:
        return "better", wins
    if -gain > bound * abs(p_med) and -gain > iqr:
        return "worse", wins
    if n < 10:
        return "unresolved", wins
    every = all(sign * (c - p) > 0 for c in change for p in parent)
    if iqr > bound * abs(p_med) and not every:
        return "unresolved", wins
    return "unchanged", wins


def classify(records, metrics):
    """Returns one row per (workload, end-to-end metric) of a result set:
    (workload, name, unit, parent values, change values, verdict, wins)."""
    rows = {}
    failures = {}  # (workload, side) -> failed or incorrect runs
    for rec in records:
        res = rec["result"]
        key = (rec["workload"], rec["side"])
        failures.setdefault(key, 0)
        if res is None or not res["correct"]:
            failures[key] += 1
            continue
        for name, m in res["metrics"].items():
            rows.setdefault((rec["workload"], name), {}).setdefault(rec["pair"], {})[
                rec["side"]] = (m["value"], m["unit"])
    out = []
    for (workload, name), pairs in sorted(rows.items()):
        if name not in metrics:
            continue
        both = [v for _, v in sorted(pairs.items()) if "parent" in v and "change" in v]
        if not both:
            continue
        parent = [v["parent"][0] for v in both]
        change = [v["change"][0] for v in both]
        m = metrics[name]
        result, wins = verdict(parent, change, m["better"], m["bound"])
        if failures.get((workload, "change"), 0) > failures.get((workload, "parent"), 0):
            result = "failed"
        out.append((workload, name, both[0]["parent"][1], parent, change, result, wins))
    return out, failures


def report(args):
    _, metrics = load_benchmark(args.benchmark)
    with open(args.results) as f:
        records = [json.loads(line) for line in f]
    rows, failures = classify(records, metrics)
    for (workload, side), n in sorted(failures.items()):
        runs = sum(1 for r in records if (r["workload"], r["side"]) == (workload, side))
        print("%s: %s side: %d of %d runs failed or incorrect" % (workload, side, n, runs))
    print("%-14s %-15s %5s %-30s %-30s %-40s %6s %s" % (
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio change/parent (base)", "wins", "verdict"))
    for workload, name, unit, parent, change, result, wins in rows:
        p_med, c_med = statistics.median(parent), statistics.median(change)
        pq, cq = quartiles(parent), quartiles(change)
        ratio = "%.3f (%.4g %s / %.4g %s)" % (c_med / p_med if p_med else float("nan"),
                                              c_med, unit, p_med, unit)
        print("%-14s %-15s %5d %-30s %-30s %-40s %3d/%-2d %s" % (
            workload, name, len(parent), "%.4g [%.4g, %.4g]" % (p_med, *pq),
            "%.4g [%.4g, %.4g]" % (c_med, *cq), ratio, wins, len(parent), result))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="collect alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="root of the parent checkout")
    r.add_argument("--change", required=True, help="root of the changed checkout")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="classify every metric of a collected result set")
    p.add_argument("results")
    p.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = ap.parse_args()
    return run_pairs(args) if args.cmd == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
