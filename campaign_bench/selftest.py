#!/usr/bin/env python3
"""Self-test of the campaign benchmark at tiny scale (about a minute).

    python3 campaign_bench/selftest.py

Checks that
  * every workload runs with --trace 0 and --trace 1 at tiny scale, with
    no failed operation and a correct result;
  * every metric BENCHMARK.json names is printed, with its unit;
  * a per-layer metric the workload process does not report counts as a
    failure instead of reading as 0;
  * the digest check trips on a deliberately corrupted reference;
  * the comparison tool's verdicts follow its stated rules, and a change
    with more failed runs than the parent is not classified better.
"""
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark directory

import compare  # noqa: E402
import run as bench_run  # noqa: E402


def run(workload, trace, reference=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--scale", "tiny",
           "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s --trace %d exited with %d" % (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert result["attempted"] >= 1, label
    for m in expected:
        got = result["metrics"].get(m["name"])
        assert got is not None, "%s: metric %s missing" % (label, m["name"])
        assert got["unit"] == m["unit"], "%s: %s unit %s" % (label, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), label
    names = {m["name"] for m in expected}
    assert set(result["metrics"]) == names, "%s: extra metrics %s" % (
        label, set(result["metrics"]) - names)


def test_workloads(bench):
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check_result(run(w["name"], trace), expected, "%s trace=%d" % (w["name"], trace))
            print("ok  %s --trace %d" % (w["name"], trace))


def test_corrupted_reference():
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        table = json.load(f)
    entry = table["tiny"]["ba1m-campaign"]
    key = sorted(entry)[0]
    entry[key] = "0" * 16 + entry[key][16:]
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=BENCH_DIR, delete=False) as f:
        json.dump(table, f)
        path = f.name
    try:
        result = run("ba1m-campaign", 0, reference=path)
    finally:
        os.remove(path)
    assert result["correct"] is False and result["failed"] >= 1, result
    print("ok  corrupted reference trips the digest check (%d of %d failed)" % (
        result["failed"], result["attempted"]))


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(reversed(parent)), "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent[:5], faster[:5], "lower", 0.1)[0] == "unresolved"
    noisy = [1.0, 1.5, 0.7, 1.2, 0.8, 1.4, 0.9, 1.1, 0.6, 1.3]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"
    print("ok  comparison verdicts")


def test_failed_runs_verdict():
    metrics = {"campaign_s.t1": {"name": "campaign_s.t1", "better": "lower", "bound": 0.1}}
    records = []
    for pair in range(10):
        for side, value in (("parent", 1.0 + pair * 0.001), ("change", 0.8)):
            records.append({"pair": pair, "side": side, "workload": "w", "result": {
                "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"campaign_s.t1": {"value": value, "unit": "s"}}}})
    rows, _ = compare.classify(records, metrics)
    assert rows[0][5] == "better", rows
    records.append({"pair": 10, "side": "change", "workload": "w", "result": None})
    rows, failures = compare.classify(records, metrics)
    assert failures[("w", "change")] == 1 and rows[0][5] == "failed", rows
    print("ok  a change with more failed runs is classified failed")


def test_missing_layer():
    layers = {name: 1.0 for name in bench_run.LAYER_UNITS if name not in bench_run.DERIVED}
    layers.update({"campaign_untraced_s": 1.0, "util.pool_busy_frac": 0.5})
    reports = [{"threads": t, "campaign_s": [1.0], "layers": dict(layers)} for t in (1, 2, 4)]
    metrics, missing = bench_run.per_layer(reports)
    assert not missing and set(metrics) == set(bench_run.LAYER_UNITS), missing
    del reports[0]["layers"]["solver.benders_s"]
    del reports[2]["layers"]["core.select_s"]
    metrics, missing = bench_run.per_layer(reports)
    assert missing == ["solver.benders_s (threads=1)", "core.select_s (threads=4)"], missing
    assert "solver.benders_s" not in metrics and "core.select_speedup.t4" not in metrics
    print("ok  an unreported per-layer metric is a failure, not a 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    test_verdicts()
    test_failed_runs_verdict()
    test_missing_layer()
    test_workloads(bench)
    test_corrupted_reference()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
