#!/usr/bin/env python3
"""Campaign benchmark: one command for every workload.

    python3 campaign_bench/run.py --workload ba1m-campaign --seed 1 \\
        --seconds 20 --trace 0

The first call configures and builds `campaign_bench/` (which compiles
`src/` in Release) into `.bench_build/` at the root of the checkout that
holds this file, and writes the 1M-node graph file there; later calls
reuse both.

Each thread count runs in its own process, one after the other. With
`--trace 0` one process with a 1-worker pool measures for the whole
`--seconds` and the end-to-end metrics are printed; with `--trace 1`
processes with 1-, 2- and 4-worker pools share `--seconds`, record spans,
and the per-layer metrics are printed; a per-layer metric the processes
did not report counts as a failed operation. Every campaign's
digest (requested node ids and exact total benefit) is compared with the
serial reference in `reference.json`; a mismatch, an exception or a serve
campaign that does not complete counts as a failed operation.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--write-reference` reruns every workload once with a 1-worker pool and
rewrites the reference digests for the chosen `--scale`.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ba1m-campaign", "table3-serve", "fig6-saa")
PROCESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    """The build directory of the checkout that holds this file."""
    return os.path.join(os.path.dirname(BENCH_DIR), ".bench_build")


def configured_source(cmake_dir):
    """The source directory an existing CMake cache was configured for."""
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(root):
    """Configures (once) and builds campaign_bench; returns the binary's path."""
    cmake_dir = os.path.join(root, "cmake")
    source = configured_source(cmake_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(BENCH_DIR):
        log("build cache was configured for %s; reconfiguring" % source)
        shutil.rmtree(cmake_dir)
        source = None
    if source is None:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", cmake_dir, "--target", "campaign_bench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(cmake_dir, "campaign_bench")


def ensure_data(binary, data_dir, scale):
    path = os.path.join(data_dir, "ba1m-%s.bin" % scale)
    if not os.path.exists(path):
        os.makedirs(data_dir, exist_ok=True)
        cmd = [binary, "--generate", data_dir, "--scale", scale]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("graph generation failed")
        # campaign_bench skips flushes (see campaign_bench.cc); flush the new file
        # here so its writeback does not overlap the first timed run.
        with open(path, "rb") as f:
            os.fsync(f.fileno())


def run_process(binary, root, workload, threads, seconds, seed, trace, scale):
    """Runs one workload process in an emptied state directory."""
    state = os.path.join(root, "state", workload)
    shutil.rmtree(state, ignore_errors=True)
    os.makedirs(state)
    cmd = [binary, "--workload", workload, "--threads", str(threads),
           "--seconds", repr(seconds), "--seed", str(seed), "--trace", str(trace),
           "--scale", scale, "--data", os.path.join(root, "data"), "--state", state]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=PROCESS_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s (threads=%d) exited with %d" % (workload, threads, proc.returncode))
    return json.loads(lines[-1])


def check_digests(reports, expected):
    """Counts digests that differ from (or are missing in) the reference."""
    mismatches = 0
    for rep in reports:
        for key, digest in rep["digests"]:
            if expected.get(key) != digest:
                mismatches += 1
                log("digest mismatch: %s threads=%d %s: got %s, want %s" % (
                    rep["workload"], rep["threads"], key, digest, expected.get(key)))
    return mismatches


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reports):
    (rep,) = reports
    return {
        "setup_s": metric(statistics.median(rep["setup_s"]), "s"),
        "campaign_s.t1": metric(statistics.median(rep["campaign_s"]), "s"),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MB"),
    }


# Per-layer metrics and their units. campaign_bench reports a layer that
# does no work on a workload (the solver on ba1m-campaign, the service
# outside table3-serve, a graph file map outside ba1m-campaign) as an
# explicit 0; a name it does not report at all is a failure, not a 0.
LAYER_UNITS = {
    "graph.map_s": "s", "graph.map_mbps": "MB/s", "graph.generate_s": "s",
    "sim.make_problem_s": "s", "sim.world_s": "s",
    "trace.bytes": "bytes", "trace.write_s": "s",
    "core.select_s": "s", "core.select_first_s": "s", "core.select_rest_s": "s",
    "core.batches": "count", "core.requests": "count",
    "campaign_s.t2": "s", "campaign_s.t4": "s",
    "core.select_s.t2": "s", "core.select_s.t4": "s",
    "core.select_speedup.t2": "ratio", "core.select_speedup.t4": "ratio",
    "core.observe_s": "s",
    "ckpt.bytes": "bytes", "ckpt.serialize_s": "s", "ckpt.publish_s": "s",
    "ckpt.load_last_good_s": "s", "ckpt.generations": "count", "ckpt.campaign_s": "s",
    "service.submit_s": "s", "service.latency_p50_s": "s", "service.latency_max_s": "s",
    "solver.sample_s": "s", "solver.fob_exact_s": "s", "solver.benders_s": "s",
    "solver.fob_greedy_s": "s", "solver.bnb_nodes": "count", "solver.saa_evals": "count",
    "solver.exact_frac": "ratio",
    "util.pool_busy_frac.t2": "ratio", "util.pool_busy_frac.t4": "ratio",
    "self_s.core": "s", "self_s.solver": "s", "self_s.sim": "s", "self_s.trace": "s",
    "self_s.ckpt": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}
# Metrics run.py derives from the 2- and 4-worker processes or from two
# reported values; every other name is read as is from the 1-worker process.
DERIVED = {"campaign_s.t2", "campaign_s.t4", "core.select_s.t2", "core.select_s.t4",
           "core.select_speedup.t2", "core.select_speedup.t4",
           "util.pool_busy_frac.t2", "util.pool_busy_frac.t4", "trace.overhead_frac"}


def per_layer(reports):
    """Returns the per-layer metrics and a list of the values that are missing."""
    by_threads = {rep["threads"]: rep for rep in reports}
    missing = []

    def get(threads, name):
        value = by_threads[threads]["layers"].get(name)
        if value is None:
            missing.append("%s (threads=%d)" % (name, threads))
        return value

    def ratio(name, num, den):
        if num is None or den is None:
            return None
        if den == 0:
            missing.append("%s (zero base)" % name)
            return None
        return num / den

    values = {name: get(1, name) for name in LAYER_UNITS if name not in DERIVED}
    for threads in (2, 4):
        t = "t%d" % threads
        # Untraced campaigns of the traced 2- and 4-worker processes.
        values["campaign_s." + t] = statistics.median(by_threads[threads]["campaign_s"])
        values["core.select_s." + t] = get(threads, "core.select_s")
        values["core.select_speedup." + t] = ratio(
            "core.select_speedup." + t, values["core.select_s"], values["core.select_s." + t])
        values["util.pool_busy_frac." + t] = get(threads, "util.pool_busy_frac")
    values["trace.overhead_frac"] = ratio(
        "trace.overhead_frac", values["trace.overhead_s"], get(1, "campaign_untraced_s"))
    metrics = {name: metric(values[name], unit) for name, unit in LAYER_UNITS.items()
               if values[name] is not None}
    return metrics, missing


def write_reference(binary, root, scale, path):
    table = {}
    if os.path.exists(path):
        with open(path) as f:
            table = json.load(f)
    table[scale] = {}
    for workload in WORKLOADS:
        rep = run_process(binary, root, workload, 1, 0.0, 0, 0, scale)
        if rep["failed"]:
            raise RuntimeError("%s failed: %s" % (workload, rep["errors"]))
        digests = {}
        for key, digest in rep["digests"]:
            if digests.setdefault(key, digest) != digest:
                raise RuntimeError("%s: %s is not deterministic" % (workload, key))
        table[scale][workload] = dict(sorted(digests.items()))
    with open(path, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    log("wrote %s" % path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", default=os.path.join(BENCH_DIR, "reference.json"))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    root = build_root()
    try:
        binary = build(root)
        ensure_data(binary, os.path.join(root, "data"), args.scale)
        if args.write_reference:
            write_reference(binary, root, args.scale, args.reference)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        with open(args.reference) as f:
            expected = json.load(f)[args.scale][args.workload]
        threads = (1, 2, 4) if args.trace else (1,)
        share = args.seconds / len(threads)
        reports = [run_process(binary, root, args.workload, t, share, args.seed, args.trace,
                               args.scale) for t in threads]
    except (RuntimeError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as e:
        log("campaign_bench: %s" % e)
        return 1

    for rep in reports:
        for err in rep["errors"]:
            log("failed: %s threads=%d: %s" % (rep["workload"], rep["threads"], err))
    failed = sum(int(rep["failed"]) for rep in reports) + check_digests(reports, expected)
    attempted = sum(int(rep["attempted"]) for rep in reports)
    if args.trace:
        metrics, missing = per_layer(reports)
        for name in missing:
            log("failed: per-layer metric not reported: %s" % name)
        failed += len(missing)
    else:
        metrics = end_to_end(reports)
    for name, m in metrics.items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
