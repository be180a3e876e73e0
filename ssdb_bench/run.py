#!/usr/bin/env python3
"""SS-DB benchmark entry point.

Run from the repository root:

    python3 ssdb_bench/run.py --workload ssdb_query --seed 1 --seconds 10 --trace 0

Builds the runner (ssdb_bench/CMakeLists.txt, which compiles ../src) into
.bench_build/, runs one workload, and prints diagnostics followed by one
JSON result line with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). Exits non-zero without a result line when the build
or the run fails. See README.md in this directory.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing under the benchmark's paths
import stats  # noqa: E402

BUILD_ROOT = ".bench_build"
WORKLOADS = ("ssdb_query", "ssdb_ingest")


def fail(msg):
    print("ssdb_bench: " + msg, file=sys.stderr)
    sys.exit(1)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; None elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    cmake_dir = os.path.join(BUILD_ROOT, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "ssdb_bench",
                  "-j4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))
    return os.path.join(cmake_dir, "ssdb_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()

    runs = os.path.join(BUILD_ROOT, "runs")
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(runs, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out]
    ticks0 = cpu_ticks()
    proc = subprocess.Popen(cmd)
    try:
        # Set-up, warm-up and the traced run's probes take a few seconds
        # beyond the measured span; at run_seconds this stays inside the
        # contract's 180 s per run.
        rc = proc.wait(timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        proc.kill()
        rc = proc.wait()
    ticks1 = cpu_ticks()
    # A runner that aborted leaves its scratch directories (named
    # <tag>-<pid> by ScratchDir in bench.cc) behind.
    for d in glob.glob(os.path.join(BUILD_ROOT, "tmp", "*-%d" % proc.pid)):
        shutil.rmtree(d, ignore_errors=True)
    if rc != 0 or not os.path.exists(out):
        fail("runner exited with %d" % rc)
    with open(out) as f:
        record = json.load(f)

    attempted, failed = stats.account(record["outcomes"])
    for err in record["errors"]:
        print("# failure: " + err)
    if not record["latency_ms"]:
        fail("no op succeeded (%d attempted)" % attempted)
    if args.trace:
        values = record["layers"]
    else:
        values = stats.end_to_end(record)
    res = stats.result(spec, args.trace, values, attempted, failed)

    drift = record["drift"]
    print("# %s seed=%d trace=%d: %s" % (args.workload, args.seed, args.trace,
                                        record["input"]))
    print("# drift (not a metric): calibration loop %.2f ms at start, "
          "%.2f ms at end" % (drift["calib_start_ms"], drift["calib_end_ms"]),
          end="")
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Host CPU time taken from this machine's CPUs during the run.
        print("; steal %.1f%%" % (100.0 * (ticks1[0] - ticks0[0]) /
                                  (ticks1[1] - ticks0[1])), end="")
    print()
    if not args.trace:
        _, pct, beyond = stats.tail(record["latency_ms"])
        print("# latency_tail_ms is p%.2f: %d of %d samples beyond it"
              % (pct, beyond, len(record["latency_ms"])))
    else:
        print("# spans: " + out + ".spans.json")
    for name, m in res["metrics"].items():
        print("# %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(stats.result_line(res))


if __name__ == "__main__":
    main()
