#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds and reports, for
each end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

    python3 ssdb_bench/prove.py --workloads ssdb_query,ssdb_ingest \
        --seeds 1-10 [--seconds 10] [--json out.json]

A spread above a third of its bound is flagged and fails the check, for
setup_s too: such a metric is too noisy for its bound to catch a
regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" %
                           (workload, seed, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    drift = [l for l in lines if l.startswith("# drift")]
    return json.loads(lines[-1]), drift[0] if drift else ""


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    ok = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds_of(args.seeds):
            res, drift = run_once(wl, seed, seconds)
            if not res["correct"]:
                print("%s seed %d: INCORRECT %r" % (wl, seed, res))
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: p50 %.4g ms  ops/s %.4g  setup %.4g s  %s" % (
                wl, seed, res["metrics"]["latency_p50_ms"]["value"],
                res["metrics"]["ops_per_s"]["value"],
                res["metrics"]["setup_s"]["value"], drift), flush=True)
        report[wl] = {}
        for m in spec["end_to_end"]:
            med, sp = spread(values[m["name"]])
            flag = ""
            if sp > m["bound"] / 3:
                flag = "  <-- above bound/3"
                ok = False
            report[wl][m["name"]] = {"median": med, "spread": sp,
                                     "bound": m["bound"],
                                     "values": values[m["name"]]}
            print("  %-24s median %12.6g  spread %6.3f  bound %.2f%s" % (
                m["name"], med, sp, m["bound"], flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
