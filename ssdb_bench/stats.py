"""Reduction of one runner record to the benchmark's metrics.

The C++ runner (main.cc) writes raw measurements; everything that turns
them into reported numbers lives here so it can be unit-tested
(test_stats.py): the tail-percentile rule, failure accounting and the
result-line printer.
"""

import json
import statistics


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, beyond): the 11th-largest sample, the
    percentile it sits at, and how many samples lie beyond it. With ten
    or fewer samples no percentile qualifies; the maximum is returned with
    beyond = 0 so the caller can see the tail is unsupported.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


# Ops per group of the p50 estimator: a whole number of each workload's
# op cycles (4 query regions; 16 ingest epochs per array, merges on 4).
P50_GROUP = 16


def p50(samples):
    """Median op latency, taken in groups of consecutive ops.

    The median of each full group of P50_GROUP consecutive samples,
    averaged over the groups; a run shorter than one group gives its
    plain median. The host this runs on switches between fast and slow
    phases that last tens of seconds. A run that straddles a switch has
    two latency modes, and a whole-run median jumps to whichever mode
    holds half the ops; the average of group medians moves in proportion
    to the time spent in each, while each group's median still ignores
    the odd slow op.
    """
    if not samples:
        raise ValueError("no samples")
    groups = len(samples) // P50_GROUP
    if groups == 0:
        return statistics.median(samples)
    return statistics.fmean(
        statistics.median(samples[g * P50_GROUP:(g + 1) * P50_GROUP])
        for g in range(groups))


def account(outcomes):
    """(attempted, failed) from per-op outcomes: 0 ok, else failed.

    Engine errors, refusals such as Busy, and wrong results all count as
    failed attempts.
    """
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o != 0)
    return attempted, failed


def end_to_end(record):
    """The end-to-end metric values of an untraced record."""
    lat = record["latency_ms"]
    if not lat:
        raise ValueError("no successful op")
    ops = len(lat)
    wall = record["wall_s"]
    value, _, _ = tail(lat)
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "ops_per_s": ops / wall,
        "cells_per_s": record["input_cells"] / wall,
        "latency_p50_ms": p50(lat),
        "latency_tail_ms": value,
        "cpu_ms_per_op": record["cpu_s"] * 1000.0 / ops,
        "peak_rss_mb": record["peak_rss_mb"],
        "stored_bytes_per_cell": record["stored_bytes_per_cell"],
    }


def result(spec, trace, values, attempted, failed):
    """The contract's result object: every metric of the chosen list.

    Raises KeyError when a metric named in the spec has no value, so an
    incomplete run can never print a result.
    """
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}
    return {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def result_line(res):
    return json.dumps(res, separators=(", ", ": "))
