#!/usr/bin/env python3
"""Diff a fresh bench_micro run against the checked-in baselines.

Usage:
    ./build/bench/bench_micro --benchmark_min_time=0.05 \
        --benchmark_format=json --benchmark_out=/tmp/bench_micro.json
    python3 bench/compare_baselines.py /tmp/bench_micro.json \
        [bench/baselines/bench_micro.json]

Prints a per-benchmark table of real_time deltas and flags rows outside
an advisory +/-25% band; a benchmark recorded with
--benchmark_repetitions is compared by its median aggregate. The
threshold is advisory by design: the
baselines were recorded on one specific (1-CPU container) machine, and
google-benchmark timings on shared runners jitter well past what a
hard gate could tolerate. The exit code is always 0 unless inputs are
malformed; CI wires this in as a non-blocking step whose output lands in
the job summary.
"""

import json
import os
import sys

THRESHOLD = 0.25  # advisory band: |delta| beyond this is called out


def load_rows(path):
    """One comparable row per benchmark, keyed by its run name: the median
    aggregate when the run repeated it (--benchmark_repetitions), else its
    single iteration row. Other aggregates (mean, stddev, cv) are skipped."""
    with open(path) as fh:
        doc = json.load(fh)
    rows, medians = {}, {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("run_name", bench.get("name"))
        time = bench.get("real_time")
        if not name or not isinstance(time, (int, float)) or time <= 0:
            continue
        if bench.get("run_type") != "aggregate":
            rows[name] = bench
        elif bench.get("aggregate_name") == "median":
            medians[name] = bench
    rows.update(medians)
    return doc.get("context", {}), rows


def fmt_time(ns, unit):
    return f"{ns:,.0f} {unit}"


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_path = argv[1]
    base_path = (
        argv[2]
        if len(argv) == 3
        else os.path.join(os.path.dirname(__file__), "baselines", "bench_micro.json")
    )
    fresh_ctx, fresh = load_rows(fresh_path)
    base_ctx, base = load_rows(base_path)

    fresh_tier = fresh_ctx.get("syn_simd_level", "?")
    base_tier = base_ctx.get("syn_simd_level", "?")
    print(
        f"baseline: {base_path} (cpus={base_ctx.get('num_cpus', '?')}, "
        f"simd={base_tier})"
    )
    print(
        f"fresh:    {fresh_path} (cpus={fresh_ctx.get('num_cpus', '?')}, "
        f"simd={fresh_tier})"
    )
    if fresh_tier != base_tier:
        print(
            f"note: SIMD tier changed ({base_tier} -> {fresh_tier}); "
            "deltas include the tier difference."
        )
    print()

    flagged = []
    width = max((len(n) for n in base), default=20)
    header = f"{'benchmark':<{width}}  {'baseline':>14}  {'fresh':>14}  {'delta':>8}"
    print(header)
    print("-" * len(header))
    for name in sorted(base):
        brow = base[name]
        frow = fresh.get(name)
        if frow is None:
            print(f"{name:<{width}}  {'':>14}  {'(missing)':>14}")
            flagged.append((name, None))
            continue
        bt, ft = brow["real_time"], frow["real_time"]
        delta = ft / bt - 1.0
        mark = ""
        if abs(delta) > THRESHOLD:
            mark = "  <-- " + ("regression?" if delta > 0 else "improvement")
            flagged.append((name, delta))
        print(
            f"{name:<{width}}  {fmt_time(bt, brow.get('time_unit', 'ns')):>14}  "
            f"{fmt_time(ft, frow.get('time_unit', 'ns')):>14}  {delta:>+7.1%}{mark}"
        )
    for name in sorted(set(fresh) - set(base)):
        print(f"{name:<{width}}  {'(new)':>14}  "
              f"{fmt_time(fresh[name]['real_time'], fresh[name].get('time_unit', 'ns')):>14}")

    print()
    if flagged:
        print(f"{len(flagged)} row(s) outside the +/-{THRESHOLD:.0%} advisory band:")
        for name, delta in flagged:
            print(f"  {name}: " + ("missing from fresh run" if delta is None else f"{delta:+.1%}"))
        print(
            "Advisory only -- cross-machine and shared-runner noise routinely "
            "exceeds the band. Re-record bench/baselines/bench_micro.json when "
            "a delta is real (see bench/baselines/README.md)."
        )
    else:
        print(f"All shared rows within the +/-{THRESHOLD:.0%} advisory band.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
