#!/usr/bin/env python3
"""Perf gate: compare bench output against the committed baselines
(bench/baseline.json, bench/baseline_perf.json) and fail on
regressions.

Usage:
    check_bench_trend.py
        [--perf-current BENCH_PR2.json]
        [--perf-baseline bench/baseline_perf.json]
        [--threshold 0.50]
        [--service-current bench_service.json]
        [--baseline bench/baseline.json]
        [--service-threshold 0.30]
        [--min-v3-ratio 3.0]
        [--min-router-ratio 0.7]
        [--max-trace-overhead 0.05]

Two independent comparisons, each optional, both against COMMITTED
baselines — no artifact chaining anywhere, so sub-threshold drift
cannot accumulate across runs: every run answers to the same pinned
numbers.

  * --perf-current names this run's bench_perf JSON (schema
    treesched-bench-pr2: {"benchmarks": [{"name", "ns_per_op",
    "items_per_second"}, ...]}) and gates it against the committed
    --perf-baseline — "BM_Sched/<algorithm>" on ns_per_op (up >
    --threshold fails), "BM_Service/..." on items_per_second (down >
    --threshold fails). The threshold is loose by default: absolute
    microbenchmark numbers are hardware-dependent and CI runners
    differ from the reference box.

  * --service-current names this run's bench_service JSON (schema
    treesched-bench-service-v9). Its loopback-server requests/sec are
    gated against the committed --baseline. Absolute rps keys gate at
    --service-threshold (loose: they cross the kernel loopback stack
    and a real scheduler pool). Hardware-relative ratios gate
    regardless of the machine: the v3-batch-16-over-text-v2 ratio
    must stay >= --min-v3-ratio (the protocol-v3 acceptance bar), the
    routed-over-direct
    cache-hit throughput through the cluster router must stay >=
    --min-router-ratio (both paths hit the SAME backend in the same
    bench run, so this too holds on any machine), the fractional rps
    lost with the span recorder enabled (trace_overhead_ratio, tracer
    off vs on in the same run) must stay <= --max-trace-overhead, and
    the cached/uncached speedup gates like an rps key.

Updating the baselines
----------------------
Each baseline is a bench run committed to the repo. Regenerate ONLY
alongside the change that legitimately moved the numbers (an
intentional perf change, a bench-shape change, or new reference
hardware), and commit the refreshed file in the same PR so reviewers
see old and new numbers in one diff:

    ./build/bench_service --json bench/baseline.json
    ./build/bench_perf --benchmark_filter='BM_Sched|BM_Service' \\
        --benchmark_min_time=0.1 --bench_json=bench/baseline_perf.json
    git add bench/baseline.json bench/baseline_perf.json

Absolute values are machine-dependent; if CI moves to different
hardware, regenerate there (or widen the thresholds in the workflow)
— the ratio gates keep protecting the protocol contract either way.

Benchmarks/keys present on only one side are reported but never fail
the build (new benchmarks appear, old ones are retired).

Exit status: 0 = no regression (or nothing comparable), 1 = regression,
2 = usage/parse error.
"""

import argparse
import json
import os
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_trend: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_entries(path):
    """(ns_per_op by BM_Sched name, items_per_second by BM_Service name)."""
    doc = load_json(path)
    sched, service = {}, {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        ns = bench.get("ns_per_op")
        ips = bench.get("items_per_second")
        if name.startswith("BM_Sched/") and isinstance(ns, (int, float)) \
                and ns > 0:
            sched[name] = float(ns)
        if name.startswith("BM_Service") and isinstance(ips, (int, float)) \
                and ips > 0:
            service[name] = float(ips)
    return sched, service


# Loopback/throughput keys gated against the committed baseline:
# "current may not drop more than --service-threshold below baseline".
LOOPBACK_KEYS = (
    "server_cached_rps",
    "server_uncached_rps",
    "server_v2_batch1_rps",
    "server_v3_batch1_rps",
    "server_v3_batch16_rps",
    "server_v3_batch256_rps",
    "server_v3_uncached_rps",
    "server_uds_v2_batch1_rps",
    "server_uds_v3_batch16_rps",
    "router_direct_rps",
    "router_routed_rps",
    "speedup",
)


def load_loopback(path):
    doc = load_json(path)
    entries = {}
    for key in LOOPBACK_KEYS:
        value = doc.get(key)
        if isinstance(value, (int, float)) and value > 0:
            entries[key] = float(value)
    return entries


def compare(label, current, previous, threshold, lower_is_better):
    """Prints the table for one metric family; returns its regressions."""
    if not previous:
        print(f"check_bench_trend: reference has no {label} entries; "
              "nothing to gate")
        return []
    unit = "ns/op" if lower_is_better else "items/s"
    regressions = []
    print(f"{label:<40} {f'base {unit}':>14} {f'cur {unit}':>14} "
          f"{'delta':>8}")
    for name in sorted(set(current) | set(previous)):
        if name not in current:
            print(f"{name:<40} {previous[name]:>14.0f} {'(gone)':>14} "
                  f"{'':>8}")
            continue
        if name not in previous:
            print(f"{name:<40} {'(new)':>14} {current[name]:>14.0f} "
                  f"{'':>8}")
            continue
        ratio = current[name] / previous[name] - 1.0
        # For throughput, a *decrease* is the regression.
        regressed = ratio > threshold if lower_is_better \
            else ratio < -threshold
        marker = "  << REGRESSION" if regressed else ""
        print(f"{name:<40} {previous[name]:>14.0f} {current[name]:>14.0f} "
              f"{ratio:>+7.1%}{marker}")
        if regressed:
            regressions.append((name, ratio))
    print()
    return regressions


def default_baseline(name):
    """bench/<name> relative to the repo root (this script's parent
    directory's parent), so the gate works from any CWD."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), "bench", name)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--perf-current", default=None,
                        help="this run's BENCH_PR2.json (bench_perf)")
    parser.add_argument("--perf-baseline",
                        default=default_baseline("baseline_perf.json"),
                        help="committed baseline bench_perf JSON (default: "
                             "bench/baseline_perf.json in this repo)")
    parser.add_argument("--threshold", type=float, default=0.50,
                        help="allowed fractional change for BM_Sched ns/op "
                             "and BM_Service items/sec vs. the committed "
                             "baseline, loose because absolute "
                             "microbenchmark numbers are hardware-dependent "
                             "(default 0.50)")
    parser.add_argument("--service-current", default=None,
                        help="this run's bench_service.json (loopback rps)")
    parser.add_argument("--baseline",
                        default=default_baseline("baseline.json"),
                        help="committed baseline bench_service.json "
                             "(default: bench/baseline.json in this repo)")
    parser.add_argument("--service-threshold", type=float, default=0.30,
                        help="allowed fractional rps decrease vs. the "
                             "committed baseline, looser because the numbers "
                             "include kernel noise (default 0.30)")
    parser.add_argument("--min-v3-ratio", type=float, default=3.0,
                        help="required server_v3_over_v2_batch16 in the "
                             "current run — hardware-relative, so it gates "
                             "on any machine (default 3.0; 0 disables)")
    parser.add_argument("--min-router-ratio", type=float, default=0.7,
                        help="required router_over_direct_ratio (cache-hot "
                             "rps through the cluster router over the same "
                             "backend hit directly) in the current run — "
                             "both paths measured in the SAME run, so it "
                             "gates on any machine (default 0.7; 0 disables)")
    parser.add_argument("--max-trace-overhead", type=float, default=0.05,
                        help="allowed trace_overhead_ratio (fractional "
                             "cache-hot rps lost with the span recorder "
                             "enabled) in the current run — tracer off and "
                             "on are measured in the SAME run, so it gates "
                             "on any machine (default 0.05; negative "
                             "disables)")
    args = parser.parse_args()

    regressions = []
    if args.perf_current is not None:
        if os.path.exists(args.perf_baseline):
            cur_sched, cur_service = load_entries(args.perf_current)
            base_sched, base_service = load_entries(args.perf_baseline)
            regressions += compare("BM_Sched vs baseline (ns/op)", cur_sched,
                                   base_sched, args.threshold,
                                   lower_is_better=True)
            regressions += compare("BM_Service vs baseline (items/s)",
                                   cur_service, base_service, args.threshold,
                                   lower_is_better=False)
        else:
            print(f"check_bench_trend: no baseline at {args.perf_baseline}; "
                  "skipping the bench_perf comparison")

    compared = 0
    if args.service_current:
        doc = load_json(args.service_current)
        if os.path.exists(args.baseline):
            regressions += compare(
                "loopback server vs baseline (rps)",
                load_loopback(args.service_current),
                load_loopback(args.baseline), args.service_threshold,
                lower_is_better=False)
            compared += 1
        else:
            print(f"check_bench_trend: no baseline at {args.baseline}; "
                  "skipping the loopback comparison")
        ratio = doc.get("server_v3_over_v2_batch16")
        if args.min_v3_ratio > 0 and isinstance(ratio, (int, float)) \
                and ratio > 0:
            ok = ratio >= args.min_v3_ratio
            print(f"v3 batch=16 over text v2: {ratio:.1f}x "
                  f"(required >= {args.min_v3_ratio:.1f}x)"
                  f"{'' if ok else '  << REGRESSION'}")
            if not ok:
                regressions.append(
                    ("server_v3_over_v2_batch16",
                     ratio / args.min_v3_ratio - 1.0))
            compared += 1
        routed = doc.get("router_over_direct_ratio")
        if args.min_router_ratio > 0 and isinstance(routed, (int, float)) \
                and routed > 0:
            ok = routed >= args.min_router_ratio
            print(f"routed over direct cache-hit rps: {routed:.2f}x "
                  f"(required >= {args.min_router_ratio:.2f}x)"
                  f"{'' if ok else '  << REGRESSION'}")
            if not ok:
                regressions.append(
                    ("router_over_direct_ratio",
                     routed / args.min_router_ratio - 1.0))
            compared += 1
        # Unlike the ratios above, trace_overhead_ratio is legitimately
        # <= 0 when tracing lands within noise, so no `> 0` filter here.
        overhead = doc.get("trace_overhead_ratio")
        if args.max_trace_overhead >= 0 \
                and isinstance(overhead, (int, float)):
            ok = overhead <= args.max_trace_overhead
            print(f"span-recorder overhead on cache-hot rps: "
                  f"{overhead:+.1%} "
                  f"(required <= {args.max_trace_overhead:.1%})"
                  f"{'' if ok else '  << REGRESSION'}")
            if not ok:
                regressions.append(
                    ("trace_overhead_ratio",
                     overhead - args.max_trace_overhead))
            compared += 1

    if regressions:
        print(f"check_bench_trend: {len(regressions)} benchmark(s) "
              "regressed beyond their threshold:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:+.1%}", file=sys.stderr)
        return 1
    print("check_bench_trend: OK (no gated benchmark regressed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
