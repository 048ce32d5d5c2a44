#!/usr/bin/env python3
"""Record and compare normalized benchmark baselines (schema dbn-bench/1).

Two subcommands:

  record   Run the perf suite and write a normalized JSON report:
           - tools/dbn_bench (the parallel batch-route engine sweep), and
           - any requested Google-Benchmark binaries from bench/, executed
             with --benchmark_format=json and folded into the same schema.
           The output is the committed BENCH_<date>.json format described
           in docs/benchmarking.md. A metrics/1 snapshot from dbn_bench
           (--metrics-out) is embedded under "metrics", and when the
           gbench rows include the BM_UntracedRoute / BM_TracedRoute /
           BM_Engine trio (bench_route_engine), derived tracing-overhead
           rows are appended; --max-disabled-overhead R fails (exit 1)
           when the *disabled* tracing path costs more than R x the
           uninstrumented engine loop measured in the same run. When the
           dbn_bench sweep includes the single-thread alg1-directed and
           bidi-engine rows, a derived bidi-vs-alg1 ratio is appended and
           --max-bidi-vs-alg1 R gates it the same way (the packed-kernel
           budget: undirected optimality at <= R x the directed scan).
           When the bench_serve pair (BM_ServeSteadyState sustained QPS +
           p50/p99 latency counters, BM_ServeEngineOnly denominator) is
           recorded, a derived serve-overhead ratio is appended and
           --max-serve-overhead R gates it at record time too; with
           BM_ServeObserved also present (the same stack with sampled
           tracing, the slow log, and a metrics timeline running), a
           derived serve_obs_overhead ratio is appended and
           --max-serve-obs-overhead R gates what the observability plane
           costs the serving fast path (CI uses 1.15). When the
           bench_saturation pair (BM_LayerTableClassify O(1) layer reads,
           BM_DeflectionRescore O(k) re-scoring, same decision stream) is
           recorded, a derived deflection-cost ratio is appended and
           --max-deflection-cost R fails when a layer-table decision costs
           more than R x the re-scoring decision (CI uses 0.2: the table
           must be at least 5x cheaper or it is not paying for its memory).
           When bench_route_engine's BM_Engine/32, /64 and /128 rows are
           recorded, derived engine_k128_vs_k64 and engine_k128_vs_k32
           ratios are appended. --max-engine-k128-vs-k64 R fails when
           doubling the DG(2,k) word from 64 to 128 bits costs more than
           R x (CI uses 30: the O(k^2) scalar scan the packed lanes
           replaced cost over 100x). --max-engine-k128-vs-k32 R fails when
           quadrupling it from 32 to 128 costs more than R x (CI uses 20:
           at two bits per cell k=128 takes four 64-bit limbs, 34-45x; one
           bit per cell keeps it in one 128-bit lane, and with k=32 on the
           diagonal pass the ratio reads 8-24x, so the bound is within its
           noise). When BM_EngineStream/16 and BM_Engine/16 are recorded,
           a derived engine_stream_vs_fixed_k16 ratio is appended: a
           stream of 4,096 distinct pairs against the one pair BM_Engine
           repeats. --max-engine-stream-vs-fixed-k16 R fails when the
           stream costs more than R x (CI uses 2.1: with the offset sweep
           at k=16 it read 1.9-4.0x, median 2.9, with the diagonal pass
           0.9-2.0x, median 1.4).

  compare  Check a fresh report against a committed baseline and fail
           (exit 1) when any comparable single-thread entry regressed by
           more than --max-ratio (default 2.0x ns/query). Multi-thread
           entries are reported but never gate: their timing depends on
           the runner's core count, which differs across hosts. Derived
           rows (derived/...) are ratios, not timings, and never gate on
           the baseline; the disabled-overhead gate runs at record time.

Examples:
  scripts/bench_report.py record --build-dir build --smoke --out bench.json
  scripts/bench_report.py compare --baseline BENCH_2026-08-06.json bench.json
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

SCHEMA = "dbn-bench/1"


def run_dbn_bench(build_dir, smoke, extra_args):
    """Run tools/dbn_bench; returns (report dict, metrics/1 entries)."""
    binary = os.path.join(build_dir, "tools", "dbn_bench")
    if not os.path.exists(binary):
        sys.exit(f"bench_report: {binary} not found (build the tools first)")
    out_path = os.path.join(build_dir, "dbn_bench_report.json")
    metrics_path = os.path.join(build_dir, "dbn_bench_metrics.json")
    cmd = [binary, "--json", out_path, "--metrics-out", metrics_path]
    if smoke:
        # --min-speedup 0 here: recording must not fail on slow runners;
        # the speedup is recorded in the JSON and gated by CI policy.
        cmd += ["--smoke", "--min-speedup", "0"]
    cmd += extra_args
    subprocess.run(cmd, check=True)
    with open(out_path) as f:
        report = json.load(f)
    return report, load_metrics(metrics_path)


def load_metrics(path):
    """Load a metrics/1 document, returning its entry list ([] if absent)."""
    if not os.path.exists(path):
        return []
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "metrics/1":
        sys.exit(f"bench_report: {path} has schema {doc.get('schema')!r}, "
                 "expected 'metrics/1'")
    return doc.get("metrics", [])


def derive_tracing_overhead(rows):
    """Appends derived tracing rows; returns the disabled-overhead ratio.

    Looks for the bench_route_engine trio at the same k:
      BM_Engine/16          the uninstrumented-era hot loop (baseline)
      BM_UntracedRoute/16   same loop, tracing branch compiled in, sink off
      BM_TracedRoute/16     same loop routing into a discarding sink
    Returns None when the trio is not present.
    """
    def find(suffix):
        for row in rows:
            if row["name"].endswith(suffix):
                return row["best_ns_per_query"]
        return None

    engine = find("/BM_Engine/16")
    untraced = find("/BM_UntracedRoute/16")
    traced = find("/BM_TracedRoute/16")
    if engine is None or untraced is None or traced is None:
        return None
    disabled_overhead = untraced / engine
    rows.append({
        "name": "derived/trace_disabled_overhead",
        "backend": "derived",
        "threads": 1,
        "best_ns_per_query": disabled_overhead,  # a ratio, not a timing
        "note": "BM_UntracedRoute / BM_Engine at k=16 (same run)",
    })
    rows.append({
        "name": "derived/trace_enabled_cost",
        "backend": "derived",
        "threads": 1,
        "best_ns_per_query": traced / untraced,  # a ratio, not a timing
        "note": "BM_TracedRoute / BM_UntracedRoute at k=16 (same run)",
    })
    return disabled_overhead


def derive_bidi_vs_alg1(rows):
    """Appends the derived bidi-vs-alg1 row; returns the ratio.

    Compares the two single-thread batch rows of the dbn_bench sweep:
      batch/alg1-directed/t1   Algorithm 1 (directed, one MP scan)
      batch/bidi-engine/t1     Theorem 2 (undirected, both side minima)
    The ratio is the per-query price of undirected optimality; the packed
    SWAR kernels are what keep it small. Returns None when either row is
    absent (non-smoke sweeps).
    """
    def find(name):
        for row in rows:
            if row["name"] == name:
                return row["best_ns_per_query"]
        return None

    alg1 = find("batch/alg1-directed/t1")
    bidi = find("batch/bidi-engine/t1")
    if alg1 is None or bidi is None:
        return None
    ratio = bidi / alg1
    rows.append({
        "name": "derived/bidi_vs_alg1",
        "backend": "derived",
        "threads": 1,
        "best_ns_per_query": ratio,  # a ratio, not a timing
        "note": "batch/bidi-engine/t1 / batch/alg1-directed/t1 (same run)",
    })
    return ratio


def derive_serve_overhead(rows):
    """Appends the derived serve-overhead row; returns the ratio.

    Compares the two bench_serve rows by sustained items/second:
      BM_ServeEngineOnly     the batch engine alone (1 worker, window 256)
      BM_ServeSteadyState    the same engine behind the full serving stack
                             (wire protocol, bounded queue, dispatcher)
    The ratio is the per-request price of the daemon machinery. Returns
    None when either row is absent.
    """
    def find(suffix):
        for row in rows:
            if row["name"].endswith(suffix):
                return row.get("items_per_second") or None
        return None

    engine = find("/BM_ServeEngineOnly/real_time")
    serve = find("/BM_ServeSteadyState/real_time")
    if engine is None or serve is None:
        return None
    ratio = engine / serve
    rows.append({
        "name": "derived/serve_overhead",
        "backend": "derived",
        "threads": 1,
        "best_ns_per_query": ratio,  # a ratio, not a timing
        "note": "BM_ServeEngineOnly / BM_ServeSteadyState items/s (same run)",
    })
    return ratio


def derive_serve_obs_overhead(rows):
    """Appends the derived observability-overhead row; returns the ratio.

    Compares the two bench_serve steady-state rows by items/second:
      BM_ServeSteadyState    the serving stack, observability dark
      BM_ServeObserved       the identical stack with the CI smoke's
                             observability plane on: 1-in-64 sampled
                             request tracing into a discard sink, the slow
                             log armed, and a MetricsTimeline sampling in
                             the background
    The ratio is what turning the lights on costs the serving fast path.
    Returns None when either row is absent.
    """
    def find(suffix):
        for row in rows:
            if row["name"].endswith(suffix):
                return row.get("items_per_second") or None
        return None

    dark = find("/BM_ServeSteadyState/real_time")
    observed = find("/BM_ServeObserved/real_time")
    if dark is None or observed is None:
        return None
    ratio = dark / observed
    rows.append({
        "name": "derived/serve_obs_overhead",
        "backend": "derived",
        "threads": 1,
        "best_ns_per_query": ratio,  # a ratio, not a timing
        "note": "BM_ServeSteadyState / BM_ServeObserved items/s (same run)",
    })
    return ratio


def derive_deflection_cost(rows):
    """Appends the derived deflection-cost row; returns the ratio.

    Compares the two per-decision rows of bench_saturation at k=16:
      BM_DeflectionRescore/16    O(k) Theorem-2 distance per neighbor (the
                                 historical adaptive scoring)
      BM_LayerTableClassify/16   two byte loads from the warmed layer table
    Both consume the identical pre-sampled (from, neighbor) stream, so the
    ratio is the per-decision price of re-scoring relative to the table —
    the number the layer-table tentpole exists to shrink. Returns None
    when either row is absent.
    """
    def find(suffix):
        for row in rows:
            if row["name"].endswith(suffix):
                return row["best_ns_per_query"]
        return None

    rescore = find("/BM_DeflectionRescore/16")
    classify = find("/BM_LayerTableClassify/16")
    if rescore is None or classify is None:
        return None
    ratio = classify / rescore
    rows.append({
        "name": "derived/deflection_cost",
        "backend": "derived",
        "threads": 1,
        "best_ns_per_query": ratio,  # a ratio, not a timing
        "note": "BM_LayerTableClassify / BM_DeflectionRescore at k=16 "
                "(same run)",
    })
    return ratio


def derive_engine_ratio(rows, num_row, den_row, name):
    """Appends the derived row `name`, num_row / den_row; returns it.

    Both rows come from one run of bench_route_engine and end in
    "/<num_row>" and "/<den_row>". BM_Engine routes one random DG(2,k)
    pair, and d = 2 packs one bit per digit. Up to k=32 the engine runs the
    diagonal pass: one AND/OR step over k 64-bit rows per common-run
    length. Past it the offset sweep runs: k=64 on a 64-bit lane, k=128 on
    one 128-bit lane and k=256 on four 64-bit limbs, visiting O(k) offsets
    of O(k/64) words each. The scalar Algorithm 3 scan the packed lanes
    replaced cost over 100x per doubling, so engine_k128_vs_k64 shows
    whether k=128 still takes a packed lane. engine_k128_vs_k32 compares
    the sweep's 128-bit lane with the diagonal pass, and stays under its
    bound only while k=128 keeps the 1-bit lane. BM_EngineStream routes a
    new pair on each iteration, so engine_stream_vs_fixed_k16 is what the
    branch predictor's memory of one pair hides. Returns None when either
    row is absent.
    """
    def find(suffix):
        for row in rows:
            if row["name"].endswith(suffix):
                return row["best_ns_per_query"]
        return None

    num = find(f"/{num_row}")
    den = find(f"/{den_row}")
    if num is None or den is None:
        return None
    ratio = num / den
    rows.append({
        "name": f"derived/{name}",
        "backend": "derived",
        "threads": 1,
        "best_ns_per_query": ratio,  # a ratio, not a timing
        "note": f"{num_row} / {den_row} (same run)",
    })
    return ratio


def gate_engine_ratio(ratio, limit, num_row, den_row, name):
    """Prints an engine ratio and applies its --max-<name> gate.

    Returns 1 (fail) when the ratio exceeds a set limit, or when a limit is
    set but the rows were not recorded; 0 otherwise.
    """
    flag = "--max-" + name.replace("_", "-")
    if ratio is not None:
        print(f"bench_report: {name} {ratio:.3f}x")
        if limit > 0 and ratio > limit:
            print(f"bench_report: FAIL {num_row} costs {ratio:.3f}x "
                  f"{den_row} > allowed {limit:.2f}x")
            return 1
    elif limit > 0:
        print(f"bench_report: FAIL {flag} set but the {den_row} + "
              f"{num_row} pair was not recorded (add --gbench "
              "bench_route_engine)")
        return 1
    return 0


# The derived engine rows: name, numerator row, denominator row.
ENGINE_RATIOS = [
    ("engine_k128_vs_k64", "BM_Engine/128", "BM_Engine/64"),
    ("engine_k128_vs_k32", "BM_Engine/128", "BM_Engine/32"),
    ("engine_stream_vs_fixed_k16", "BM_EngineStream/16", "BM_Engine/16"),
]


# Numeric fields of a Google-Benchmark JSON row that are part of the
# format itself; everything else numeric is a user counter (e.g. the
# p99_us latency BM_ServeSteadyState reports) and rides along in the row.
GBENCH_STANDARD_FIELDS = frozenset([
    "family_index", "per_family_instance_index", "repetition_index",
    "repetitions", "threads", "iterations", "real_time", "cpu_time",
    "items_per_second", "bytes_per_second",
])


def run_gbench(build_dir, name, benchmark_filter, min_time, repetitions):
    """Run one Google-Benchmark binary, normalized to result rows.

    Each benchmark runs `repetitions` times and the row keeps the minimum —
    single-shot timings on shared runners are noisy enough to flip the
    ratio gates (derived rows compare two of these timings), while the
    min over a few repetitions is stable.
    """
    binary = os.path.join(build_dir, "bench", name)
    if not os.path.exists(binary):
        sys.exit(f"bench_report: {binary} not found (build the benches first)")
    cmd = [binary, "--benchmark_format=json",
           f"--benchmark_min_time={min_time}",
           f"--benchmark_repetitions={repetitions}"]
    if benchmark_filter:
        cmd.append(f"--benchmark_filter={benchmark_filter}")
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
    doc = json.loads(proc.stdout)
    best = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        ns = bench.get("real_time")
        if bench.get("time_unit") == "us":
            ns = ns * 1e3
        elif bench.get("time_unit") == "ms":
            ns = ns * 1e6
        elif bench.get("time_unit") == "s":
            ns = ns * 1e9
        row_name = f"gbench/{name}/{bench['name']}"
        if row_name in best and best[row_name]["best_ns_per_query"] <= ns:
            continue
        row = {
            "name": row_name,
            "backend": "gbench",
            "threads": 1,
            "best_ns_per_query": ns,
            "items_per_second": bench.get("items_per_second", 0.0),
        }
        counters = {
            key: value
            for key, value in bench.items()
            if isinstance(value, (int, float))
            and key not in GBENCH_STANDARD_FIELDS
        }
        if counters:
            row["counters"] = counters
        best[row_name] = row
    return list(best.values())


def cmd_record(args):
    report, metrics = run_dbn_bench(args.build_dir, args.smoke,
                                    args.dbn_bench_arg)
    for name in args.gbench:
        report["results"].extend(
            run_gbench(args.build_dir, name, args.gbench_filter,
                       args.gbench_min_time, args.gbench_repetitions))
    disabled_overhead = derive_tracing_overhead(report["results"])
    bidi_vs_alg1 = derive_bidi_vs_alg1(report["results"])
    serve_overhead = derive_serve_overhead(report["results"])
    serve_obs_overhead = derive_serve_obs_overhead(report["results"])
    deflection_cost = derive_deflection_cost(report["results"])
    engine_ratios = [
        (derive_engine_ratio(report["results"], num, den, name), num, den,
         name)
        for name, num, den in ENGINE_RATIOS
    ]
    report["schema"] = SCHEMA
    report["generated_by"] = "scripts/bench_report.py"
    if metrics:
        report["metrics"] = metrics
    out = args.out
    if not out:
        date = datetime.date.today().isoformat()
        out = f"BENCH_{date}.json"
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"bench_report: wrote {out} ({len(report['results'])} entries, "
          f"{len(metrics)} metrics)")
    if disabled_overhead is not None:
        print(f"bench_report: tracing disabled-overhead "
              f"{disabled_overhead:.3f}x")
        if args.max_disabled_overhead > 0 and \
                disabled_overhead > args.max_disabled_overhead:
            print(f"bench_report: FAIL disabled tracing overhead "
                  f"{disabled_overhead:.3f}x > allowed "
                  f"{args.max_disabled_overhead:.2f}x")
            return 1
    elif args.max_disabled_overhead > 0:
        print("bench_report: FAIL --max-disabled-overhead set but the "
              "BM_Engine/BM_UntracedRoute/BM_TracedRoute trio was not "
              "recorded (add --gbench bench_route_engine)")
        return 1
    if bidi_vs_alg1 is not None:
        print(f"bench_report: bidi-vs-alg1 at t1 {bidi_vs_alg1:.3f}x")
        if args.max_bidi_vs_alg1 > 0 and bidi_vs_alg1 > args.max_bidi_vs_alg1:
            print(f"bench_report: FAIL bidi-engine costs "
                  f"{bidi_vs_alg1:.3f}x alg1-directed at t1 > allowed "
                  f"{args.max_bidi_vs_alg1:.2f}x")
            return 1
    elif args.max_bidi_vs_alg1 > 0:
        print("bench_report: FAIL --max-bidi-vs-alg1 set but the "
              "batch/alg1-directed/t1 + batch/bidi-engine/t1 pair was not "
              "recorded (run the --smoke sweep)")
        return 1
    if serve_overhead is not None:
        print(f"bench_report: serve overhead {serve_overhead:.3f}x")
        if args.max_serve_overhead > 0 and \
                serve_overhead > args.max_serve_overhead:
            print(f"bench_report: FAIL serving stack costs "
                  f"{serve_overhead:.3f}x the bare engine > allowed "
                  f"{args.max_serve_overhead:.2f}x")
            return 1
    elif args.max_serve_overhead > 0:
        print("bench_report: FAIL --max-serve-overhead set but the "
              "BM_ServeSteadyState/BM_ServeEngineOnly pair was not "
              "recorded (add --gbench bench_serve)")
        return 1
    if serve_obs_overhead is not None:
        print(f"bench_report: serve observability overhead "
              f"{serve_obs_overhead:.3f}x")
        if args.max_serve_obs_overhead > 0 and \
                serve_obs_overhead > args.max_serve_obs_overhead:
            print(f"bench_report: FAIL the observability plane costs "
                  f"{serve_obs_overhead:.3f}x the dark serving stack > "
                  f"allowed {args.max_serve_obs_overhead:.2f}x")
            return 1
    elif args.max_serve_obs_overhead > 0:
        print("bench_report: FAIL --max-serve-obs-overhead set but the "
              "BM_ServeSteadyState/BM_ServeObserved pair was not "
              "recorded (add --gbench bench_serve)")
        return 1
    if deflection_cost is not None:
        print(f"bench_report: deflection cost {deflection_cost:.3f}x")
        if args.max_deflection_cost > 0 and \
                deflection_cost > args.max_deflection_cost:
            print(f"bench_report: FAIL a layer-table decision costs "
                  f"{deflection_cost:.3f}x the re-scoring decision > allowed "
                  f"{args.max_deflection_cost:.2f}x")
            return 1
    elif args.max_deflection_cost > 0:
        print("bench_report: FAIL --max-deflection-cost set but the "
              "BM_DeflectionRescore/BM_LayerTableClassify pair was not "
              "recorded (add --gbench bench_saturation)")
        return 1
    for ratio, num, den, name in engine_ratios:
        if gate_engine_ratio(ratio, getattr(args, "max_" + name), num, den,
                             name):
            return 1
    return 0


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"bench_report: {path} has schema {doc.get('schema')!r}, "
                 f"expected {SCHEMA!r}")
    return {row["name"]: row for row in doc.get("results", [])}


def cmd_compare(args):
    baseline = load_results(args.baseline)
    current = load_results(args.report)
    failures = []
    print(f"{'entry':48} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name, row in sorted(current.items()):
        if name.startswith("derived/"):
            print(f"{name:48} {'-':>12} "
                  f"{row['best_ns_per_query']:12.3f} {'ratio':>7}")
            continue
        base = baseline.get(name)
        if base is None:
            print(f"{name:48} {'-':>12} "
                  f"{row['best_ns_per_query']:12.1f} {'new':>7}")
            continue
        ratio = row["best_ns_per_query"] / base["best_ns_per_query"]
        gating = row.get("threads", 1) == 1
        marker = ""
        if ratio > args.max_ratio:
            marker = " REGRESSED" if gating else " (slow, non-gating)"
            if gating:
                failures.append((name, ratio))
        print(f"{name:48} {base['best_ns_per_query']:12.1f} "
              f"{row['best_ns_per_query']:12.1f} {ratio:6.2f}x{marker}")
    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print(f"{name:48} (entry missing from the new report)")
    if failures:
        print(f"bench_report: {len(failures)} single-thread regression(s) "
              f"beyond {args.max_ratio:.1f}x:")
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x")
        return 1
    print("bench_report: no single-thread regressions "
          f"beyond {args.max_ratio:.1f}x")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run the suite, write a baseline")
    rec.add_argument("--build-dir", default="build")
    rec.add_argument("--smoke", action="store_true",
                     help="use the CI smoke grid of tools/dbn_bench")
    rec.add_argument("--out", default="",
                     help="output path (default BENCH_<today>.json)")
    rec.add_argument("--gbench", action="append", default=[],
                     help="also run this bench/ binary (repeatable)")
    rec.add_argument("--gbench-filter", default="",
                     help="--benchmark_filter for the gbench binaries")
    rec.add_argument("--gbench-min-time", default="0.05")
    rec.add_argument("--gbench-repetitions", type=int, default=3,
                     help="repetitions per benchmark; rows keep the min "
                          "(stabilizes the derived ratio gates)")
    rec.add_argument("--dbn-bench-arg", action="append", default=[],
                     help="extra argument forwarded to dbn_bench "
                          "(repeatable)")
    rec.add_argument("--max-disabled-overhead", type=float, default=0.0,
                     help="fail when disabled tracing costs more than this "
                          "ratio of the uninstrumented loop (0 = no gate; "
                          "CI uses 1.05)")
    rec.add_argument("--max-bidi-vs-alg1", type=float, default=0.0,
                     help="fail when the single-thread bidi-engine batch "
                          "row costs more than this ratio of the "
                          "alg1-directed row (0 = no gate; CI uses 2.0)")
    rec.add_argument("--max-serve-overhead", type=float, default=0.0,
                     help="fail when the serving stack sustains fewer than "
                          "1/R of the bare engine's items/s at the same "
                          "configuration (0 = no gate; CI uses 8.0)")
    rec.add_argument("--max-serve-obs-overhead", type=float, default=0.0,
                     help="fail when the serving stack with sampled "
                          "tracing + metrics timeline enabled sustains "
                          "fewer than 1/R of its own untraced items/s "
                          "(0 = no gate; CI uses 1.15)")
    rec.add_argument("--max-deflection-cost", type=float, default=0.0,
                     help="fail when an O(1) layer-table deflection "
                          "decision costs more than this ratio of the O(k) "
                          "re-scoring decision (0 = no gate; CI uses 0.2)")
    rec.add_argument("--max-engine-k128-vs-k64", type=float, default=0.0,
                     help="fail when BM_Engine/128 costs more than this "
                          "ratio of BM_Engine/64 in the same run (0 = no "
                          "gate; CI uses 30)")
    rec.add_argument("--max-engine-k128-vs-k32", type=float, default=0.0,
                     help="fail when BM_Engine/128 costs more than this "
                          "ratio of BM_Engine/32 in the same run (0 = no "
                          "gate; CI uses 20)")
    rec.add_argument("--max-engine-stream-vs-fixed-k16", type=float,
                     default=0.0,
                     help="fail when BM_EngineStream/16 costs more than "
                          "this ratio of BM_Engine/16 in the same run (0 = "
                          "no gate; CI uses 2.1)")
    rec.set_defaults(func=cmd_record)

    cmp_ = sub.add_parser("compare", help="gate a report against a baseline")
    cmp_.add_argument("--baseline", required=True)
    cmp_.add_argument("report")
    cmp_.add_argument("--max-ratio", type=float, default=2.0,
                      help="fail when single-thread ns/query exceeds "
                           "baseline * ratio (default 2.0)")
    cmp_.set_defaults(func=cmd_compare)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
