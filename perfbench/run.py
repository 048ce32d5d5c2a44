#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
                                        # every workload, one table
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/ at the
repository root). A workload run prints human-readable lines, then as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Metric names and units are checked against
BENCHMARK.json on every run. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# serve_bulk and serve_open (the daemon over TCP) run here but are not
# workloads of BENCHMARK.json: on a contended host their figures move with
# the host's load far past any allowed bound (see README.md).
WORKLOADS = ["serve_inproc", "serve_bulk", "serve_open", "batch_k128",
             "sim_saturation"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once and builds (a no-op when up to date); returns the
    binary. Build output goes to stderr so stdout stays the result."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr, timeout=700)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build failed: {e}")
            if done.returncode != 0:
                fail(f"build failed: {' '.join(step)}")
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(binary):
        fail("build produced no perfbench binary")
    return binary


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (human lines, result dict)."""
    trace_out = os.path.join(build_dir(), "traces",
                             f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(170, 3 * seconds + 80))
    except subprocess.TimeoutExpired:
        fail(f"{workload} timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with {done.returncode}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None:
            fail(f"{workload}: metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result = {"correct": bool(out["correct"]),
              "attempted": int(out["attempted"]),
              "failed": int(out["failed"]),
              "metrics": metrics}
    human = lines[:-1]
    if out.get("na"):
        human.append("# n/a on this workload (reported as 0): "
                     + ", ".join(out["na"]))
    return human, result


def table(workload, result):
    rows = [f"## {workload}: correct={str(result['correct']).lower()} "
            f"attempted={result['attempted']} failed={result['failed']}"]
    for name, m in result["metrics"].items():
        rows.append(f"  {name:<28} {m['value']:>18.6g} {m['unit']}")
    return rows


def self_test(binary, spec):
    done = subprocess.run([binary, "--self-test"], timeout=170)
    ok = done.returncode == 0
    # The printed names and units must match BENCHMARK.json (run_workload
    # exits non-zero on a mismatch) and every answer must check out.
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_workload(binary, spec, workload, 1, 1, trace)
            good = result["correct"] and result["failed"] == 0
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}: "
                  f"{len(result['metrics'])} metrics match BENCHMARK.json")
            ok = ok and good
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    if args.self_test:
        return self_test(binary, spec)
    seconds = args.seconds or spec["run_seconds"]
    if args.workload:
        human, result = run_workload(binary, spec, args.workload, args.seed,
                                     seconds, args.trace)
        print("\n".join(human + table(args.workload, result)))
        print(json.dumps(result), flush=True)
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        human, result = run_workload(binary, spec, workload, args.seed,
                                     seconds, args.trace)
        print("\n".join(human + table(workload, result)), flush=True)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
