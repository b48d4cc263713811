#!/usr/bin/env python3
"""GANA end-to-end benchmark runner. See perfbench/README.md.

One run:
    python3 perfbench/run.py --workload corpus|sizing_loop|serve \
        --seed N --seconds S --trace 0|1

builds the system from source (CMake, into .bench_build), sets it up,
runs the workload, checks its outputs and prints one JSON result line
last on stdout: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1. Exit status: 0 ok, 3 an output check failed (the result
line is still printed, with "correct": false), 4 with --strict when
the measurement is invalid (the line is still printed), anything else a
harness or build failure (no result line).

Steadiness mode:
    python3 perfbench/run.py --steady --workload W [--runs 10]
        [--first-seed 1] [--seconds S]

(--seconds defaults to run_seconds in BENCHMARK.json.)

runs the workload repeatedly with consecutive seeds and prints, per
end-to-end metric, the median, quartiles and interquartile spread as a
share of the median, against the metric's bound in BENCHMARK.json.
A run whose output check fails or whose measurement is invalid stops it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "sizing_loop", "serve")
SETUP_REPS = 3
END_TO_END = ["setup_s", "ops_per_s", "p50_ms", "p99_ms", "peak_rss_mb", "acc_final",
              "slo_frac"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and builds the three binaries; returns gana_bench."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "3", "--target", "gana_bench",
                  "gana_shard", "gana_serve"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=880)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "gana_bench")


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def call(cmd, timeout):
    """Runs a gana_bench step; returns (status, parsed last stdout line)."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        sys.exit(2)
    return p.returncode, last_json(p.stdout)


def run_once(args):
    bench = build()
    work = os.path.join(ROOT, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    model = os.path.join(work, "model.bin")
    rel = lambda p: os.path.relpath(p, ROOT)
    common = ["--workload", args.workload, "--model", rel(model), "--work", rel(work)]

    # Set-up: several repetitions, median reported (only the untraced
    # run reports setup_s; the traced run needs the model once).
    reps = SETUP_REPS if args.trace == 0 else 1
    status, setup = call([bench, "setup"] + common + ["--reps", str(reps)], 45)
    if status != 0 or setup is None:
        log("set-up failed")
        sys.exit(2)

    status, result = call([bench, "run"] + common +
                          ["--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], 120)
    if status not in (0, 3) or result is None:
        log("workload run failed with status %d" % status)
        sys.exit(2)

    # gana_bench adds a "valid" key: every reported p99 has 10 samples
    # beyond it inside one latency mode, and the traced run leaves at
    # most 5% of op time outside layer spans. The result contract has no
    # such key, so it is stripped; --strict turns an invalid run into
    # exit status 4 (the steadiness mode uses it).
    if not result.pop("valid", False):
        log("invalid measurement (p99 mode or unaccounted_frac check, see above)")
        if args.strict and status == 0:
            status = 4

    if args.trace == 0:
        metrics = {"setup_s": {"value": statistics.median(setup["setup_s"]),
                               "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = {k: metrics[k] for k in END_TO_END}
    else:
        trace = os.path.join(work, "trace_%s.json" % args.workload)
        if os.path.exists(trace):
            shutil.move(trace, os.path.join(ROOT, ".bench_work",
                                            "trace_%s.json" % args.workload))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return status


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
               "--strict"]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = last_json(p.stdout)
        if p.returncode != 0 or result is None or not result["correct"]:
            log("seed %d: run failed or invalid (status %d)" % (seed, p.returncode))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())))
    print("%-12s %12s %12s %12s %8s %6s  %s" %
          ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, 0.0)
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "UNRESOLVED")
        print("%-12s %12.5g %12.5g %12.5g %8.4f %6.3f  %s" %
              (name, q1, med, q3, spread, bound, verdict))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--strict", action="store_true",
                    help="exit 4 when the measurement is invalid")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 10
    sys.exit(steady(args) if args.steady else run_once(args))


if __name__ == "__main__":
    main()
