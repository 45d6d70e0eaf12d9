#!/usr/bin/env python3
"""End-to-end benchmark of the qmh pipeline.

One run:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/ (the library sources of this checkout plus the
benchmark program, Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload and relays its output. The
last line of standard output is the result object: {"correct",
"attempted", "failed", "metrics"}. BENCHMARK.json lists the measured
workloads, sweep_shared and serve_mixed, and why each exists;
sweep_distinct (48 different circuits per request, see sweep.cc) runs
the same way by hand, for changes to the trace kernel.

At the pinned seed and length (perfbench/pins.json) the run also checks
that the digest of its row bytes (one pass of a sweep workload, where
every pass must repeat the first; every request of serve_mixed) equals
the pinned one.

Spread report:

    python3 perfbench/run.py --workload W --spread N [--seed 1]
                             [--seconds S] [--holdout H]

runs W with seeds seed .. seed+N-1 and prints each end-to-end metric's
median, quartiles and quartile spread as a share of the median, beside
the bound BENCHMARK.json gives it, with nproc and the build type.
--holdout H then runs seed H once and checks that each of its metrics
lies within the bound of the medians.

Both modes refuse a build tree that is not a Release build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_shared", "sweep_distinct", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build_type(build):
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configure (once) and build the benchmark; the binary's path."""
    if not (ROOT / "src" / "api" / "session.hh").is_file():
        log(f"no qmh library sources under {ROOT / 'src'}")
        sys.exit(1)
    tree = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if build_type(tree) is None:
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(1)
    kind = build_type(tree)
    if kind != "Release":
        log(f"refusing to measure a non-Release build ({tree} is "
            f"'{kind}')")
        sys.exit(1)
    return tree / "qmh_perfbench"


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def run_once(binary, workload, seed, seconds, trace):
    """Run the binary once; (notes, result) or exit on failure."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    pins = load_json(HERE / "pins.json")
    digest = pins["digests"].get(workload)
    if digest and seed == pins["seed"] and seconds == pins["seconds"]:
        command += ["--pinned-digest", digest]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(f"{workload} seed {seed} exited {done.returncode}")
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def spread_report(binary, args):
    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in load_json(bench)["end_to_end"]}
    print(f"nproc {os.cpu_count()}, build {build_type(build_dir())}, "
          f"workload {args.workload}, seconds {args.seconds}")
    values = {}
    for seed in range(args.seed, args.seed + args.spread):
        notes, result = run_once(binary, args.workload, seed,
                                 args.seconds, 0)
        print(f"seed {seed}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}, "
              + ", ".join(f"{name} {metric['value']:.6g}" for name, metric
                          in sorted(result["metrics"].items()))
              + "".join("; " + n for n in notes if "FAIL" in n))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    medians = {}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in sorted(values.items()):
        q1, median, q3 = statistics.quantiles(series, n=4)
        medians[name] = median
        share = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or share <= bound / 3 else "  wide"
        print(f"{name:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{share:>8.4f} {bound if bound is not None else '-':>6}"
              f"{flag}")
    if args.holdout is None:
        return 0
    _, result = run_once(binary, args.workload, args.holdout,
                         args.seconds, 0)
    outside = 0
    print(f"held-out seed {args.holdout}:")
    for name, metric in sorted(result["metrics"].items()):
        median = medians.get(name)
        bound = bounds.get(name)
        if median is None or bound is None:
            continue
        share = abs(metric["value"] - median) / median if median else 0.0
        ok = share <= bound
        outside += not ok
        print(f"  {name:<18} {metric['value']:>12.6g} off the median by "
              f"{share:.4f} (bound {bound}) {'ok' if ok else 'OUTSIDE'}")
    return 1 if outside else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0)
    parser.add_argument("--holdout", type=int, default=None)
    args = parser.parse_args()
    pins = load_json(HERE / "pins.json")
    if args.seed is None:
        args.seed = pins["seed"]
    if args.seconds is None:
        args.seconds = pins["seconds"]

    binary = build()
    if args.spread:
        return spread_report(binary, args)
    notes, result = run_once(binary, args.workload, args.seed,
                             args.seconds, args.trace)
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
