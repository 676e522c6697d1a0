#!/usr/bin/env python3
"""The repository benchmark: fit, serve and learn workloads of the MCDC library.

Builds perfbench/mcdc_bench (and the library it drives) in Release under
.bench_build/ at the root of the checkout, then runs workloads through it.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload fit|serve|learn --seed N \
        --seconds S --trace 0|1

  The last line of standard output is one JSON object with the keys
  correct, attempted, failed and metrics: the end-to-end metrics with
  --trace 0, the per-layer metrics with --trace 1. A traced run first runs
  the same workload untraced (same seed and length) and prints the tracing
  overhead of every end-to-end metric.

  Untraced fit and learn runs are made of parts, each in a fresh process,
  one after another: one table per fit part (as many as --seconds allows,
  at least eight), one stream per learn part (four, each for a quarter of
  --seconds). Every end-to-end metric is the median over the parts, except
  peak_rss_mb (the largest part) and fit's p90_us (the p90 over the parts'
  single-fit latencies). serve and every traced run use one process.

Every workload, the whole benchmark once:

    python3 perfbench/run.py [--seed N] [--seconds S]

  Runs each workload untraced on seeds N and N+1 (interleaved, so host
  drift does not land on one workload), then traced on seed N, and prints
  the seed-to-seed spread (reported, not gated) and the tracing overhead.

The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not build or run. perfbench/README.md documents
the workloads and metrics.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("fit", "serve", "learn")
# A single invocation must end within 180 s; leave room to report.
DEADLINE_S = 170.0
# Parts of an untraced fit or learn run (see the module docstring). One
# process carries its own luck: the same fit of the same table repeated in
# one process kept a fast or a slow level for many fits, while fresh
# processes drew independent times, so a median over processes moves less
# from run to run than a median over fits of one process.
FIT_MIN_PARTS = 8
LEARN_PARTS = 4

# The end-to-end metrics are named by role so that every workload reports
# each of them; these are the names the path-specific reports use.
PATH_NAMES = {
    "fit": {
        "rows_per_s": "fit_rows_per_s",
        "cpu_us_per_row": "fit_cpu_us_per_row",
        "p50_us": "fit_p50_us (one Engine::fit)",
        "p90_us": "fit_p90_us (one Engine::fit)",
        "ari": "fit_ari (fine truth)",
    },
    "serve": {
        "rows_per_s": "serve_rps",
        "cpu_us_per_row": "serve_cpu_us_per_req",
        "p50_us": "serve_p50_us",
        "p90_us": "serve_p90_us",
        "ari": "serve_ari (fine truth)",
    },
    "learn": {
        "rows_per_s": "learn_rows_per_s",
        "cpu_us_per_row": "learn_cpu_us_per_row",
        "p50_us": "learn_chunk_p50_us",
        "p90_us": "learn_chunk_p90_us",
        "ari": "learn_ari (coarse truth)",
    },
}


class BenchError(Exception):
    """The benchmark could not build or run (exit code 2)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(spec_path.read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {spec_path}: {error}") from error


def build():
    """Configures (once) and builds mcdc_bench in Release; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no repository build file at {ROOT}/CMakeLists.txt")
    cmake_dir = BUILD_DIR / "cmake"
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "mcdc_bench", "-j", str(os.cpu_count() or 2)])
        for step in steps:
            started = time.monotonic()
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  check=False)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                raise BenchError(f"build step failed: {' '.join(step)}")
            if time.monotonic() - started > 5:
                log(f"built: {' '.join(step[:2])} "
                    f"({time.monotonic() - started:.1f} s)")
    binary = cmake_dir / "mcdc_bench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_workload(binary, spec, workload, seed, seconds, trace, deadline,
                 part=None):
    """Runs one invocation of mcdc_bench; returns its parsed result. Of a
    part's output only the check reports are printed; run_parts summarises
    the rest."""
    work_dir = BUILD_DIR / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work_dir)]
    if part is not None:
        cmd += ["--part", str(part)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} (seed {seed}) did not finish in time")
    lines = output.splitlines()
    for line in lines[:-1] if lines and lines[-1].startswith("{") else lines:
        if part is None or not line.startswith(("stamp", "  ", "fits:",
                                                 "end-to-end", "learn ")):
            print(f"  {line}")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise BenchError(f"{workload} (seed {seed}) exited with "
                         f"{proc.returncode} and no result")
    result = json.loads(lines[-1])
    check_names(spec, workload, result, trace)
    return result


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_parts(binary, spec, workload, seed, seconds, deadline):
    """Runs an untraced fit or learn run as parts, each in a fresh process,
    one after another; returns their merged result."""
    started = time.monotonic()
    parts = []
    last = 0.0

    def more():
        if workload == "learn":
            return len(parts) < LEARN_PARTS
        # Fit: stop before the next table would overrun --seconds.
        return (len(parts) < FIT_MIN_PARTS or
                time.monotonic() - started + last <= seconds)

    while more():
        part_started = time.monotonic()
        parts.append(run_workload(
            binary, spec, workload, seed,
            seconds if workload == "fit" else seconds / LEARN_PARTS,
            False, deadline, part=len(parts)))
        last = time.monotonic() - part_started
    merged = {}
    for m in spec["end_to_end"]:
        values = [p["metrics"][m["name"]]["value"] for p in parts]
        if m["name"] == "peak_rss_mb":
            value = max(values)
        elif workload == "fit" and m["name"] == "p90_us":
            value = nearest_rank([p["metrics"]["p50_us"]["value"]
                                  for p in parts], 0.9)
        else:
            value = statistics.median(values)
        merged[m["name"]] = {"value": value, "unit": m["unit"]}
    rows = "rows_per_s"
    print(f"  {workload}: {len(parts)} parts in {time.monotonic() - started:.1f} s;"
          f" {rows} by part: "
          + " ".join(f"{p['metrics'][rows]['value']:.0f}" for p in parts))
    stamp = dict(parts[0]["stamp"], seconds=seconds, parts=len(parts))
    return {"correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": merged, "layers": {}, "stamp": stamp}


def run_measured(binary, spec, workload, seed, seconds, trace, deadline):
    """One run of a workload as the benchmark measures it."""
    if trace or workload == "serve":
        return run_workload(binary, spec, workload, seed, seconds, trace,
                            deadline)
    return run_parts(binary, spec, workload, seed, seconds, deadline)


def check_names(spec, workload, result, trace):
    """mcdc_bench's metric names and units must be exactly BENCHMARK.json's."""
    for kind, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
        if key == "layers" and not trace:
            continue
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {name: m["unit"] for name, m in result[key].items()}
        if want != got:
            raise BenchError(f"{workload}: {kind} metrics differ from "
                             f"BENCHMARK.json: {sorted(set(want) ^ set(got))}")


def print_path_names(workload, metrics):
    for name, label in PATH_NAMES[workload].items():
        m = metrics[name]
        print(f"  {label:<34} {m['value']:>16.6g} {m['unit']}")


def print_overhead(spec, workload, untraced, traced):
    print(f"tracing overhead on {workload} (traced - untraced):")
    for m in spec["end_to_end"]:
        name = m["name"]
        base = untraced["metrics"][name]["value"]
        value = traced["metrics"][name]["value"]
        share = (value - base) / base * 100.0 if base else 0.0
        print(f"  {name:<16} {base:>14.6g} -> {value:>14.6g} "
              f"{value - base:>+14.6g} {m['unit']} ({share:+.2f}%)")
    if workload == "fit":
        layers = traced["layers"]
        layer_sum = sum(layers[name]["value"] for name in
                        ("fit.mgcpl_s", "fit.came_s", "fit.kestimate_s",
                         "fit.polish_s", "fit.evaluate_s"))
        engine_s = untraced["metrics"]["p50_us"]["value"] * 1e-6
        print(f"  fit layers sum {layer_sum:.4f} s of untraced Engine::fit "
              f"{engine_s:.4f} s; remainder {engine_s - layer_sum:+.4f} s "
              f"({(engine_s - layer_sum) / engine_s * 100.0:+.2f}%)")


def contract_line(results, key):
    """The result line: operation counts of every invocation, metrics of the
    last one."""
    last = results[-1]
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": last[key],
    })


def run_one(binary, spec, args):
    deadline = time.monotonic() + DEADLINE_S
    results = []
    if args.trace:
        results.append(run_measured(binary, spec, args.workload, args.seed,
                                    args.seconds, False, deadline))
    results.append(run_measured(binary, spec, args.workload, args.seed,
                                args.seconds, args.trace, deadline))
    print(f"stamp {json.dumps(results[-1]['stamp'])}")
    print_path_names(args.workload, results[0]["metrics"])
    if args.trace:
        print_overhead(spec, args.workload, results[0], results[1])
    print(contract_line(results, "layers" if args.trace else "metrics"))
    return 0 if all(r["correct"] for r in results) else 1


def run_all(binary, spec, args):
    seeds = (args.seed, args.seed + 1)
    results = {}
    for seed in seeds:
        for workload in WORKLOADS:
            print(f"== {workload}, seed {seed}", flush=True)
            results[workload, seed, False] = run_measured(
                binary, spec, workload, seed, args.seconds, False,
                time.monotonic() + DEADLINE_S)
    for workload in WORKLOADS:
        print(f"== {workload}, seed {args.seed}, traced", flush=True)
        results[workload, args.seed, True] = run_workload(
            binary, spec, workload, args.seed, args.seconds, True,
            time.monotonic() + DEADLINE_S)

    print(f"stamp {json.dumps(results[WORKLOADS[0], args.seed, False]['stamp'])}")
    for workload in WORKLOADS:
        print(f"{workload}: end-to-end metrics on seeds {seeds[0]} and "
              f"{seeds[1]} (spread = |difference| / mean; reported, not gated)")
        for m in spec["end_to_end"]:
            a = results[workload, seeds[0], False]["metrics"][m["name"]]["value"]
            b = results[workload, seeds[1], False]["metrics"][m["name"]]["value"]
            spread = abs(a - b) / ((a + b) / 2) * 100.0 if a + b else 0.0
            print(f"  {m['name']:<16} {a:>14.6g} {b:>14.6g} {m['unit']:<7} "
                  f"spread {spread:6.2f}%")
        print_path_names(workload, results[workload, seeds[0], False]["metrics"])
        print_overhead(spec, workload, results[workload, args.seed, False],
                       results[workload, args.seed, True])
    failed = [key for key, r in results.items() if not r["correct"]]
    for workload, seed, trace in failed:
        print(f"FAILED: {workload} seed {seed}{' traced' if trace else ''}")
    print(json.dumps({"correct": not failed,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values())}))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        binary = build()
        return run_one(binary, spec, args) if args.workload else run_all(
            binary, spec, args)
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
