#!/usr/bin/env python3
"""Builds and runs the pgm benchmark; see perfbench/README.md.

  run.py --workload <name|all> --seed N --seconds S --trace 0|1 [--out DIR]
  run.py --smoke [--bin PATH]
  run.py --compare DIR_A... -- DIR_B...

The first form builds pgm_bench (Release) into .bench_build/perfbench and
runs each named workload in its own process; the last stdout line of each
is the workload's JSON result.
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
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pgm_bench",
                  "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            sys.exit(f"run.py: build failed: {error}")
    return str(BUILD / "pgm_bench")


def run_workloads(binary, args, workloads):
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in workloads:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work", str(WORK)]
        if args.out:
            command += ["--out", args.out]
        status = max(status, subprocess.run(command).returncode)
    return status


def smoke(binary, spec):
    """Runs every workload at trace 0 and 1 on shrunk inputs and checks that
    each emits exactly the metrics BENCHMARK.json names, with no failure."""
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        # The two trace modes run side by side, each with its own input
        # directory: the smoke test checks names and failures, not times.
        runs = {trace: subprocess.Popen(
                    [binary, "--workload", workload, "--seed", "42", "--smoke",
                     "--trace", str(trace),
                     "--work", str(WORK / f"smoke{trace}")],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for trace in expected}
        for trace, names in expected.items():
            stdout, stderr = runs[trace].communicate()
            label = f"{workload} trace={trace}"
            lines = stdout.strip().splitlines()
            if runs[trace].returncode != 0 or not lines:
                problems.append(f"{label}: exit {runs[trace].returncode}\n"
                                f"{stderr}")
                continue
            result = json.loads(lines[-1])
            emitted = set(result["metrics"])
            if emitted != names:
                problems.append(f"{label}: missing {sorted(names - emitted)}"
                                f" unexpected {sorted(emitted - names)}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def load_side(directories):
    """(workload, metric) -> one value per run directory, and the runs whose
    operations or output checks failed."""
    values = {}
    failed = []
    for directory in directories:
        for path in sorted(Path(directory).glob("*.json")):
            if path.name.endswith(".spans.json"):
                continue
            result = json.loads(path.read_text())
            if result["failed"] != 0 or not result["correct"]:
                failed.append(f"{path}: {result['failed']} of "
                              f"{result['attempted']} operations failed")
            for name, metric in result["metrics"].items():
                values.setdefault((result["workload"], name), []).append(
                    metric["value"])
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a, b, lower, bound):
    """Improved: B wins at least 9 of 10 pairs and the medians differ by more
    than A's IQR. Otherwise, against the bound: no worse, worse, or
    unresolved when A's own spread is wider than the bound."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    gain = (median_a - median_b) if lower else (median_b - median_a)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return wins, len(pairs), "improved"
    if bound is None:
        return wins, len(pairs), "-"
    scale = abs(median_a) or 1.0
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if (q3 - q1) / scale > bound and not all_better:
        return wins, len(pairs), "unresolved"
    return wins, len(pairs), ("no worse" if -gain / scale <= bound
                              else "worse")


def compare(a_dirs, b_dirs, spec):
    """Prints the comparison; exits 1 when a B metric is worse than its bound
    or a run on either side failed an operation or an output check."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (a, a_failed), (b, b_failed) = load_side(a_dirs), load_side(b_dirs)
    print(f"{'workload':<15} {'metric':<28} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B wins':<7} verdict")
    worse = False
    for workload, name in sorted(a.keys() & b.keys()):
        metric = metrics.get(name)
        if metric is None:
            continue
        va, vb = a[(workload, name)], b[(workload, name)]
        wins, pairs, result = verdict(va, vb, metric["better"] == "lower",
                                      metric.get("bound"))
        worse |= result == "worse"
        cells = []
        for values in (va, vb):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.6g} "
                         f"[{q1:.6g}, {q3:.6g}] n={len(values)}")
        print(f"{workload:<15} {name:<28} {cells[0]:<34} {cells[1]:<34} "
              f"{wins}/{pairs:<5} {result}")
    for side, failed in (("A", a_failed), ("B", b_failed)):
        for run in failed:
            print(f"{side} failed: {run}")
    return 1 if worse or a_failed or b_failed else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "--compare":
        if "--" not in argv:
            sys.exit("usage: run.py --compare DIR_A... -- DIR_B...")
        split = argv.index("--")
        return compare(argv[1:split], argv[split + 1:], load_spec())

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="use this pgm_bench instead of building")
    args = parser.parse_args(argv)
    spec = load_spec()
    binary = args.bin or build()
    if args.smoke:
        return smoke(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_workloads(binary, args, names)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    return run_workloads(binary, args, [args.workload])


if __name__ == "__main__":
    sys.exit(main())
