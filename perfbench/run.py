#!/usr/bin/env python3
"""Build and run the cheriperf benchmark.

One run, one workload, one process:

    python3 perfbench/run.py --workload paper-exact --seed 7 --seconds 30 --trace 0

builds perfbench/ (and the library under src/) into .bench_build/, runs the
workload and passes its output through: a metric table, then one JSON line
with "correct", "attempted", "failed" and "metrics". --trace 1 makes the
traced run, which prints the per-layer metrics and writes the span file
.bench_build/trace-<workload>-<seed>.json.

Steadiness report, the evidence that the bounds in BENCHMARK.json hold:

    python3 perfbench/run.py --steadiness 10 [--sets 2] [--workloads a,b]

runs every workload N times per set with a different seed each time, in
alternating workload order, and prints per metric and workload the median,
the quartiles and the spread (q3 - q1) / median against the metric's bound.
With --sets 2 it also compares the second set's median with the first's.
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
WORKLOADS = ["paper-exact", "approx-ref", "serve-mix"]


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the cheriperf sources (src/) are not next to "
                 "perfbench/; run from a full checkout")
    out = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """One workload run; returns (exit code, stdout text)."""
    work = os.path.join(build_root(), "work", "%s-%d" % (workload,
                                                          os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_root(), "trace-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_problem(spec, trace, line):
    """Why @line is not a result with exactly BENCHMARK.json's metrics
    for this mode (end_to_end untraced, per_layer traced), or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        return "metrics or units differ from BENCHMARK.json: %s" % sorted(
            set(want.items()) ^ set(got.items()))
    return None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(binary, args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else WORKLOADS
    metrics = spec["end_to_end"]
    # values[set][workload][metric] -> list
    values = [{w: {m["name"]: [] for m in metrics} for w in names}
              for _ in range(args.sets)]
    bad = []
    for s in range(args.sets):
        for i in range(args.steadiness):
            seed = args.seed_base + s * args.steadiness + i
            order = names if i % 2 == 0 else list(reversed(names))
            for w in order:
                code, out = run_once(binary, w, seed, seconds, 0)
                lines = (out or "").strip().splitlines()
                result = json.loads(lines[-1]) if code == 0 and lines and \
                    not result_problem(spec, 0, lines[-1]) else None
                if not result or not result["correct"] or result["failed"]:
                    bad.append((w, seed, code, lines[-1] if lines else ""))
                    continue
                for m in metrics:
                    values[s][w][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                sys.stderr.write("set %d seed %d %s done\n" % (s + 1, seed, w))

    report = []
    print("%-12s %-16s %12s %12s %12s %8s %6s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "verdict"))
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = {"workload": w, "metric": name, "bound": bound,
                   "sets": []}
            for s in range(args.sets):
                vals = values[s][w][name]
                if len(vals) < 2:
                    continue
                med, q1, q3, sp = spread(vals)
                row["sets"].append({"median": med, "q1": q1, "q3": q3,
                                    "spread": sp, "values": vals})
                verdict = ("steady" if sp <= bound / 3 else
                           "within-bound" if sp <= bound else "TOO-WIDE")
                print("%-12s %-16s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
                    w if s == 0 else "  set %d" % (s + 1), name, med, q1,
                    q3, sp, bound, verdict))
            if len(row["sets"]) == 2:
                a, b = row["sets"][0]["median"], row["sets"][1]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                row["second_set_worse_by"] = worse
                print("%-12s %-16s second median worse by %+.4f (bound %.3f)"
                      " %s" % ("", name, worse, bound,
                               "ok" if worse <= bound else "TOO-MUCH"))
            report.append(row)
    for w, seed, code, last in bad:
        print("FAILED RUN: %s seed %d exit %d: %s" % (w, seed, code, last))
    path = os.path.join(build_root(), "steadiness.json")
    with open(path, "w") as f:
        json.dump({"seconds": seconds, "runs_per_set": args.steadiness,
                   "failed_runs": len(bad), "rows": report}, f, indent=1)
    print("written %s" % path)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="runs per workload per set")
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    p.add_argument("--workloads", help="comma-separated subset")
    p.add_argument("--seed-base", type=int, default=1000)
    args = p.parse_args()
    if args.steadiness is None and (args.workload is None or
                                    args.seed is None or
                                    args.seconds is None):
        p.error("--workload, --seed and --seconds are required")
    binary = build()
    if args.steadiness is not None:
        return steadiness(binary, args)
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    lines = (out or "").rstrip("\n").splitlines()
    if code != 0 or not lines:
        return code or 1
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    problem = result_problem(load_spec(), args.trace, lines[-1])
    if problem:
        sys.exit("perfbench: " + problem)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
