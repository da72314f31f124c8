#!/usr/bin/env python3
"""A/A steadiness check: the same build measured against itself.

    python3 mjbench/aa.py [--runs 5] [--workloads a,b] [--seed-base 100]

Runs two interleaved sets, A and B, of the benchmark command named in
BENCHMARK.json: for each of --runs seeds and each workload it runs A and
B back to back, alternating which goes first. Every run uses the seconds
BENCHMARK.json fixes. It prints each run's values as the run ends; then,
for every workload and end-to-end metric, the median and quartiles of
each set, the spread (interquartile distance over median, as
statistics.quantiles(n=4) gives the quartiles) of all runs together, and
the B/A ratio of medians, each against the metric's bound. It fails when a spread exceeds a third of its bound, when a B
median is worse than A's by more than the bound, when a run fails, or
when the simulator's virtual response differs between two runs of one
seed. Run from the root of a checkout.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    sim = re.search(r"# sim virtual response (\d+) ticks", proc.stdout)
    ok = (proc.returncode == 0 and result.get("correct") is True
          and result.get("failed") == 0)
    return ok, result.get("metrics", {}), sim.group(1) if sim else None


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    values = {(w, s): {m["name"]: [] for m in metrics}
              for w in workloads for s in "AB"}
    sim_ticks = {}
    problems = []
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                ok, got, ticks = run_once(spec, w, seed)
                print("%s seed %d set %s: %s %s" % (
                    w, seed, side, "ok" if ok else "FAILED",
                    " ".join("%s=%.4g" % (m["name"], got[m["name"]]["value"])
                             for m in metrics if m["name"] in got)),
                      flush=True)
                if not ok:
                    problems.append("%s seed %d set %s failed" % (w, seed, side))
                for m in metrics:
                    if m["name"] in got:
                        values[(w, side)][m["name"]].append(
                            got[m["name"]]["value"])
                    else:
                        problems.append("%s: %s missing" % (w, m["name"]))
                if ticks is not None:
                    if sim_ticks.setdefault((w, seed), ticks) != ticks:
                        problems.append("%s seed %d: sim response %s != %s" % (
                            w, seed, ticks, sim_ticks[(w, seed)]))

    print("\n%-14s %-17s %11s %23s %11s %23s %7s %7s %7s" % (
        "workload", "metric", "median A", "quartiles A", "median B",
        "quartiles B", "spread", "B/A", "bound"))
    for w in workloads:
        for m in metrics:
            a = values[(w, "A")][m["name"]]
            b = values[(w, "B")][m["name"]]
            if len(a) < 2 or len(b) < 2:
                continue
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            s = spread(a + b)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb / ma - 1) if m["better"] == "lower" else (1 - mb / ma)
            flag = ""
            if s > m["bound"] / 3:
                flag += " SPREAD"
                problems.append("%s %s spread %.3f > bound/3" % (
                    w, m["name"], s))
            if worse > m["bound"]:
                flag += " WORSE"
                problems.append("%s %s B worse than A by %.3f" % (
                    w, m["name"], worse))
            print("%-14s %-17s %11.4f %11.4f-%-11.4f %11.4f %11.4f-%-11.4f "
                  "%7.3f %7.3f %7.2f%s" % (
                      w, m["name"], ma, qa[0], qa[2], mb, qb[0], qb[2], s,
                      mb / ma, m["bound"], flag))
    if problems:
        print("\nA/A check FAILED:\n  " + "\n  ".join(problems))
        return 1
    print("\nA/A check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
