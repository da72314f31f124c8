#!/usr/bin/env python3
"""Smoke self-test of the benchmark's output contract.

    python3 mjbench/selftest.py [--seconds 2]

For every workload in BENCHMARK.json it runs the benchmark once untraced
and once traced, for a short time, and checks that:
  - the last stdout line is one JSON object with exactly the keys correct,
    attempted, failed and metrics; the run is correct with no failure;
  - an untraced run prints every end-to-end metric, and a traced run every
    per-layer metric, each with the unit BENCHMARK.json names and a finite
    value; every end-to-end metric is nonzero;
  - a traced run writes its spans as Chrome trace_event JSON and a
    per-layer self-time table whose engine layers, without the
    benchmark's own `bench` spans, cover 95% of the traced wall;
  - the simulator's virtual response repeats exactly for one seed.
Run from the root of a checkout; exits nonzero on the first failure.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(spec, workload, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def check_result(spec, workload, trace, code, out):
    where = "%s trace %d" % (workload, trace)
    check(code == 0, "%s: exit code %d" % (where, code))
    result = json.loads(out.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s: keys %s" % (where, sorted(result)))
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, "%s: %s" % (where, {
              k: result[k] for k in ("correct", "attempted", "failed")}))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in wanted),
          "%s: metric names differ: %s" % (
              where, sorted(set(got) ^ {m["name"] for m in wanted})))
    for m in wanted:
        value = got[m["name"]]
        check(value["unit"] == m["unit"], "%s: %s unit %s" % (
            where, m["name"], value["unit"]))
        check(isinstance(value["value"], (int, float))
              and math.isfinite(value["value"]),
              "%s: %s value %r" % (where, m["name"], value["value"]))
        if not trace:
            check(value["value"] != 0, "%s: %s is 0" % (where, m["name"]))
    ticks = re.search(r"# sim virtual response (\d+) ticks", out)
    check(ticks is not None, "%s: no sim response line" % where)
    return ticks.group(1)


def check_trace_files(workload):
    stem = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace1" % (
        workload, SEED))
    with open(stem + "-spans.json") as f:
        events = json.load(f)["traceEvents"]
    check(events and all(e["ph"] == "X" for e in events),
          "%s: bad trace events" % workload)
    layers = {e["cat"] for e in events}
    for layer in ("storage", "strategy", "xra", "serve", "engine.thread",
                  "engine.process", "sim"):
        check(layer in layers, "%s: no %s spans" % (workload, layer))
    with open(stem + "-layers.txt") as f:
        table = f.read()
    cover = re.search(r"layers but bench cover [\d.]+ s of [\d.]+ s traced "
                      r"wall \(([\d.]+)%\)", table)
    check(cover and float(cover.group(1)) >= 95.0,
          "%s: layers do not cover the traced wall:\n%s" % (workload, table))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        for w in [w["name"] for w in spec["workloads"]]:
            ticks = []
            for trace in (0, 1):
                code, out = run(spec, w, args.seconds, trace)
                ticks.append(check_result(spec, w, trace, code, out))
            check(ticks[0] == ticks[1], "%s: sim response %s then %s" % (
                w, ticks[0], ticks[1]))
            check_trace_files(w)
            print("%s: ok" % w, flush=True)
        code, _ = run(spec, "no_such_workload", args.seconds, 0)
        check(code != 0, "unknown workload exited 0")
    except AssertionError as e:
        print("selftest FAILED: %s" % e)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
