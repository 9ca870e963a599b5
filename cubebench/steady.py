#!/usr/bin/env python3
"""Steadiness helper: runs one workload N times and prints, per metric, the
median, the quartiles and the relative spread (q3 - q1) / median, next to
the metric's bound from BENCHMARK.json.

    python3 cubebench/steady.py --workload serve --runs 10 [--seconds 20]
        [--first-seed 1] [--trace 0]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed + 1, ...). Quartiles are statistics.quantiles(values, n=4), the
same rule the bounds are checked with. Each run's metric values are printed
too, so a drift of the machine's speed across the set shows. The tail lines
every run prints (percentile used, sample count, samples beyond it,
request-class shares at the tail) are collected and shown for each run, so
a p99 that sits on the
boundary between a light and a heavy request class, or a percentile with
fewer than ten samples beyond it, is visible.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return {}, 60
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    return bounds, spec.get("run_seconds", 60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds, run_seconds = load_bounds()
    seconds = args.seconds or run_seconds

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", args.trace]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("run %d (seed %d) failed with code %d" %
                  (i, seed, done.returncode))
            print("\n".join(lines[-5:]))
            sys.exit(1)
        result = json.loads(lines[-1])
        tails = [l.strip() for l in lines
                 if "beyond" in l or "classes" in l or "error_rate" in l]
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]))
        for line in tails:
            print("    " + line)
        print("    " + " ".join("%s=%.6g" % (name, metric["value"])
                                 for name, metric in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("\n%-34s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else (
                "WIDE" if spread > bound else "near")
        print("%-34s %14.6g %14.6g %14.6g %8.4f %6s %s %s" %
              (name, median, q1, q3, spread,
               "" if bound is None else bound, units[name], flag))


if __name__ == "__main__":
    main()
