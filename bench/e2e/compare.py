#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or checks one set's spread.

    compare.py BENCHMARK.json DIR_A DIR_B    parent (A) against change (B)
    compare.py --spread BENCHMARK.json DIR   run-to-run spread of one set
    compare.py --check-names BENCHMARK.json BINARY

DIR holds the result files utilrisk_benchmark writes
(WORKLOAD.seedS.trace0.json); only untraced runs count. For every
workload x end-to-end metric the comparison prints each side's median and
quartiles and a verdict:

  regression  B's median is worse than A's by more than the metric's bound
  unresolved  A's run-to-run spread (quartile distance / median) exceeds
              the bound, so "no regression" cannot be told from noise --
              unless every B run reads better than every A run
  improved    B wins at least 9 of 10 seed-paired runs (ties count for
              neither) and the medians differ by more than A's quartile
              distance; pairs should alternate which side ran first
  ok          none of the above

Exit status: 1 when any row is a regression or unresolved, else 0.
Standard library only.
"""

import glob
import json
import os
import statistics
import subprocess
import sys


def load_runs(directory):
    """{workload: [result dict, ...]} of the untraced runs in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace0.json"))):
        with open(path) as handle:
            result = json.load(handle)
        if result.get("smoke"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def metric(result, name):
    for entry in result["metrics"]:
        if entry["name"] == name:
            return entry["value"]
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def alternation(runs_a, runs_b):
    """Seed-paired runs, and how many pairs broke the alternating order."""
    by_seed_b = {r["seed"]: r for r in runs_b}
    pairs = [(a, by_seed_b[a["seed"]]) for a in runs_a if a["seed"] in by_seed_b]
    pairs.sort(key=lambda p: min(p[0]["started_at"], p[1]["started_at"]))
    broken = 0
    for i, (a, b) in enumerate(pairs):
        a_first = a["started_at"] < b["started_at"]
        if a_first != (i % 2 == 0):
            broken += 1
    return pairs, broken


def compare(bench, dir_a, dir_b):
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    failing = 0
    header = "%-22s %-18s %-33s %-33s %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "verdict")
    print(header)
    for workload in bench["workloads"]:
        name = workload["name"]
        a_runs, b_runs = runs_a.get(name, []), runs_b.get(name, [])
        if not a_runs or not b_runs:
            print("%-22s missing runs (A %d, B %d)" % (name, len(a_runs),
                                                        len(b_runs)))
            failing += 1
            continue
        pairs, broken = alternation(a_runs, b_runs)
        for spec in bench["end_to_end"]:
            key, better, bound = spec["name"], spec["better"], spec["bound"]
            a_vals = [metric(r, key) for r in a_runs]
            b_vals = [metric(r, key) for r in b_runs]
            a_q1, a_med, a_q3 = quartiles(a_vals)
            b_q1, b_med, b_q3 = quartiles(b_vals)
            spread = (a_q3 - a_q1) / a_med if a_med else 0.0
            if better == "lower":
                all_better = max(b_vals) < min(a_vals)
            else:
                all_better = min(b_vals) > max(a_vals)
            wins = sum(1 for a, b in pairs
                       if worse(metric(a, key), metric(b, key), better) < 0)
            verdict = "ok"
            if worse(a_med, b_med, better) > bound:
                verdict = "regression"
            elif spread > bound and not all_better:
                verdict = "unresolved (A spread %.3f > bound %.2f)" % (spread,
                                                                      bound)
            elif (pairs and wins >= 0.9 * len(pairs)
                  and abs(b_med - a_med) > a_q3 - a_q1):
                verdict = "improved (%d/%d pairs%s)" % (
                    wins, len(pairs),
                    "" if broken == 0 else ", %d out of order" % broken)
            if verdict.startswith(("regression", "unresolved")):
                failing += 1
            print("%-22s %-18s %-33s %-33s %s" % (
                name, key, "%.6g [%.6g, %.6g]" % (a_med, a_q1, a_q3),
                "%.6g [%.6g, %.6g]" % (b_med, b_q1, b_q3), verdict))
    return 1 if failing else 0


def spread(bench, directory):
    """The acceptance check on one set: each end-to-end metric's quartile
    distance over its median, against its bound."""
    runs = load_runs(directory)
    failing = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        results = runs.get(name, [])
        incorrect = sum(1 for r in results if not r["correct"])
        print("%s: %d runs, %d incorrect" % (name, len(results), incorrect))
        failing += incorrect
        if len(results) < 2:
            failing += 1
            continue
        for spec in bench["end_to_end"]:
            q1, med, q3 = quartiles([metric(r, spec["name"]) for r in results])
            share = (q3 - q1) / med if med else float("inf")
            flag = ""
            if share > spec["bound"] / 3:
                flag = "  above a third of the bound"
                if share > spec["bound"]:
                    flag = "  ABOVE THE BOUND"
                    failing += 1
            print("  %-18s median %-12.6g spread %.3f (bound %.2f)%s" % (
                spec["name"], med, share, spec["bound"], flag))
    return 1 if failing else 0


def check_names(bench, binary):
    """BENCHMARK.json must name exactly the workloads and metrics the
    driver reports, with the same units, and its run length."""
    listed = subprocess.run([binary, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    driver = {"end_to_end": [], "per_layer": [], "workload": [],
              "run_seconds": []}
    for line in filter(None, listed):
        parts = line.split()
        driver[parts[0]].append(tuple(parts[1:]))
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in bench["per_layer"]],
        "workload": [(w["name"],) for w in bench["workloads"]],
        "run_seconds": [(str(bench["run_seconds"]),)],
    }
    ok = True
    for kind in driver:
        if sorted(driver[kind]) != sorted(declared[kind]):
            ok = False
            print("%s differs: driver %s, BENCHMARK.json %s" % (
                kind, sorted(set(driver[kind]) - set(declared[kind])),
                sorted(set(declared[kind]) - set(driver[kind]))))
    print("metric names match" if ok else "metric names differ")
    return 0 if ok else 1


def main(argv):
    if len(argv) == 4 and argv[1] == "--check-names":
        with open(argv[2]) as handle:
            return check_names(json.load(handle), argv[3])
    if len(argv) == 4 and argv[1] == "--spread":
        with open(argv[2]) as handle:
            return spread(json.load(handle), argv[3])
    if len(argv) == 4:
        with open(argv[1]) as handle:
            return compare(json.load(handle), argv[2], argv[3])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
