#!/usr/bin/env python3
"""Kernel-scaling regression gate for CI.

Compares fresh BENCH_kernel_scaling.json runs against the checked-in
baseline and fails when any (nodes, policy) point regresses in events/sec
by more than the allowed fraction. At every node count a current file
measured, it must carry exactly the baseline's policy labels: a missing
or unknown label is an error, not an ungated point. Several current files
may be given; each point is judged on its best run (best-of-N filters
scheduler noise on shared CI runners without masking real regressions,
which the indexed-vs-linear work shows up as integer multiples, not
percents). Digests are compared too: an events/sec change
with a digest change is a behaviour change, not a perf regression, and
gets its own error message.

Usage: check_kernel_scaling.py BASELINE CURRENT... [--max-regression 0.20]
"""
import argparse
import json
import sys


def load_points(path):
    with open(path) as handle:
        data = json.load(handle)
    return {(row["nodes"], row["policy"]): row for row in data["scaling"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+")
    parser.add_argument("--max-regression", type=float, default=0.20)
    args = parser.parse_args()

    baseline = load_points(args.baseline)
    current = {}
    failures = []
    for path in args.current:
        points = load_points(path)
        for nodes in sorted({n for n, _ in points}):
            expected = {p for n, p in baseline if n == nodes}
            measured = {p for n, p in points if n == nodes}
            for policy in sorted(expected - measured):
                failures.append(f"{path}: n={nodes} is missing {policy!r}")
            for policy in sorted(measured - expected):
                failures.append(
                    f"{path}: n={nodes} has {policy!r}, which the baseline"
                    " does not"
                )
        for key, row in points.items():
            best = current.get(key)
            if best is None or row["events_per_sec"] > best["events_per_sec"]:
                current[key] = row
    shared = sorted(set(baseline) & set(current))
    if not shared:
        failures.append("no (nodes, policy) points in common")

    for key in shared:
        base, cur = baseline[key], current[key]
        if base["digest"] != cur["digest"]:
            failures.append(
                f"{key}: digest changed {base['digest']} -> {cur['digest']}"
                " (simulation behaviour diverged; regenerate the baseline"
                " only if the change is intended)"
            )
            continue
        ratio = cur["events_per_sec"] / base["events_per_sec"]
        status = "ok" if ratio >= 1.0 - args.max_regression else "REGRESSION"
        print(
            f"{key[1]:>10} n={key[0]:<7} baseline "
            f"{base['events_per_sec']:>12.0f} ev/s  current "
            f"{cur['events_per_sec']:>12.0f} ev/s  ratio {ratio:5.2f}  {status}"
        )
        if status != "ok":
            failures.append(
                f"{key}: {cur['events_per_sec']:.0f} ev/s is "
                f"{(1.0 - ratio) * 100.0:.1f}% below baseline "
                f"{base['events_per_sec']:.0f} ev/s"
            )

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
