#!/usr/bin/env python3
"""Runs perfbench in alternating parent/change pairs and compares them.

Usage (from anywhere):

    python3 tools/perf_pairs.py --parent ../parent --change . \
        --workload engine_read --pairs 10 --seconds 40

Each pair runs `perfbench/run.py` once in each checkout, with the parent
first in even pairs and the change first in odd ones, so a drift in the
host's load does not favour one side. Each checkout builds into its own
directory (CARGO_TARGET_DIR=<build-root>/parent or .../change), so the two
builds never share objects. For every end-to-end metric named in the
change's BENCHMARK.json the script prints both sides' medians and
quartiles, the median of the per-pair ratios (change / parent) and how
many pairs the change won. A run that prints no result line, or reports
`correct: false` or a failed operation, is listed and left out of the
statistics.

It is advisory: it decides nothing and exits 0 whatever the numbers say,
unless a run could not be started. Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_metrics(checkout):
    """[(name, better)] from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m.get("better", "lower")) for m in spec["end_to_end"]]


def run_once(checkout, build_dir, args):
    """One perfbench run; the parsed result line, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def usable(result):
    return (result is not None and result.get("correct", False)
            and result.get("failed", 1) == 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-root",
                        help="where the two build directories go "
                             "(default: a new temporary directory)")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    build_root = os.path.abspath(
        args.build_root or tempfile.mkdtemp(prefix="perf_pairs_"))
    builds = {side: os.path.join(build_root, side) for side in SIDES}
    metrics = end_to_end_metrics(checkouts["change"])

    runs = []  # [{"parent": result, "change": result}]
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_once(checkouts[side], builds[side], args)
            status = "ok" if usable(pair[side]) else "UNUSABLE"
            print(f"pair {i + 1}/{args.pairs} {side}: {status}",
                  file=sys.stderr)
        runs.append(pair)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"args": vars(args), "runs": runs}, f, indent=1)

    good = [p for p in runs if usable(p["parent"]) and usable(p["change"])]
    bad = len(runs) - len(good)
    print(f"{args.workload}: seed {args.seed}, --seconds {args.seconds}, "
          f"{len(good)} usable pairs of {len(runs)}"
          + (f" ({bad} left out)" if bad else ""))
    if not good:
        return 0
    header = (f"{'metric':<16} {'parent median [IQR]':>30} "
              f"{'change median [IQR]':>30} {'ratio':>7} {'wins':>6}")
    print(header)
    for name, better in metrics:
        values = {side: [p[side]["metrics"][name]["value"] for p in good
                         if name in p[side].get("metrics", {})]
                  for side in SIDES}
        if len(values["parent"]) != len(good) or \
                len(values["change"]) != len(good):
            print(f"{name:<16} (missing from some runs)")
            continue
        cells = []
        for side in SIDES:
            q1, q2, q3 = quartiles(values[side])
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        ratios = [c / p for p, c in zip(values["parent"], values["change"])
                  if p != 0]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        if better == "lower":
            wins = sum(c < p for p, c in zip(values["parent"],
                                             values["change"]))
        else:
            wins = sum(c > p for p, c in zip(values["parent"],
                                             values["change"]))
        print(f"{name:<16} {cells[0]:>30} {cells[1]:>30} {ratio:>7} "
              f"{wins:>3}/{len(good):<2}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
