"""Steadiness check: run each workload k times and compare spreads to bounds.

For every end-to-end metric of ``BENCHMARK.json`` it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the metric's bound.  A spread
above a third of the bound is marked ``wide``, above the bound ``FAIL``.
The failed share must be the same in every run.  At the end it prints,
per metric, the widest spread over the workloads and three times it
(at most 0.25): the rule the bounds in ``BENCHMARK.json`` were set by.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve-zipf --first-seed 11

Exit code 1 when a spread exceeds its bound or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    report = {}
    for workload in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f}s wall",
                  file=sys.stderr, flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"correct={correct}, failed shares={sorted(map(str, shares))}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        report[workload] = {}
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary = quartile_spread(values)
            report[workload][name] = dict(summary, values=values)
            if summary["spread"] > meta["bound"]:
                verdict, ok = "FAIL", False
            elif summary["spread"] > meta["bound"] / 3:
                verdict = "wide"
            else:
                verdict = "steady"
            print(f"  {name:<14} {summary['median']:12.4f} {summary['q1']:12.4f} "
                  f"{summary['q3']:12.4f} {summary['spread']:8.2%} "
                  f"{meta['bound']:6.2f}  {verdict}")
        if len(shares) != 1 or not correct:
            ok = False
    print(f"\n  {'metric':<14} {'widest':>8} {'x3':>6} {'bound':>6}")
    for name, meta in bounds.items():
        widest = max(report[w][name]["spread"] for w in names)
        print(f"  {name:<14} {widest:8.2%} {min(0.25, 3 * widest):6.3f} "
              f"{meta['bound']:6.2f}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
