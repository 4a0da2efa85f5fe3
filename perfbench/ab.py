#!/usr/bin/env python3
"""Interleaved same-machine A/B of two commits on the benchmark.

  python3 perfbench/ab.py --base main~1 --head main --pairs 10

Exports each commit into .bench_build/ab/<sha>, overlays the current
perfbench/ directory on both (so both sides run identical benchmark code
and settings), then runs `perfbench/run.py --trace 0` on every workload for
each pair, alternating which side runs first. Pair i uses seed
--seed-base + i on both sides.

Prints, per workload and end-to-end metric, each side's median and
quartiles, the change of the medians, and the share of pairs the head
won (ties count for neither). A gain is claimed only when the head wins at
least 90% of the pairs and the medians differ by more than the base's own
quartile spread; a regression is a head median worse than the base's by
more than the metric's bound in BENCHMARK.json.
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
WORK = os.path.join(ROOT, ".bench_build", "ab")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(rev):
    """An export of `rev` with the current benchmark directory overlaid."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(WORK, sha[:12])
    if not os.path.isdir(path):
        os.makedirs(path)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"git archive {sha} failed")
    bench = os.path.join(path, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    return sha, path


def run_side(path, workload, seed, seconds):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=path, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"run.py failed in {path} on {workload}:\n{result.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, spec, base, head):
    higher = spec["better"] == "higher"
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    h_q1, h_q3 = quartiles(head)
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    share = wins / len(base)
    change = (h_med - b_med) / b_med if b_med else float("nan")
    worse = -change if higher else change
    base_spread = (b_q3 - b_q1) / b_med if b_med else float("inf")
    if share >= 0.9 and abs(h_med - b_med) > (b_q3 - b_q1):
        verdict = "gain"
    elif worse > spec["bound"]:
        verdict = "REGRESSION"
    elif base_spread > spec["bound"]:
        verdict = "unresolved (spread wider than bound)"
    else:
        verdict = "within bound"
    print(f"  {spec['name']:<14} base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
          f"head {h_med:.6g} [{h_q1:.6g}, {h_q3:.6g}] {spec['unit']}  "
          f"change {change:+.1%}  head won {share:.0%}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base commit (the parent)")
    parser.add_argument("--head", default="HEAD", help="commit under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = {"base": checkout(args.base), "head": checkout(args.head)}
    print(f"base {sides['base'][0][:12]}  head {sides['head'][0][:12]}  "
          f"{args.pairs} pairs x {seconds:g} s")

    samples = {(w, side): [] for w in workloads for side in sides}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                out = run_side(sides[side][1], workload, args.seed_base + i, seconds)
                if not out["correct"]:
                    print(f"pair {i}: {side} failed its correctness check on {workload}")
                samples[(workload, side)].append(out["metrics"])
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    for workload in workloads:
        print(workload)
        for spec in bench["end_to_end"]:
            name = spec["name"]
            report(workload, spec,
                   [m[name]["value"] for m in samples[(workload, "base")]],
                   [m[name]["value"] for m in samples[(workload, "head")]])


if __name__ == "__main__":
    main()
