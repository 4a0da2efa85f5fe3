#!/usr/bin/env python3
"""End-to-end benchmark of the ECN# simulator.

Builds the benchmark binary from the checkout's sources, generates the run
config of one workload from --seed, and measures it for --seconds:

  python3 perfbench/run.py --workload dumbbell_ws70 --seed 1 --seconds 30 --trace 0

With --trace 0 each pass is an ecnbench process that runs the workload's
simulations through the library's public runner; the end-to-end metrics are
medians over passes. With --trace 1 untraced and traced passes alternate;
the traced pass assembles the same simulations from the runner's parts with
the benchmark's taps attached, and reports the per-layer metrics.

--workload all runs every workload in turn and prints one table.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count flows. A flow fails if it did not complete, or
if it belongs to a pass whose correctness check failed.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ecnbench")
DEFAULT_WORKLOADS = os.path.join(HERE, "workloads.json")

# The seed whose simulated statistics are pinned in the workloads file.
DEFAULT_SEED = 1
# Distance between the seeds of successive passes of one run.
SEED_STRIDE = 7919
PASS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

END_TO_END_UNITS = {"sim_to_wall": "sim_s/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    """Configures once and builds the benchmark binary; output goes to stderr."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "ecnbench"])
    for step in steps:
        result = run_child(step, BUILD_TIMEOUT_S, capture=False)
        if result["status"] != 0:
            raise BenchError("build step failed: " + " ".join(step))


def run_child(argv, timeout_s, capture=True):
    """Runs one child process to completion and returns its exit status,
    stdout and peak resident memory. The child is killed on timeout and
    always reaped before this returns."""
    child = subprocess.Popen(
        argv, cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else sys.stderr.fileno())
    timer = threading.Timer(timeout_s, child.kill)
    timer.start()
    try:
        out = child.stdout.read() if capture else b""
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        os.wait4(child.pid, 0)
        raise
    finally:
        timer.cancel()
        if child.stdout is not None:
            child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"status": child.returncode, "stdout": out.decode(),
            "rss_mb": usage.ru_maxrss / 1024.0}


def load_workloads(path):
    with open(path) as f:
        return json.load(f)["workloads"]


def make_config(name, definition, seed):
    """The config ecnbench receives: the workload's shape and one seed."""
    config = {key: value for key, value in definition.items()
              if key != "pinned_digest"}
    config.update(workload=name, seed=seed)
    os.makedirs(os.path.join(BUILD_ROOT, "configs"), exist_ok=True)
    path = os.path.join(BUILD_ROOT, "configs", f"{name}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump(config, f, indent=1)
    return path


def run_pass(argv):
    result = run_child([BINARY] + argv, PASS_TIMEOUT_S)
    if result["status"] != 0:
        raise BenchError(f"ecnbench {argv[0]} exited with {result['status']}")
    lines = result["stdout"].strip().splitlines()
    if not lines:
        raise BenchError(f"ecnbench {argv[0]} printed nothing")
    report = json.loads(lines[-1])
    report["rss_mb"] = result["rss_mb"]
    return report


class Checker:
    """Correctness of a run's passes: every flow completes, the bottleneck
    counters add up, and the simulated statistics match the pinned digest
    for the default seed. For every seed they must also repeat: across the
    passes of a run that share a seed, and across runs of this build, whose
    digests are recorded in .bench_build/digests.json."""

    def __init__(self, name, definition):
        self.name = name
        self.pinned = definition.get("pinned_digest")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.record_path = os.path.join(BUILD_ROOT, "digests.json")
        with open(BINARY, "rb") as f:
            self.build_id = hashlib.sha256(f.read()).hexdigest()[:16]
        try:
            with open(self.record_path) as f:
                record = json.load(f)
        except (OSError, ValueError):
            record = {}
        self.record = record if record.get("build") == self.build_id else {
            "build": self.build_id, "digests": {}}

    def check(self, report, label):
        flows = report["flows_started"]
        incomplete = flows - report["flows_completed"]
        problems = []
        if report["enqueued"] < report["dequeued"] + report["purged"]:
            problems.append("dequeued + purged exceed enqueued")
        if report.get("accounting_error"):
            problems.append(report["accounting_error"])
        if report["seed"] == DEFAULT_SEED and report["digest"] != self.pinned:
            problems.append(f"digest {report['digest']} != pinned {self.pinned}")
        key = f"{self.name}/{report['seed']}"
        seen = self.record["digests"].setdefault(key, report["digest"])
        if report["digest"] != seen:
            problems.append(f"digest {report['digest']} != earlier run {seen}")
        self.attempted += flows
        self.failed += flows if problems else incomplete
        self.problems += [f"{label}: {p}" for p in problems]
        if incomplete:
            self.problems.append(f"{label}: {incomplete} flows did not complete")

    def save(self):
        with open(self.record_path, "w") as f:
            json.dump(self.record, f, indent=1)

    @property
    def correct(self):
        return not self.problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary_line(name, unit, values):
    q1, q3 = quartiles(values)
    return (f"  {name:<32} {statistics.median(values):>14.6g} {unit:<8} "
            f"n={len(values)} q1={q1:.6g} q3={q3:.6g}")


def keep_going(start, seconds, last_pass_s):
    """Starts another pass only if it is expected to end within --seconds."""
    return time.monotonic() - start + last_pass_s <= seconds


def measure(name, definition, seed, seconds):
    """--trace 0: untraced passes, pass i on seed + i * SEED_STRIDE; the
    end-to-end metrics are medians over the passes."""
    checker = Checker(name, definition)
    samples = {metric: [] for metric in END_TO_END_UNITS}
    start = time.monotonic()
    while True:
        began = time.monotonic()
        index = len(samples["setup_s"])
        report = run_pass(["run", make_config(name, definition,
                                              seed + index * SEED_STRIDE)])
        checker.check(report, f"pass {index + 1}")
        samples["sim_to_wall"].append(report["sim_s"] / report["run_s"])
        samples["setup_s"].append(report["setup_s"])
        samples["peak_rss_mb"].append(report["rss_mb"])
        if not keep_going(start, seconds, time.monotonic() - began):
            break
    return checker, samples


def measure_traced(name, definition, seed, seconds):
    """--trace 1: untraced and traced passes on --seed alternate; per-layer
    metrics from the traced passes, tracing overhead from each pair."""
    path = make_config(name, definition, seed)
    checker = Checker(name, definition)
    layers = {}
    overhead = []
    spans_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    start = time.monotonic()
    while True:
        began = time.monotonic()
        pair = len(overhead) + 1
        plain = run_pass(["run", path])
        checker.check(plain, f"untraced pass {pair}")
        spans = os.path.join(spans_dir, f"{name}-seed{seed}-pass{pair}.json")
        traced = run_pass(["trace", path, spans])
        checker.check(traced, f"traced pass {pair}")
        overhead.append(traced["run_s"] / plain["run_s"])
        for metric, value in traced["layers"].items():
            layers.setdefault(metric, []).append(value)
        if not keep_going(start, seconds, time.monotonic() - began):
            break
    for metric, values in layers.items():
        if isinstance(values[0], int) and len(set(values)) != 1:
            checker.problems.append(f"count {metric} differs across traced passes: {values}")
    layers["bench.trace_overhead"] = overhead
    log(f"{name}: spans of {len(overhead)} traced passes in {spans_dir}")
    return checker, layers


def layer_unit(metric):
    if metric.endswith("_ns") or ".decision_ns." in metric or metric == "sim.ns_per_event":
        return "ns"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric in ("sim.events_per_hop", "aqm.mark_frac", "bench.trace_overhead"):
        return "ratio"
    return "count"


def run_workload(name, definition, seed, seconds, traced):
    if traced:
        checker, series = measure_traced(name, definition, seed, seconds)
        units = {metric: layer_unit(metric) for metric in series}
    else:
        checker, series = measure(name, definition, seed, seconds)
        units = dict(END_TO_END_UNITS)
    print(f"{name} (seed {seed}, {'traced' if traced else 'untraced'}):")
    for metric, values in series.items():
        print(summary_line(metric, units[metric], values))
    fail_frac = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"  {'fail_frac':<32} {fail_frac:>14.6g} {'ratio':<8} "
          f"failed={checker.failed} attempted={checker.attempted}")
    for problem in checker.problems:
        print(f"  CHECK FAILED {problem}")
    checker.save()
    metrics = {metric: {"value": statistics.median(values), "unit": units[metric]}
               for metric, values in series.items()}
    return checker, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads-file", default=DEFAULT_WORKLOADS,
                        help="workload definitions and pinned digests")
    args = parser.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 1 and --seconds > 0")

    # A terminated benchmark still reaps its child (run_child's handler).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        workloads = load_workloads(args.workloads_file)
        if args.workload == "all":
            names = list(workloads)
        elif args.workload in workloads:
            names = [args.workload]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {', '.join(workloads)}")
        build()
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            checker, found = run_workload(name, workloads[name], args.seed,
                                          args.seconds, args.trace == 1)
            correct = correct and checker.correct
            attempted += checker.attempted
            failed += checker.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in found.items()})
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"run.py: {error}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
