#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the middleware libraries from src/ plus the round
program in this directory) into $CARGO_TARGET_DIR, or .bench_build when
unset, then runs one measurement as a series of rounds, each in a fresh
process.  --trace 0 runs five untraced rounds that share --seconds and
reports the median of each end-to-end figure over them.  --trace 1 runs
the probe transparency check (bus_echo), then one untraced and one
traced round of the same length, and reports the per-layer figures.

A timed round during which the host stole more than 4% of the machine's
CPU time (steal time of a virtual machine, from /proc/stat) is run again
while the run's time budget lasts, and the figures come from the
least-stolen rounds; stderr says when some of them were disturbed.  The
end-to-end metrics are the ones steal moves least: CPU time per message
(steal is not charged to the process), bytes committed per message,
delivered fraction and peak memory, plus the set-up time.  Throughput
and latency, which a steal episode can halve, are per-layer figures of
the untraced round.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics, the metrics exactly as listed in
BENCHMARK.json; attempted and failed count the sends of every round
run, re-run ones included.  Build output and progress go to stderr.  A
failed build, round, delivery check or oracle exits non-zero without
printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bus_echo", "flat_wide")
BUILD_TIMEOUT_S = 700
# Wall time one run may spend on rounds, counted from the end of the build.
RUN_BUDGET_S = 45
# Untraced rounds per --trace 0 run; each end-to-end figure is their median.
ROUNDS = 5
# A timed round counts only if the host stole at most this share of the
# machine's CPU time while it ran.
STEAL_LIMIT = 0.04


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("middleware sources (src/) are missing; nothing to build")
        return None
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 2)])
    for step in steps:
        remaining = deadline - time.monotonic()
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(remaining, 1), check=False)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class RoundFailed(Exception):
    pass


def steal_ticks():
    """Host steal time of this (virtual) machine so far, in clock ticks."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except (OSError, ValueError):
        return 0


class Runner:
    """Runs the rounds of one measurement, each in a fresh process.

    Every round's sends count towards attempted and failed, whether its
    figures are kept or not.
    """

    def __init__(self, binary, args, deadline):
        self.binary, self.args, self.deadline = binary, args, deadline
        self.index = 0
        self.longest_s = 0.0
        self.attempted = 0
        self.failed = 0

    def round(self, seconds, *flags):
        """Runs one round and returns its figures."""
        remaining = self.deadline - time.monotonic()
        if remaining < 1.5 * self.longest_s:
            raise RoundFailed(f"the run's {RUN_BUDGET_S}s budget is spent")
        index = self.index
        self.index += 1
        steal_before, started = steal_ticks(), time.monotonic()
        command = [self.binary, "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--seconds", repr(seconds),
                   "--round", str(index),
                   "--out-dir", os.path.join(build_dir(), "perfbench-out"), *flags]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  timeout=max(remaining, 1), check=False, cwd=ROOT,
                                  text=True)
        except subprocess.TimeoutExpired as error:
            raise RoundFailed(f"round {index} timed out") from error
        if done.returncode != 0:
            raise RoundFailed(f"round {index} failed with exit code {done.returncode}")
        try:
            figures = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as error:
            raise RoundFailed(f"round {index} printed no result") from error
        elapsed = time.monotonic() - started
        self.longest_s = max(self.longest_s, elapsed)
        self.attempted += figures["attempted"]
        self.failed += figures["failed"]
        # Share of the machine's CPU time the host took away during the round.
        capacity = elapsed * (os.cpu_count() or 1) * os.sysconf("SC_CLK_TCK")
        figures["steal"] = (steal_ticks() - steal_before) / capacity if capacity > 0 else 0.0
        log(f"round {index}: setup {figures['setup_s']:.3f}s, "
            f"{rate(figures):.0f} msgs/s, p50 {figures['latency_p50_us']:.0f}us, "
            f"p90 {figures['latency_p90_us']:.0f}us, "
            f"cpu {figures['cpu_s'] * 1e6 / max(figures['delivered_window'], 1):.1f}us/msg, "
            f"peak rss {figures['peak_rss_mb']:.1f}MB, host steal {figures['steal']:.1%}")
        return figures

    def least_stolen(self, count, seconds, *flags, until=None):
        """Runs rounds until `count` are quiet or the time up to `until`
        (the run's deadline by default) is spent, and returns the `count`
        least-stolen ones."""
        until = self.deadline if until is None else until
        rounds = []
        while sum(r["steal"] <= STEAL_LIMIT for r in rounds) < count:
            if len(rounds) >= count and until - time.monotonic() < 1.5 * self.longest_s:
                break
            rounds.append(self.round(seconds, *flags))
        kept = sorted(rounds, key=lambda r: r["steal"])[:count]
        disturbed = sum(r["steal"] > STEAL_LIMIT for r in kept)
        if disturbed:
            log(f"WARNING: the time budget ran out with {disturbed} of the {count} kept "
                f"rounds above {STEAL_LIMIT:.0%} host steal; their figures include "
                f"the host's load")
        return kept


def rate(figures):
    window = figures["window_s"]
    return figures["delivered_window"] / window if window > 0 else 0.0


def end_to_end(runner):
    """Median of each end-to-end figure over the ROUNDS least-stolen rounds."""
    rounds = runner.least_stolen(ROUNDS, runner.args.seconds / ROUNDS)
    if any(r["delivered_window"] == 0 or r["delivered_total"] == 0 for r in rounds):
        raise RoundFailed("a round delivered nothing in its timed phase")
    median = statistics.median
    return {
        "cpu_us_per_msg": median(r["cpu_s"] * 1e6 / r["delivered_window"] for r in rounds),
        "commit_bytes_per_msg": median(r["commit_bytes"] / r["delivered_total"]
                                       for r in rounds),
        "delivered_frac": 1.0 - runner.failed / runner.attempted,
        "setup_s": median(r["setup_s"] for r in rounds),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(runner):
    """Transparency check (bus_echo), then an untraced and a traced round."""
    if runner.args.workload == "bus_echo":
        # Untimed: the check compares what was delivered, not how fast.
        plain = runner.round(1.0, "--transparency")
        traced = runner.round(1.0, "--transparency", "--traced")
        for key in ("order_digest", "transport_frames"):
            if plain[key] != traced[key]:
                raise RoundFailed(f"probe transparency: {key} differs with probes on")
        if (plain["commit_bytes"] * traced["delivered_total"]
                != traced["commit_bytes"] * plain["delivered_total"]):
            raise RoundFailed("probe transparency: commit bytes per message differ")
    # Rounds as long as the end-to-end ones: short enough that a round
    # the host disturbed can be run again within the budget.
    seconds = runner.args.seconds / ROUNDS
    # The untraced round may use half of what is left of the budget.
    half = time.monotonic() + (runner.deadline - time.monotonic()) / 2
    (plain,) = runner.least_stolen(1, seconds, until=half)
    (traced,) = runner.least_stolen(1, seconds, "--traced")
    layer = dict(traced["layer"])
    layer["common.heap_allocs_per_msg"] = plain["layer"]["common.heap_allocs_per_msg"]
    layer["trace.overhead_frac"] = (rate(plain) - rate(traced)) / rate(plain) if rate(plain) else 0.0
    layer["workload.failed_frac"] = runner.failed / runner.attempted
    layer["workload.delivered_per_s"] = rate(plain)
    layer["workload.latency_p50_us"] = plain["latency_p50_us"]
    layer["workload.latency_p90_us"] = plain["latency_p90_us"]
    return layer


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 0 < args.seconds <= 60 or args.seed < 0:
        log("--seconds must be in (0, 60] and --seed not negative")
        return 2

    binary = build(build_dir())
    if binary is None:
        return 1
    try:
        e2e_units, layer_units = metric_spec()
    except (OSError, ValueError, KeyError) as error:
        log(f"cannot read the metric lists from BENCHMARK.json: {error}")
        return 1

    # The run keeps to the per-run limit, counted from the end of the build.
    runner = Runner(binary, args, time.monotonic() + RUN_BUDGET_S)
    try:
        if args.trace == "0":
            values, units = end_to_end(runner), e2e_units
        else:
            values, units = per_layer(runner), layer_units
    except RoundFailed as error:
        log(f"FAIL workload={args.workload} seed={args.seed}: {error}")
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        log(f"no figures for {missing}")
        return 1
    result = {
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    log(f"done in {time.monotonic() - start:.1f}s")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
