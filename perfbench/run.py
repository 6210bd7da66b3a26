#!/usr/bin/env python3
"""End-to-end benchmark of the Orthrus simulator.

Runs one workload (a `.orth` spec in `perfbench/workloads/`) and prints, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (host wall and set-up
time scaled to a reference host's speed, peak RSS, simulated latency and
throughput, replica agreement). With `--trace 1` they are the per-layer
ones, taken from a replay of the same scenario whose actors are wrapped in
timing actors.

Every measurement runs in a fresh process of the `orthrus-perfbench` worker
(built from `perfbench/Cargo.toml`), one scenario at a time. See
`perfbench/README.md` for the metric table and how to check a claim.

    python3 perfbench/run.py --workload wan_mixed --seed 42 --seconds 30 --trace 0
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
WORKLOADS = ("wan_mixed", "lan_payments_hot", "lan_contracts_recover")
# Fewest timed runs per invocation, however short `--seconds` is.
MIN_RUNS = 3
# Seconds one pass of the worker's calibration kernel takes on the reference
# host (a 2-core 2.1 GHz Xeon VM, quiet). End-to-end wall metrics are scaled
# to that host's speed; see `scaled_runs`.
CAL_REFERENCE_S = 0.3
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
# Keys whose values are host measurements; every other key a worker prints
# is simulated and must repeat exactly.
HOST_KEYS = {"wall_s", "vm_hwm_kb", "spans"}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cores():
    return len(os.sched_getaffinity(0))


def build():
    """Build the worker from source; returns the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        die(f"no Orthrus sources under {ROOT}/crates: run from a checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        die(f"build failed: {err}")
    if done.returncode != 0:
        die(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "orthrus-perfbench")


class Worker:
    def __init__(self, binary, spec, seed):
        self.binary = binary
        self.spec = spec
        self.seed = seed
        # One scenario at a time, with the sweep pool's width pinned to the
        # core count, so no run depends on an unset environment variable.
        self.env = dict(os.environ, ORTHRUS_SWEEP_THREADS=str(cores()))

    def __call__(self, mode, *extra):
        return self.spawn(mode, [self.binary, mode, self.spec, str(self.seed), *map(str, extra)])

    def calibrate(self):
        return self.spawn("calibrate", [self.binary, "calibrate"])["cal_s"]

    def spawn(self, mode, command):
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  env=self.env, timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            die(f"{mode} failed: {err}")
        if done.returncode != 0:
            die(f"{mode} failed with exit code {done.returncode}: {done.stderr.strip()}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def simulated(result):
    return {k: v for k, v in result.items() if k not in HOST_KEYS}


class Gate:
    """Collects every failed check; the run is correct only if none failed."""

    def __init__(self):
        self.problems = []

    def same(self, what, left, right):
        """`right` must agree with `left` on every simulated key they share."""
        left, right = simulated(left), simulated(right)
        for key in sorted(left.keys() & right.keys()):
            if left[key] != right[key]:
                self.problems.append(f"{what}: {key} differs ({left[key]} vs {right[key]})")

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def timed_loop(seconds, body):
    """Call `body` until `seconds` have passed and at least MIN_RUNS times."""
    start = time.monotonic()
    count = 0
    while count < MIN_RUNS or time.monotonic() - start < seconds:
        body()
        count += 1


def scaled_runs(worker, seconds):
    """Time `setup` and then `run` until `seconds` have passed, with the
    calibration kernel timed before the first pair and after every pair.

    The host's speed drifts by tens of percent over seconds to minutes, and
    the kernel slows with it. Each pair's times are multiplied by
    CAL_REFERENCE_S over the mean of the two kernel times around it, which
    gives the times they would have taken on the reference host. The kernel
    uses no code of the repository, so a change to the program moves a
    scaled time by the same share as the raw one. Returns the runs, their
    scaled wall times, every scaled set-up time and the kernel times.
    """
    setups, runs, cal = [], [], [worker.calibrate()]

    def body():
        setups.append(worker("setup"))
        runs.append(worker("run"))
        cal.append(worker.calibrate())

    timed_loop(seconds, body)
    scales = [2 * CAL_REFERENCE_S / (before + after) for before, after in zip(cal, cal[1:])]
    walls = [run["wall_s"] * scale for run, scale in zip(runs, scales)]
    setup_s = [t * scale for setup, scale in zip(setups, scales) for t in setup["setup_s"]]
    return runs, walls, setup_s, cal


def end_to_end(worker, seconds, gate):
    runs, walls, setup_s, cal = scaled_runs(worker, seconds)
    replay = worker("replay", 0)

    first = runs[0]
    for i, run in enumerate(runs[1:], 2):
        gate.same(f"run 1 vs run {i} (same seed)", first, run)
    gate.same("run_scenario vs replay", first, replay)

    submitted = first["submitted"]
    never_confirmed = submitted - first["confirmed"]
    failed_tx = never_confirmed + replay["divergent_tx"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "confirmed_tx_per_s": (
            statistics.median(r["confirmed"] / wall for r, wall in zip(runs, walls)), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(r["vm_hwm_kb"] for r in runs) / 1024, "MB"),
        "sim_latency_p50_ms": (replay["p50_us"] / 1e3, "ms"),
        "sim_latency_p99_ms": (first["p99_us"] / 1e3, "ms"),
        "sim_throughput_ktps": (first["throughput_ktps"], "ktps"),
        "agreed_tx_frac": (1 - failed_tx / submitted, "fraction"),
        "replica_digest_groups": (replay["digest_groups"], "count"),
    }
    raw = [run["wall_s"] for run in runs]
    print(f"wall_s: median of {len(runs)} run_scenario calls scaled to the reference host, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s; unscaled median "
          f"{statistics.median(raw):.4f} s (min {min(raw):.4f}, max {max(raw):.4f}); "
          f"calibration kernel median {statistics.median(cal):.4f} s "
          f"(reference {CAL_REFERENCE_S} s) over {len(cal)} passes")
    print(f"set-up: median of {len(setup_s)} repetitions over {len(runs)} setup calls")
    print(f"latency samples: {replay['latency_samples']} confirmed transactions")
    print(f"failed_tx_frac: {failed_tx / submitted:.6f} "
          f"({never_confirmed} never confirmed, {replay['divergent_tx']} divergent "
          f"of {submitted}); {replay['digest_groups']} distinct replica digests")
    return metrics, len(runs) * submitted, len(runs) * never_confirmed


def per_layer(worker, seconds, gate):
    setups, runs, traced = [], [], []

    def pair():
        setups.append(worker("setup"))
        runs.append(worker("run"))
        traced.append(worker("replay", 1))

    timed_loop(seconds, pair)
    plain = worker("replay", 0)

    first = runs[0]
    for i, run in enumerate(runs[1:], 2):
        gate.same(f"run 1 vs run {i} (same seed)", first, run)
    for i, replay in enumerate(traced, 1):
        gate.same(f"run_scenario vs traced replay {i}", first, replay)
        gate.same(f"untraced vs traced replay {i}", plain, replay)
    for i, replay in enumerate(traced, 1):
        spans = replay["spans"]
        engine = spans["sim.run_until"]
        handlers = sum(total for name, (_, total, _) in spans.items() if name != "sim.run_until")
        gate.check(engine[2] == handlers,
                   f"traced replay {i}: handler time {handlers} ns != child time {engine[2]} ns")

    def setup_median(name):
        return statistics.median(t for setup in setups for t in setup[name])

    def span_median(name, index):
        return statistics.median(r["spans"].get(name, [0, 0, 0])[index] for r in traced)

    def ms(name):
        return span_median(name, 1) / 1e6

    def calls(name):
        return span_median(name, 0)

    def per_call(name, count):
        return span_median(name, 1) / count if count else 0.0

    submitted = first["submitted"]
    events = first["events"]
    executed = plain["committed"] + plain["aborted"]
    never_confirmed = submitted - first["confirmed"]
    failed_tx = never_confirmed + plain["divergent_tx"]
    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    engine_self_ns = statistics.median(
        r["spans"]["sim.run_until"][1] - r["spans"]["sim.run_until"][2] for r in traced)
    deliver_execs = statistics.median(r["deliver_execs"] for r in traced)
    metrics = {
        "lab.lower_ms": (setup_median("lab.lower_ms"), "ms"),
        "workload.generate_ms": (setup_median("workload.generate_ms"), "ms"),
        "core.build_ms": (setup_median("core.build_ms"), "ms"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (events / untraced_wall, "1/s"),
        "sim.engine_self_ms": (engine_self_ns / 1e6, "ms"),
        "sim.engine_ns_per_event": (engine_self_ns / events, "ns"),
        "sim.peak_queue_len": (first["peak_queue_len"], "count"),
        "sim.msgs_per_tx": (first["messages_sent"] / submitted, "count"),
        "sim.bytes_per_tx": (first["bytes_sent"] / submitted, "B"),
        "sb.vote_calls": (calls("sb.vote"), "count"),
        "sb.vote_ms": (ms("sb.vote"), "ms"),
        "sb.vote_ns_per_call": (per_call("sb.vote", calls("sb.vote")), "ns"),
        "sb.view_changes": (first["view_changes"], "count"),
        "core.recovery_calls": (calls("core.recovery"), "count"),
        "core.recovery_ms": (ms("core.recovery"), "ms"),
        "core.recovered_at_ms": (plain["recovered_at_us"] / 1e3, "ms"),
        "core.deliver_calls": (calls("core.deliver"), "count"),
        "core.deliver_ms": (ms("core.deliver"), "ms"),
        "core.deliver_ns_per_exec": (per_call("core.deliver", deliver_execs), "ns"),
        "core.client_request_calls": (calls("core.client_request"), "count"),
        "core.client_request_ns_per_call": (
            per_call("core.client_request", calls("core.client_request")), "ns"),
        "core.timer_calls": (calls("core.timer"), "count"),
        "core.timer_ms": (ms("core.timer"), "ms"),
        "client.reply_ms": (ms("client.reply"), "ms"),
        "client.submit_ms": (ms("client.submit"), "ms"),
        "ordering.glog_blocks": (plain["glog_blocks"], "count"),
        "ordering.peak_retained_entries": (first["peak_retained_entries"], "count"),
        "execution.executed": (executed, "count"),
        "execution.abort_ratio": (plain["aborted"] / executed if executed else 0.0, "fraction"),
        "execution.divergent_tx": (plain["divergent_tx"], "count"),
        "failed_tx_frac": (failed_tx / submitted, "fraction"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1, "fraction"),
    }
    print(f"traced replays: {len(traced)}, untraced run_scenario calls: {len(runs)}")
    print(f"engine self time = sim.run_until total - handler time inside it; "
          f"traced wall {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s")
    return metrics, len(runs) * submitted, len(runs) * never_confirmed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = os.path.join(HERE, "workloads", f"{args.workload}.orth")
    if not os.path.isfile(spec):
        die(f"missing workload spec {spec}")
    binary = build()
    worker = Worker(binary, spec, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, available_cores {cores()}, "
          f"ORTHRUS_SWEEP_THREADS {worker.env['ORTHRUS_SWEEP_THREADS']}")

    gate = Gate()
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(worker, args.seconds, gate)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:>16.6f} {unit}")
    for problem in gate.problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not gate.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if gate.problems else 0


if __name__ == "__main__":
    sys.exit(main())
