"""Benchmark of the lcqnn CLI: one workload per run, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is a fresh
``python3 perfbench/op.py`` process running one ``lcqnn`` invocation with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``.  Whole rounds of the
workload's invocations repeat until S seconds have passed, each round
followed by a calibration pass that gauges the machine's speed; every report
is checked.  With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics of traced rounds.  The last line of
stdout is the result object; the line before it records the workload, the
seed, the unscaled figures and the environment.  See README.md in this
directory.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before NumPy is imported, here and in children

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from calibrate import REFERENCE_S  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up-only invocations per run, after one uncounted warm-up
SETUP_PROBES = 4
#: a single invocation may not run longer than this (they take seconds)
OP_TIMEOUT_S = 60


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class OpResult:
    code: int
    stdout: str
    wall: float
    setup: float
    maxrss_kb: int
    trace: dict | None


class Runner:
    """Starts one op.py process per invocation and waits for it."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self._ids = itertools.count()

    def run(self, argv, flag: str | None = None) -> OpResult:
        report = os.path.join(self.tmp, f"op{next(self._ids)}.json")
        cmd = [sys.executable, os.path.join(HERE, "op.py"), report]
        cmd += ([flag] if flag else []) + ["--", *argv]
        start = now()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        wall = now() - start
        with open(report) as handle:
            info = json.load(handle)
        os.remove(report)
        return OpResult(proc.returncode, proc.stdout, wall,
                        info["setup_end"] - start, info["maxrss_kb"], info.get("trace"))

    def calibrate(self) -> float:
        """Seconds the fixed reference work takes right now."""
        proc = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")],
                              cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=OP_TIMEOUT_S)
        return float(proc.stdout)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def run_round(runner, ops, flag=None) -> list:
    """One round: each operation run once, in order, as (op, result) pairs."""
    return [(op, runner.run(op.argv, flag)) for op in ops]


def check_rounds(workload, rounds, seed, runner) -> tuple[int, int, bool]:
    """Check every report; returns (attempted, failed, correct).

    Reports of invocations that failed are not checked.  A repeated
    invocation must print exactly what its first run printed.
    """
    pairs = [pair for round_ in rounds for pair in round_]
    failed = sum(result.code != 0 for _, result in pairs)
    first = {}
    try:
        for op, result in pairs:
            if result.code != 0:
                continue
            if op.argv not in first:
                workload.check(op, result.stdout)
                first[op.argv] = result.stdout
            elif result.stdout != first[op.argv]:
                raise CheckError(f"a rerun of {' '.join(op.argv)} changed its report")
        workload.verify([(op, r.stdout) for op, r in pairs if r.code == 0], seed, runner)
    except CheckError as exc:
        print(f"run.py: check failed: {exc}", file=sys.stderr)
        return len(pairs), failed, False
    return len(pairs), failed, True


def apply_gate_us(qubits: int) -> float:
    """Median cost of one public ``apply_gate`` U3 call on ``qubits`` qubits."""
    import numpy as np
    from lcqnn.sim import StateVector, apply_gate, u3

    rng = np.random.default_rng(0)
    amps = rng.standard_normal(1 << qubits) + 1j * rng.standard_normal(1 << qubits)
    state = StateVector(qubits, amps / np.linalg.norm(amps))
    gate, params = u3(qubits // 2, 0, 1, 2), (0.3, 0.7, 1.1)
    batch = 200
    timings = []
    for _ in range(25):
        start = time.perf_counter()
        for _ in range(batch):
            apply_gate(state, gate, params)
        timings.append((time.perf_counter() - start) / batch)
    return 1e6 * statistics.median(timings)


def wall(round_) -> float:
    return sum(result.wall for _, result in round_)


def end_to_end(workload, runner, seconds, seed):
    """Whole rounds until ``seconds`` have passed, after the set-up probes.

    A calibration pass runs before the first round and after each round.
    A round's times are scaled by ``REFERENCE_S`` over the mean of the two
    calibrations around it, to the reference machine speed; this cancels
    most of the drift in this machine's speed between runs.  Returns the
    counts, the metrics and the unscaled figures.
    """
    first = workload.ops(seed, 0)[0].argv
    runner.run(first, "--setup-only")  # warm-up: byte-code and file caches
    setups = [runner.run(first, "--setup-only").setup for _ in range(SETUP_PROBES)]
    rounds, calibrations = [], [runner.calibrate()]
    start = now()
    while not rounds or now() - start < seconds:
        rounds.append(run_round(runner, workload.ops(seed, len(rounds))))
        calibrations.append(runner.calibrate())
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]
    counts = check_rounds(workload, rounds, seed, runner)
    pairs = [pair for round_ in rounds for pair in round_]
    rates = [(op.units / (r.wall - r.setup), scale)
             for round_, scale in zip(rounds, scales)
             for op, r in round_ if r.code == 0 and op.units]
    metrics = {
        "wall_s": statistics.median(wall(round_) * k for round_, k in zip(rounds, scales)),
        "setup_s": statistics.median(setups + [r.setup for _, r in pairs]),
        "peak_rss_mb": max(r.maxrss_kb for _, r in pairs) / 1024.0,
        "throughput_per_s": statistics.median(rate / k for rate, k in rates),
    }
    unscaled = {
        "wall_s": statistics.median(wall(round_) for round_ in rounds),
        "throughput_per_s": statistics.median(rate for rate, _ in rates),
        "calibration_s": statistics.median(calibrations),
        "rounds": len(rounds),
    }
    return counts, metrics, unscaled


def per_layer(workload, runner, seconds, seed):
    """Pairs of an untraced and a traced round until ``seconds`` have passed;
    the overhead is the median of the pairs' wall-time differences."""
    from spans import layer_metrics, summarize

    runner.run(workload.ops(seed, 0)[0].argv, "--setup-only")  # warm-up
    untraced, traced = [], []
    start = now()
    while not traced or now() - start < seconds:
        ops = workload.ops(seed, len(traced))
        untraced.append(run_round(runner, ops))
        traced.append(run_round(runner, ops, "--trace"))
    counts = check_rounds(workload, untraced + traced, seed, runner)
    per_round = [layer_metrics([summarize(r.trace) for _, r in round_]) for round_ in traced]
    metrics = {key: statistics.fmean(m[key] for m in per_round) for key in per_round[0]}
    metrics["sim.apply_gate_us"] = apply_gate_us(workload.gate_qubits)
    metrics["cli.trace_overhead_s"] = statistics.median(
        wall(t) - wall(u) for u, t in zip(untraced, traced)
    )
    return counts, metrics, {"rounds": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/lcqnn/cli.py", "tests/oracles.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing; run from a source checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(tmp)
        workload.prepare(tmp, args.seed)
        measure = per_layer if args.trace else end_to_end
        (attempted, failed, correct), metrics, details = measure(
            workload, runner, args.seconds, args.seed)
    if set(metrics) != set(units):
        raise SystemExit(f"run.py: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "details": details, "environment": environment()}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
