"""The four workloads: the lcqnn invocations each one times, how their
reports are checked, and the checks made outside the timed region.

An operation is one report-producing CLI invocation.  ``units`` is the work
it completes (Monte-Carlo samples, training examples or gradient probes),
from which the throughput is computed; an invocation expected to fail does
no counted work.  A workload gives the invocations of round ``r`` with
``ops(seed, r)``, checks each report with ``check(op, stdout)``, and makes
its run-wide checks with ``verify(reports, seed, runner)`` on every
successful ``(op, stdout)`` of the run.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

import checks
from checks import reject, require


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    units: int


def _corrupt_last_digit(text: str) -> str:
    """The report with the final digit of its last data row changed."""
    lines = text.rstrip("\n").split("\n")
    last = lines[-1]
    digit = str((int(last[-1]) + 1) % 10)
    return "\n".join(lines[:-1] + [last[:-1] + digit]) + "\n"


def _shift_mean(rows, index: int, sigmas: float) -> list[dict]:
    rows = [dict(r) for r in rows]
    rows[index]["mean"] += sigmas * rows[index]["stderr"]
    return rows


class Workload:
    """Common defaults: no inputs to prepare."""

    #: qubits of the largest register the workload simulates, for
    #: ``sim.apply_gate_us``
    gate_qubits: int

    def prepare(self, tmp: str, seed: int) -> None:
        pass


class VarianceScan(Workload):
    """``lcqnn variance-scan`` at its defaults, single-threaded, with fewer
    samples per point so that a run holds several invocations."""

    name = "variance_scan"
    samples = 192
    rows = 8  # k in {3, 5} x n in {3, 4, 6, 8}
    #: largest register the workload simulates: n = 8 working qubits
    gate_qubits = 8

    def ops(self, seed: int, round_index: int) -> list[Op]:
        return [Op(("variance-scan", "--samples", str(self.samples), "--threads", "1",
                    "--seed", str(seed)), self.rows * self.samples)]

    def check(self, op: Op, stdout: str) -> None:
        rows = checks.parse_rows(stdout)
        require(len(rows) == self.rows, f"expected {self.rows} rows, got {len(rows)}")
        checks.check_unbiased(rows)
        checks.check_light_cone(rows)

    def verify(self, reports, seed: int, runner) -> None:
        rows = checks.parse_rows(reports[0][1])
        row = next(r for r in rows if (r["k"], r["n"]) == (3, 3))
        oracle = checks.oracle_probe_stats(row, seed)
        checks.check_against_oracle(row, oracle)
        scaled = dict(row, variance=1.25 * row["variance"])
        reject(lambda r: checks.check_against_oracle(r, oracle), scaled,
               "a variance scaled by 1.25")
        reject(checks.check_unbiased, _shift_mean(rows, 0, 10.0),
               "a mean shifted by 10 stderr")


HAAR_SPECTRA = ("16:1,16:1", "32:1,32:1", "16:1,16:1,16:1,16:1")


def _group_scan(seed: int, samples: int, threads: int) -> tuple[str, ...]:
    argv = ["group-scan", "--mode", "haar"]
    for dims in HAAR_SPECTRA:
        argv += ["--dims", dims]
    return tuple(argv + ["--samples", str(samples), "--threads", str(threads),
                         "--seed", str(seed)])


class GroupHaar(Workload):
    """``lcqnn group-scan --mode haar`` on three spectra, plus the
    dimension-1 spectrum that crashes ``reporting.group_summary``.

    The timed scans run at ``--threads 1``: at ``--threads 2`` their rate
    spread over 13 % between runs on a 2-CPU machine (README).

    Round ``r`` scans with seed ``1000 * seed + r``, so the rounds draw
    disjoint samples; the closed-form and zero-mean checks are made on the
    rows pooled over every round of the run.
    """

    name = "group_haar"
    samples = 1000
    threads = 1
    #: samples of the unthreaded/threaded comparison outside the timed region
    compare_samples = 256
    #: the gate kernel is idle here; the figure is taken on the 32-dimensional
    #: block's 5 qubits as a control
    gate_qubits = 5

    def ops(self, seed: int, round_index: int) -> list[Op]:
        return [
            Op(_group_scan(1000 * seed + round_index, self.samples, self.threads),
               len(HAAR_SPECTRA) * self.samples),
            # fails today with ZeroDivisionError (a zero-variance ratio)
            Op(("group-scan", "--dims", "1:1,1:1", "--dims", "2:1,2:1",
                "--samples", "64", "--seed", "0"), 0),
        ]

    def check(self, op: Op, stdout: str) -> None:
        rows = checks.parse_rows(stdout)
        if op.units:
            require(len(rows) == 2 * len(HAAR_SPECTRA),
                    f"expected {2 * len(HAAR_SPECTRA)} rows, got {len(rows)}")

    def verify(self, reports, seed: int, runner) -> None:
        scans = {op.argv: stdout for op, stdout in reports if op.units}
        rows = checks.pool_rows([checks.parse_rows(text) for text in scans.values()])
        checks.check_unbiased(rows)
        checks.check_closed_forms(rows)
        compared = []
        for threads in (1, 2):
            result = runner.run(_group_scan(seed, self.compare_samples, threads))
            require(result.code == 0, f"group-scan --threads {threads} failed")
            compared.append(result.stdout)
        checks.check_same_rows(compared)
        reject(checks.check_same_rows, (compared[0], _corrupt_last_digit(compared[1])),
               "a --threads 2 row that differs in its last digit")
        reject(checks.check_closed_forms,
               [dict(r, variance=1.25 * r["variance"]) for r in rows],
               "variances scaled by 1.25")
        reject(checks.check_unbiased, _shift_mean(rows, 0, 10.0),
               "a mean shifted by 10 stderr")


#: 7x7 pooling block (row, col) lit for each class 0-3
CLASS_BLOCKS = ((0, 0), (0, 3), (3, 0), (3, 3))


def _idx_images(images: np.ndarray) -> bytes:
    count, rows, cols = images.shape
    return struct.pack(">IIII", 0x803, count, rows, cols) + images.astype(np.uint8).tobytes()


def _idx_labels(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x801, labels.size) + labels.astype(np.uint8).tobytes()


def write_synthetic_mnist(directory: str, seed: int, train_per_class: int,
                          test_per_class: int) -> None:
    """Four-class IDX files: noise in [0, 48) plus one bright block per class
    with pixels in [200, 256), labels shuffled."""
    rng = np.random.default_rng(seed)
    os.makedirs(directory)
    for stem, per_class in (("train", train_per_class), ("t10k", test_per_class)):
        labels = rng.permutation(np.repeat(np.arange(4), per_class))
        images = rng.integers(0, 48, size=(labels.size, 28, 28))
        for image, label in zip(images, labels):
            r, c = CLASS_BLOCKS[label]
            image[7 * r : 7 * r + 7, 7 * c : 7 * c + 7] = rng.integers(200, 256, (7, 7))
        with open(os.path.join(directory, f"{stem}-images-idx3-ubyte"), "wb") as f:
            f.write(_idx_images(images))
        with open(os.path.join(directory, f"{stem}-labels-idx1-ubyte"), "wb") as f:
            f.write(_idx_labels(labels))


class MnistTrain(Workload):
    """``lcqnn mnist`` on synthetic IDX files: L in {1,4} x D in {1,8}."""

    name = "mnist_train"
    cells = 4
    train = 64
    test = 32
    #: the classifier's 16-amplitude working register
    gate_qubits = 4

    def prepare(self, tmp: str, seed: int) -> None:
        self.data_dir = os.path.join(tmp, "mnist")
        write_synthetic_mnist(self.data_dir, seed, self.train // 4 + 10, self.test // 4 + 5)

    def ops(self, seed: int, round_index: int) -> list[Op]:
        return [Op(("mnist", "--data-dir", self.data_dir, "--L-list", "1,4",
                    "--D-list", "1,8", "--runs", "1", "--epochs", "1",
                    "--train-limit", str(self.train), "--test-limit", str(self.test),
                    "--seed", str(seed)), self.cells * self.train)]

    def check(self, op: Op, stdout: str) -> None:
        rows = checks.parse_rows(stdout)
        require(len(rows) == self.cells, f"expected {self.cells} rows, got {len(rows)}")
        checks.check_training_rows(rows, self.test)

    def verify(self, reports, seed: int, runner) -> None:
        cases = checks.mnist_gradient_cases(seed)
        checks.check_example_gradients(cases)
        *case, grad, oracle = cases[0]
        flipped = grad.copy()
        largest = int(np.argmax(np.abs(grad)))
        flipped[largest] = -flipped[largest]
        reject(checks.check_example_gradients, [(*case, flipped, oracle)],
               "a gradient component with a flipped sign")


class GradCheck(Workload):
    """``lcqnn grad-check`` at the fixed seed 42."""

    name = "grad_check"
    probes = 400
    #: largest full register grad-check draws: m <= 3 control + n <= 6 working
    gate_qubits = 9

    def ops(self, seed: int, round_index: int) -> list[Op]:
        return [Op(("grad-check", "--probes", str(self.probes), "--seed", "42"),
                   self.probes)]

    def check(self, op: Op, stdout: str) -> None:
        checks.check_grad_report(stdout, self.probes)

    def verify(self, reports, seed: int, runner) -> None:
        failed = reports[0][1].replace(f"{self.probes}/{self.probes} probes within",
                                f"1/{self.probes} probes exceeded", 1)
        reject(lambda text: checks.check_grad_report(text, self.probes), failed,
               "a report with a failed probe")


WORKLOADS = {w.name: w for w in (VarianceScan(), GroupHaar(), MnistTrain(), GradCheck())}
