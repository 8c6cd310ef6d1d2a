"""Fixed reference work that gauges the machine's current speed.

    python3 perfbench/calibrate.py

Prints the seconds one pass of the reference work took.  The work mirrors the
program's cost mix without using it: small-tensor ``tensordot``/``moveaxis``
dispatch with Python arithmetic between calls, and 16x16 complex QR.  It never
changes, so its time moves only with the machine.
"""

import math
import time

import numpy as np

#: seconds one pass takes on the reference machine (README, "Calibration")
REFERENCE_S = 0.65


def reference_work() -> float:
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((2,) * 6) + 0j
    gate = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    acc = 0.0
    for i in range(20000):
        axis = i % 6
        psi = np.moveaxis(np.tensordot(gate, psi, axes=((1,), (axis,))), 0, axis)
        acc += math.cos(i * 1e-3)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    for _ in range(2000):
        acc += abs(np.linalg.qr(z)[1][0, 0])
    return acc


if __name__ == "__main__":
    start = time.perf_counter()
    reference_work()
    print(time.perf_counter() - start)
