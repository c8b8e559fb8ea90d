"""Machine-speed calibration for the end-to-end time.

On a shared host the speed of one core drifts by 20-40 % over tens of
seconds (other tenants on the same hardware).  Run-to-run medians of raw
wall time then spread more than any useful regression bound.  A fixed
kernel that does not touch ldgrd (interpreter loop, small numpy calls and a
small sparse LU, the three kinds of work the workloads do) is timed in a
short burst before and after every execution; an execution's time divided
by the mean of its two bursts, times ``NOMINAL_S``, is its time at nominal
machine speed.  The raw wall times are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

BURST_S = 0.4
# Mean kernel time on the host the benchmark was defined on (Intel Xeon,
# 2 vCPUs, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31, one thread).
NOMINAL_S = 4.5e-3


def _matrix(n: int = 24):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.eye(n)
    return (sp.kron(t, eye) + sp.kron(eye, t) + 0.1 * sp.eye(n * n)).tocsc()


_A = None


def kernel() -> None:
    global _A
    if _A is None:
        _A = _matrix()
    s = 0
    for i in range(20000):
        s += i * i % 7
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0) - 0.5
    spla.splu(_A)


def burst(seconds: float = BURST_S) -> float:
    """Mean seconds per kernel call over a burst of the given length."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)
