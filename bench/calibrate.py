"""Machine-speed calibration: a fixed kernel timed between the program's ops.

The benchmark's host is shared, and its speed drifts by up to about 2x in
phases of seconds to minutes, with CPU time equal to wall time, so neither
longer runs nor CPU-time clocks remove the drift.  The kernels below are
owned by the benchmark and never change with the program.  One runs right
before and right after every op for a fixed share of that op's time, and
the op's time is scaled by the kernel's nominal pass time over the mean
time of those passes.
A calibrated time is what the op would take with the host at the speed where
one kernel pass takes its nominal time: it moves one for one with the
program's own speed, and the host's drift largely cancels out of it.  The
raw times are printed beside it.

Two kernels, because the drift does not slow all work alike: ``PYTHON``
(scalar Python calls into ``math``, like the package's root brackets,
bisections and quadrature integrands) tracks the in-process workloads, and
``START`` (a fresh ``python -I -c pass``) tracks the work of starting an
interpreter and importing modules, which is what a cold CLI call and the
set-up mostly are.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass

#: Scalar Python calls into ``math`` per pass of the ``PYTHON`` kernel.
CALLS = 4000
#: Kernel time run around each op, as a share of that op's time: half right
#: before it (sized by the op before) and half right after.  The host's speed
#: changes within a second, so each op is scaled by its own passes rather
#: than by an average over a longer window.
SHARE = 0.5


def _term(k: float, kmax: float) -> float:
    kappa = math.sqrt(max(kmax * kmax - k * k, 0.0))
    return k * math.sin(k) - kappa * math.cos(k)


def _python_pass() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(CALLS):
        total += _term(i * 1e-3, 5.0)
    return time.perf_counter() - t0


def _start_pass() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Kernel:
    name: str
    one_pass: object  # () -> seconds
    #: Pass time that defines the reference speed.
    nominal_s: float

    def run_for(self, seconds: float) -> tuple[float, int]:
        """Passes until their time reaches ``seconds`` (at least one pass)."""
        spent, passes = 0.0, 0
        while passes == 0 or spent < seconds:
            spent += self.one_pass()
            passes += 1
        return spent, passes

    def scale(self, spent: float, passes: int) -> float:
        """Factor that turns a raw time near these passes into a calibrated one."""
        return self.nominal_s * passes / spent if passes else 1.0


PYTHON = Kernel("python", _python_pass, 2e-3)
START = Kernel("start", _start_pass, 40e-3)
