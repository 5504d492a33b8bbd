"""Machine-speed calibration for the reported times and rates.

The shared 2-core host this benchmark was built on changes speed by up to 2x
within seconds (other tenants' load on the same cores), which moved raw
throughput of one workload by 30% between 10-second runs. So a worker samples
the machine's speed while it measures: every ``INTERVAL_S`` of wall time
(``SETUP_INTERVAL_S`` during set-up) a SIGALRM handler times a fixed
pure-Python kernel that does not touch qtriad.
The kernel's time is taken out of the measured time, and the rest is reported
in calibrated seconds:

    calibrated = (raw - kernel time spent) * NOMINAL_S / mean kernel time

i.e. the time the work would take on a machine that runs the kernel in
``NOMINAL_S`` (about what a quiet core of the reference machine takes). The
raw times stay in the accounting block. Both sides of a comparison run the
same kernel, so the constant cancels in any ratio between commits.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

NOMINAL_S = 0.0012
INTERVAL_S = 0.025
# Set-up lasts about 0.2 s, too short for a steady mean at INTERVAL_S.
SETUP_INTERVAL_S = 0.005
_KERNEL_N = 120


def _kernel() -> list:
    # Interpreter work of the kind qtriad does per state: complex and libm
    # arithmetic, small tuples and dicts, %.17g formatting.
    rows = []
    for i in range(_KERNEL_N):
        z = complex(math.cos(0.01 * i), math.sin(0.02 * i)) * complex(0.6, -0.8)
        w = math.hypot(z.real, z.imag, 0.5, 0.25)
        s = (z.real * z.real + z.imag * z.imag) / (w * w)
        f = math.sqrt(-2.0 * math.log(s) / s) if 0.0 < s < 1.0 else s
        cells = (z.real * f, z.imag * f, abs(z.conjugate() * z), w)
        rows.append(",".join("%.17g" % c for c in cells) + ";" + str({"f": f, "i": i}))
    return rows


def kernel_seconds(repeats: int = 1) -> float:
    """Mean wall time of the kernel; the cyclic collector is off meanwhile,
    so objects the measured work left alive do not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(repeats):
            _kernel()
        return (time.perf_counter() - t0) / repeats
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel every ``interval`` seconds of wall time while active.

    ``spent`` is the kernel time inside the window; ``samples`` always holds
    at least one kernel time (taken after the window if none fell inside).
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(kernel_seconds())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent = sum(self.samples)
        if not self.samples:
            self.samples.append(kernel_seconds())


def calibrated(raw_s: float, spent: float, samples: list[float]) -> float:
    """A sampled window's raw wall time in calibrated seconds."""
    return (raw_s - spent) * NOMINAL_S / statistics.fmean(samples)


def speed_factor(kernel_s: float) -> float:
    """How much slower than nominal the machine ran (> 1 when slower)."""
    return kernel_s / NOMINAL_S
