"""How fast the host runs right now, from a fixed probe kernel.

On a shared 2-vCPU Intel Xeon virtual machine, speed drifted by up to about
1.9x over seconds to minutes with nothing else running in the machine: the
process stays on the CPU, but every instruction takes longer.  A fixed
kernel that does not depend on nullflow, timed while the program runs,
measures that drift, and a time scaled by REFERENCE_S / (probe time) reads
in reference-host seconds, so both sets of runs of the same code agree even
when the host's speed differs.

The kernel mixes the kinds of work the workloads do: dict and tuple work on
small ints (the symbolic layers), Fraction arithmetic (exact coefficients)
and short numpy array expressions on 512 points (the grid solver).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# About the mean probe time on that Intel Xeon virtual machine at its usual
# speed; it only fixes the unit of the scaled times.
REFERENCE_S = 2.5e-3
# Probe every TICK_S seconds while a measured pass runs (about 3 % of the time).
TICK_S = 0.1

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
_X = np.linspace(0.0, 1.0, 512)


def _kernel() -> None:
    table: dict = {}
    for i in range(600):
        key = (i & 31, i >> 5)
        table[key] = table.get(key, 0) + i * i
    product: dict = {}
    for (a, b), x in _TERMS.items():
        for (c, d), y in _TERMS.items():
            key = (a + c, b + d)
            product[key] = product.get(key, 0) + x * y
    y = _X
    for _ in range(25):
        y = 0.5 * (np.roll(y, 1) - 2.0 * y + np.roll(y, -1)) + _X


def probe() -> float:
    """Seconds one run of the kernel takes, with the garbage collector held off.

    Holding the collector off keeps the probe's cost independent of the size
    of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def mean_probe(probes: list) -> float:
    """The host's speed over an interval, from the probes taken during it.

    A time measured over the interval adds up the host's slowness at every
    moment, so its scale is the mean probe time; the median misses short
    slow spells and made passes spread two to three times as much.  Each
    probe is capped at three times the median first, so one probe that the
    scheduler interrupted cannot move the mean far.
    """
    cap = 3.0 * statistics.median(probes)
    return statistics.mean(min(p, cap) for p in probes)


class Sampler:
    """Runs the probe every TICK_S seconds from SIGALRM while started.

    `probes` holds every probe time in order; `spent` is the total time the
    probes took, which the caller subtracts from the operations it timed.
    A traced pass passes the probe wrapped as a span of its own.
    """

    def __init__(self, probe_fn=probe):
        self.probe_fn = probe_fn
        self.probes: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.probes.append(self.probe_fn())
        self.spent += time.perf_counter() - started

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
