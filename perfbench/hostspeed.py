"""Host speed probes, and the scaling of measured times to reference speed.

On a shared host the CPU time available to this process changes from second
to second while other tenants contend for the core.  A fixed probe loop
slows down whenever the solver does, so timing it before, during and after
a measured interval gives the mean host speed over the interval.  A
measured time multiplied by `HostSampler.scale` reads as seconds on the
reference host while it was quiet.

The run probe mixes a pure-Python loop with small-array numpy calls, as the
solver does: timed against whittaker_slide runs on a contended host, the
solver's time grew as the 1.4th power of the pure-Python loop's, the 0.9th
power of the numpy loop's, and about the first power (1.08) of the mix.
The set-up probe is pure Python, because numpy must not be imported before
the set-up time starts.
"""

from __future__ import annotations

import signal
from statistics import fmean, median
from time import perf_counter

# interval between probes during a measured interval
SAMPLE_INTERVAL_S = 0.05
# probe loop times on the quiet 2-CPU Xeon VM the seed baseline was
# recorded on
PYTHON_REFERENCE_S = 3.5e-4
MIXED_REFERENCE_S = 7.0e-4


def python_loop() -> float:
    """Seconds for one pass of a fixed pure-Python loop."""
    t0 = perf_counter()
    x = 0
    for k in range(10000):
        x += k
    return perf_counter() - t0


def mixed_loop_factory():
    """A loop of the pure-Python pass plus fixed numpy calls on 400 values."""
    import numpy as np

    a = np.linspace(1.0, 2.0, 400)
    b = a.copy()
    c = np.empty_like(a)

    def mixed_loop() -> float:
        t0 = perf_counter()
        x = 0
        for k in range(10000):
            x += k
        for _ in range(80):
            np.multiply(a, b, out=c)
            np.add(c, a, out=c)
            np.sqrt(c, out=c)
            c[1:] -= c[:-1]
        return perf_counter() - t0

    return mixed_loop


class HostSampler:
    """Probes the host around and, from a SIGALRM timer, during a block.

    `loop` is a probe loop and `reference_s` its time on the quiet reference
    host.  Use only in the main thread, for one block at a time.  Each probe
    during the block adds its own time to it: about 1.5% for the mixed loop.
    With `during=False` the host is probed only around the block, so that
    none of the probe time falls inside it (traced runs, whose spans would
    otherwise absorb it).
    """

    def __init__(self, loop, reference_s: float, during: bool = True):
        self.loop = loop
        self.reference_s = reference_s
        self.during = during

    def probe(self) -> float:
        """Median of five loops: the host speed at this moment."""
        return median(self.loop() for _ in range(5))

    def __enter__(self) -> "HostSampler":
        self.probes = [self.probe()]
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        self.probes.append(self.loop())

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(self.probe())

    @property
    def scale(self) -> float:
        """Reference probe time over the mean probe time of the block."""
        return self.reference_s / fmean(self.probes)
