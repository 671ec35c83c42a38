"""Host-speed probe: times a fixed calibration loop while a step runs.

On a shared host the same pure-Python loop runs up to twice as slow in
phases that last from under a second to minutes, so a raw wall time says as
much about the hour as about the program.  ``SpeedProbe`` runs a short
calibration burst just before a step, every ``PERIOD_S`` seconds while it
runs (from a ``SIGALRM`` handler, in the same thread) and just after it.
The step's wall time, less the time spent in the bursts, is then scaled to
the reference speed: multiplied by ``NOMINAL_BURST_S`` over the mean burst
time.  A step that takes 1 s while the bursts run at their nominal time is
reported as 1 s.

The burst never calls the library, so a change to the program cannot
change it.  It builds and hashes small frozensets of pairs, the same kind of
interpreter work the library does; in trials a burst over a large working
set tracked the program's slow phases worse, so the slowdown is in the
shared core, not the cache.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Burst size and sampling period.  A burst is about 2 ms, so the probe
# spends about 4% of a step's wall time, which is taken out again.
BURST_ROUNDS = 5
PERIOD_S = 0.05
# The burst's wall time at the reference speed: its typical time in a fast
# phase on a 2-vCPU Xeon virtual machine at 2.1 GHz under Python 3.11.7.
# Only the scale of the reported times depends on it, not their ratios.
NOMINAL_BURST_S = 0.0017


def _shuffle(cells: frozenset, k: int) -> frozenset:
    return frozenset((w, (w * k) % 13) for w, _ in cells)


def burst_s() -> float:
    """Wall time of one calibration burst.

    The collector is paused: the burst makes no cycles, and its time must
    not depend on the size of the heap the program left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for k in range(BURST_ROUNDS):
            cells = frozenset((w, w % 5) for w in range(64))
            seen: dict[int, int] = {}
            for j in range(8):
                cells = _shuffle(cells, k + j)
                key = hash(cells)
                seen[key] = seen.get(key, 0) + 1
            pairs = [(a, b) for a, _ in cells for b, _ in cells if a < b and (a ^ b) & 3 == 0]
            if not pairs or not seen:
                raise AssertionError("calibration burst did no work")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Context manager that samples the host's speed around and during a step.

    ``sample=False`` keeps only the bursts before and after the step, for
    traced steps whose per-layer times must not include the probe's.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.bursts: list[float] = []
        self.spent = 0.0  # wall time spent in bursts during the step
        self._active = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        start = time.perf_counter()
        self.bursts.append(burst_s())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self.bursts.append(burst_s())
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
            # None means the old handler was not set from Python.
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.bursts.append(burst_s())

    def at_reference_speed(self, elapsed: float) -> float:
        """``elapsed`` (measured inside the probe, bursts included) as the
        step's own time at the reference speed."""
        return (elapsed - self.spent) * NOMINAL_BURST_S / statistics.fmean(self.bursts)
