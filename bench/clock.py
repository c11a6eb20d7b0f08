"""Wall time corrected for the speed the machine runs at.

On a shared host the same interpreter work can take 30-50% longer for
seconds to minutes at a time, and CPU time moves with wall time, so
neither is steady from run to run.  The slowdown hits all interpreter
work at that moment alike, so `Clock` measures it while the timed code
runs: an interval timer interrupts the process every PROBE_INTERVAL_S and
the handler times a short fixed calibration loop.  Each timed segment
(one or more calls, until it holds MIN_SAMPLES probes) is charged its wall
time minus the time spent in probes, scaled by REFERENCE_S / (mean probe
time in the segment): the time the work would take with the calibration
loop at its nominal speed.  On this host a fixed codec workload timed in
5-second windows varied by 15% (coefficient of variation) in wall time
and by 3.4% calibrated.  Wall time is kept beside the calibrated time.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERATIONS = 3_500
REFERENCE_S = 0.002  # nominal probe time; a typical one on this host
PROBE_INTERVAL_S = 0.025
MIN_SAMPLES = 3

_DATA = bytes(range(256)) * 4
_PAIRS = {(b, k): 0 for b in range(256) for k in range(8)}


def reference_loop(iterations: int = PROBE_ITERATIONS) -> int:
    """Fixed interpreter work: byte indexing, tuple keys, dict updates and
    integer arithmetic.  It keeps no new objects alive, so its time does not
    depend on the state of the allocator or of the garbage collector."""
    data, pairs = _DATA, _PAIRS
    acc = 0
    for i in range(iterations):
        b = data[i & 1023]
        key = (b, i & 7)
        pairs[key] = (pairs[key] + i) & 0xFFFF
        acc ^= (b << 3) | (i & 7)
    return acc


class Clock:
    """Per-name totals of wall time and of calibrated time.

    Use as a context manager: the probe runs only inside the `with` block,
    and the totals are complete once it exits.  Not reentrant.
    """

    def __init__(self):
        self.wall: dict[str, float] = {}
        self.calibrated: dict[str, float] = {}
        self.samples: list[float] = []
        self._spent = 0.0  # wall time inside the probe handler
        self._pending: dict[str, float] = {}
        self._first = 0  # index of the open segment's first probe
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.flush()

    def time(self, name: str, fn):
        """Run fn(), charging its time to `name`; returns its result."""
        if not self._pending:
            self._first = len(self.samples)
        spent = self._spent
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start - (self._spent - spent)
            self.wall[name] = self.wall.get(name, 0.0) + elapsed
            self._pending[name] = self._pending.get(name, 0.0) + elapsed
            if len(self.samples) - self._first >= MIN_SAMPLES:
                self.flush()

    def flush(self) -> None:
        """Close the open segment.  A segment too short to hold a probe
        uses the latest MIN_SAMPLES probes, or one taken now."""
        if not self._pending:
            return
        samples = self.samples[self._first :] or self.samples[-MIN_SAMPLES:]
        if not samples:
            self._probe(None, None)
            samples = self.samples
        factor = REFERENCE_S / statistics.fmean(samples)
        for name, elapsed in self._pending.items():
            self.calibrated[name] = self.calibrated.get(name, 0.0) + elapsed * factor
        self._pending.clear()
