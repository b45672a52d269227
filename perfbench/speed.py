"""Samples the machine's speed while a worker runs, to scale its times.

The benchmark runs on shared hosts whose speed changes from second to
second with other tenants' load: the same sweep can take 30% longer in one
minute than in the next, with CPU time rising as much as wall time.  A
median over the few sweeps of one run cannot remove that, because the slow
spells last longer than a sweep.

So a timer interrupts the worker every ``INTERVAL_S`` and runs a fixed
probe that does not use zernkit: a short Python loop and a few copies of a
400 KB buffer.  The probe runs twice per sample and only the second, warm,
run is timed, so the program's use of the caches barely moves it.  The
samples are evenly spaced in time, so the mean of the speeds they show,
``REFERENCE_S / probe time``, is the machine's mean speed over the work:
work that took ``wall`` seconds would have taken ``wall * REFERENCE_S / h``
at the speed where the probe takes ``REFERENCE_S``, with ``h`` the
harmonic mean of the probe times.  Unlike their plain mean, it is not
pulled up by the odd probe that the host stalls for milliseconds.  The
probes' own time is taken out of ``wall`` first.  Standard library only, so a worker can start sampling before its
imports.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# Mean warm probe time on a 2-vCPU Xeon VM (2.0 GHz, Python 3.11) when
# its host was lightly loaded; scaled times read as seconds at that speed.
REFERENCE_S = 2.5e-4

_BUFFER = bytearray(400_000)


def probe():
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(4):
        total += len(bytes(_BUFFER))
    return total


class Sampler:
    """Times ``probe`` on a wall-clock timer signal; one per process."""

    def __init__(self):
        self.times = []  # warm probe seconds since the last ``take``
        self.spent = 0.0  # seconds spent in the handler since ``start``

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe()
        warm = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.times.append(end - warm)
        self.spent += end - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Seconds, like ``time.perf_counter``, less the time in probes."""
        return time.perf_counter() - self.spent

    def take(self):
        """The probe times since the last ``take``."""
        times, self.times = self.times, []
        return times


def scaled(seconds, times):
    """``seconds`` of work, probes taken out, at the reference speed, given
    the probe times sampled during it.  Work shorter than ``INTERVAL_S``
    has no samples and is left as it is."""
    if not times:
        return seconds
    return seconds * REFERENCE_S / statistics.harmonic_mean(times)
