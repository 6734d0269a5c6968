"""Samples how fast this core runs while a child works.

The host is shared. On a 2-vCPU VM the same pure-Python code runs at one
of two speeds, about 1.7x apart, and the speed switches every few
seconds, with no steal time and CPU time equal to wall time. A child's
raw wall time therefore depends on how much of it fell into slow
stretches, which moves whole runs by 25-35%.

A ``SpeedProbe`` runs a fixed kernel of about a millisecond from a
SIGALRM handler every ``INTERVAL_S`` of wall time, in the child's own
thread, so it sees the same core at the same moments as the work. Each
probe i of duration p_i says that the work around it advanced
``REFERENCE_S / p_i`` reference seconds per second. ``ref_seconds``
turns a stretch of wall time into the time it would have taken at
reference speed: the wall time minus the probes' own time, times the
mean of ``REFERENCE_S / p_i`` over the probes in the stretch.

The kernel never touches the package, so only the package's own work
moves the reference time. It does the kinds of work the package does:
calls of a comparison function in a binary search over a list, tuple
keys in a dict, and an integer of a few hundred bits.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
# kernel time at the fast speed of a 2 vCPU Intel Xeon 2.0 GHz
# firecracker VM, Python 3.11.7
REFERENCE_S = 0.001

_CHAIN = list(range(0, 1 << 20, 1 << 11))  # 512 sorted keys
_ROUNDS = 600


def _less(a, b):
    return a < b


def kernel() -> int:
    """The fixed work of one probe."""
    chain = _CHAIN
    seen: dict[tuple[int, int], int] = {}
    acc = 1
    for i in range(_ROUNDS):
        x = (i * 2654435761) & 0xFFFFF
        lo, hi = 0, len(chain)
        while lo < hi:
            mid = (lo + hi) // 2
            if _less(x, chain[mid]):
                hi = mid
            else:
                lo = mid + 1
        seen[(lo, i)] = acc & 0xFF
        acc = acc * 3 + lo
    return len(seen) + acc.bit_length()


class SpeedProbe:
    """Times ``kernel`` every INTERVAL_S from a timer signal until stopped."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._old_handler = None

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _inside(self, begin: float, end: float) -> list[float]:
        return [d for s, d in self.samples if begin <= s < end]

    def probe_seconds(self, begin: float, end: float) -> float:
        """Seconds the probes took between two ``perf_counter`` readings."""
        return sum(self._inside(begin, end))

    def ref_seconds(self, begin: float, end: float) -> float:
        """Reference-speed seconds of the work done between two
        ``perf_counter`` readings."""
        inside = self._inside(begin, end)
        # a stretch shorter than INTERVAL_S may hold no probe: use the last one before it
        speed_from = inside or [d for s, d in self.samples if s < begin][-1:]
        return (end - begin - sum(inside)) * sum(REFERENCE_S / d for d in speed_from) / len(speed_from)
