"""Reference-speed clock: program time measured against an in-process probe.

The speed of a shared machine drifts from run to run by as much as a factor
of two, and CPU time drifts with it, so neither wall time nor CPU time
repeats.  A fixed pure-Python loop (the probe) is run from an
interval timer about every 50 ms.  Each stretch of program work between two
probes is divided by the slowdown the nearby probes show, and the probes'
own time is left out.  The result is in reference seconds: seconds on a
machine where one probe takes exactly ``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_PROBE_S = 0.001
PROBE_INTERVAL_S = 0.05
# probes on each side whose median sets the speed of one stretch
PROBE_WINDOW = 2

_MERSENNE_127 = (1 << 127) - 1
_KODAIRA = re.compile(r"^(I(\d+)\*?|II\*?|III\*?|IV\*?)$")


@dataclass(frozen=True)
class _Triple:
    a: int
    b: int
    c: int


def probe_loop() -> int:
    """The fixed unit of work every speed reading is made of.

    Contention from other tenants slows small-integer bytecode, big-integer
    arithmetic, allocation and string work by different amounts (from 1.7x
    to 2.1x measured here), so the probe spends about a fifth of its time
    on each kind the program does: Miller-Rabin and rho on multi-limb
    integers, Fractions in Tate and torsion, frozen dataclasses, and JSON
    and regex matching in the scan output.
    """
    x = 0
    for i in range(1600):
        x = (x * 1103515245 + i) & 0x7FFFFFFF
    n = 12345678901234567890
    for i in range(35):
        n = pow(n, 65537, _MERSENNE_127) + i
        math.gcd(n, 3**60)
    table: dict[int, int] = {}
    q = Fraction(1, 3)
    m = 98765432109876543210
    for i in range(130):
        table[i % 17] = (table.get(i % 17, 0) + m * i) % 1_000_000_007
        if i % 8 == 0:
            q = (q * 7 + i) / 5
        m = (m * m + 1) % _MERSENNE_127
        row = [i, m & 0xFFFF, i]
        row.sort()
    kept: list[_Triple] = []
    for i in range(130):
        kept.append(_Triple(i, 3 * i, -i))
    kept = [t for t in kept if t.a % 3]
    text = 0
    for i in range(37):
        line = json.dumps({"p": i, "kodaira": f"I{i}", "c": [i, i + 1]}, sort_keys=True)
        text += len(line) + bool(_KODAIRA.match(f"I{i % 9}*"))
    return x ^ n ^ m ^ q.numerator ^ len(kept) ^ text


class ReferenceClock:
    """Runs the probe on a timer while active and converts wall intervals.

    Use as a context manager around the timed work; read time stamps with
    ``now()`` and convert an interval with ``reference_seconds(a, b)`` once
    the block has ended.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.probes: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._speeds: list[float] = []
        self._cum: list[float] = []

    now = staticmethod(time.perf_counter)

    def _probe(self, *_):
        t0 = time.perf_counter()
        probe_loop()
        self.probes.append((t0, time.perf_counter()))

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        for _ in range(PROBE_WINDOW + 1):
            self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(PROBE_WINDOW + 1):
            self._probe()
        self._build()

    def _build(self) -> None:
        """Speed of every stretch between probes, and reference time at its start."""
        durations = [e - s for s, e in self.probes]
        n = len(self.probes)
        self._starts = [s for s, _ in self.probes]
        self._speeds.clear()
        self._cum = [0.0]
        for k in range(n - 1):
            lo, hi = max(0, k - PROBE_WINDOW + 1), min(n, k + PROBE_WINDOW + 1)
            speed = REFERENCE_PROBE_S / statistics.median(durations[lo:hi])
            self._speeds.append(speed)
            self._cum.append(self._cum[-1] + (self.probes[k + 1][0] - self.probes[k][1]) * speed)

    def _at(self, t: float) -> float:
        """Reference time elapsed from the first probe's start to wall time t."""
        k = bisect.bisect_right(self._starts, t) - 1
        if k < 0:
            raise ValueError("time stamp precedes the clock")
        if k >= len(self._speeds):
            raise ValueError("time stamp follows the clock")
        into = t - self.probes[k][1]
        return self._cum[k] + max(0.0, into) * self._speeds[k]

    def reference_seconds(self, a: float, b: float) -> float:
        """Work time in wall interval [a, b], probes excluded, at reference speed."""
        return self._at(b) - self._at(a)

    def probe_time(self, a: float, b: float) -> float:
        """Wall time the probes took inside [a, b]."""
        first = max(0, bisect.bisect_right(self._starts, a) - 1)
        last = bisect.bisect_left(self._starts, b)
        return sum(max(0.0, min(e, b) - max(s, a)) for s, e in self.probes[first:last])

    def slowdown(self) -> float:
        """Median probe duration over the reference duration."""
        return statistics.median(e - s for s, e in self.probes) / REFERENCE_PROBE_S
