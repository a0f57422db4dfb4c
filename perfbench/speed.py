"""Interpreter-speed probes, to take a shared host's drift out of wall times.

On a shared virtual machine the speed of this process drifts by 20 % and
more within seconds, as other tenants load the host.  Process CPU time
drifts with it, because time stolen by the hypervisor is invisible to the
guest.  So while a timed call runs, SIGALRM fires every `INTERVAL_S` seconds
of wall time and the handler times one fixed unit of pure-Python work that
shares no code with `painleve` (`_probe_work`).  Hundreds of probes per
second of work sample the speed the call itself ran at.

For calls that took `wall` seconds while a probe was armed, of which `spent`
went to the probes themselves, the time at reference speed is

    (wall - spent) * mean(REFERENCE_PROBE_S / d_i)

where `d_i` are the probe durations.  The mean of speeds, not of durations,
is the right one: wall time is sampled uniformly, so the mean speed times
the net wall time is the work done, and a probe stretched by preemption
weighs little.  `REFERENCE_PROBE_S` only fixes the unit: it is about the
probe's duration on the machine the baseline was taken on, so reference
seconds read close to wall seconds there.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_PROBE_S = 3.0e-4
INTERVAL_S = 0.01


def _probe_work() -> dict:
    acc: dict = {}
    for i in range(1, 40):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return acc


class SpeedProbe:
    """Samples interpreter speed while armed; arm it with `with`.

    One probe may be armed many times; its samples and the time they took
    accumulate, so it can scale the sum of several calls' wall times."""

    def __init__(self):
        self.spent = 0.0
        self.samples = 0
        self._speed_sum = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_work()
        seconds = time.perf_counter() - start
        self.spent += seconds
        self.samples += 1
        self._speed_sum += REFERENCE_PROBE_S / seconds

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, wall: float) -> float:
        """`wall` seconds measured while armed, less the probes' own time,
        scaled to the reference speed."""
        if not self.samples:
            raise ValueError("no speed probe fired; the timed calls were too short")
        return (wall - self.spent) * self._speed_sum / self.samples


def report_import(module: str, spawned_at: float) -> None:
    """Import `module` with a probe armed and print, as JSON, the wall and
    reference seconds since `spawned_at`, a `time.perf_counter()` reading
    the parent took just before it started this interpreter.  That clock is
    the system-wide monotonic clock on Linux, so the window covers the
    interpreter's own start-up too."""
    import importlib
    import json

    with SpeedProbe() as probe:
        importlib.import_module(module)
    wall = time.perf_counter() - spawned_at
    print(json.dumps({"wall": wall, "reference": probe.reference_seconds(wall)}))
