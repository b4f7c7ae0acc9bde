"""Host-speed sampling: a small fixed slice of reference work, timed every 0.1 s.

The benchmark runs on shared hosts whose speed for interpreter-bound code
moves by 20-100 % within seconds and drifts over minutes (other tenants on
the same cores; CPU time tracks wall time, so it is speed, not waiting).
The program's wall time moves with it, so raw wall times of the same code
differ more between two sets of runs than a regression bound allows.

``HostSampler`` runs ``reference_slice`` from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time, in the measuring thread, between the program's
bytecodes (no extra thread or process).  The slices sample the host speed
over the same seconds as the program runs, and ``run.py`` reports each time
at reference speed::

    reported = (measured - time spent in slices) / slowdown
    slowdown = mean slice time / REFERENCE_SLICE_S

The slice belongs to the benchmark, not to ``censdev``, so a change to the
program never changes it: a program that gets slower reads slower by the
same factor.  It is pure Python made of what the program's hot paths are
made of (small frozen dataclasses, dicts, ``math`` calls, float arithmetic),
so a slow host state slows it about as much as it slows the program, and it
imports nothing heavy, so a set-up can sample from its first import on.
It takes about 1 % of the time and touches no random number generator, so
the program's outputs are unchanged.  Over single passes of 1.5-5 s on a
2-core shared host, it cut the pass-to-pass spread (coefficient of
variation) from 0.16 to 0.03 (``survival-aml``), 0.13 to 0.04
(``tobit-large``) and 0.11 to 0.08 (``trace-export``, whose vectorised
numpy KDE it tracks least well).
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.1
# A round number near the time of one ``reference_slice()`` on the 2.0 GHz
# Intel Xeon host the baseline was measured on (0.6-0.9 ms there); it only
# fixes the scale of the reported times.
REFERENCE_SLICE_S = 0.001
_ROUNDS = 250


@dataclass(frozen=True)
class _Row:
    value: float
    scale: float


def reference_slice() -> float:
    """Fixed, deterministic work; returns a checksum so nothing is elided."""
    total = 0.0
    for i in range(_ROUNDS):
        row = _Row(value=(i % 97) * 0.01, scale=1.0 + (i % 5))
        fields = {"value": row.value, "scale": row.scale}
        z = (fields["value"] - 0.5) / fields["scale"]
        total += math.log1p(row.value) + math.exp(-row.scale) + z * z
        total += math.erfc(-z / math.sqrt(2.0)) + math.lgamma(row.scale + 0.5)
        total += sum([z, row.value, row.scale]) / len(fields)
    return total


class HostSampler:
    """Context manager that times ``reference_slice`` every ``INTERVAL_S``.

    ``spent`` is the total time of the slices taken so far and ``slices``
    their number.
    """

    def __init__(self):
        self.spent = 0.0
        self.slices = 0
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        reference_slice()
        self.spent += time.perf_counter() - start
        self.slices += 1

    def __enter__(self) -> HostSampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def slowdown(spent: float, slices: int) -> float:
    """Host slowdown against the reference: mean slice time / REFERENCE_SLICE_S."""
    if slices == 0:
        return 1.0
    return spent / slices / REFERENCE_SLICE_S
