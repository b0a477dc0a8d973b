"""Host-speed-normalized timing.

The reference host (a 2-vCPU VM shared with other tenants) changes speed by
up to 1.8x, on each vCPU independently, in phases from a fraction of a second
to over a minute.  A whole run can fall in a slow phase, so no fastest repeat
escapes it: measured wall times of one workload spread 15-40% (IQR/median)
across runs.  ``timed`` therefore probes the host's current speed *while*
the call runs.  An interval timer interrupts the call every INTERVAL_S to
run a fixed pure-Python kernel (Fraction arithmetic and dict stores, like
the program's inner loops).  The call's time, less the probes' own time, is
divided by the mean probe time and multiplied by REFERENCE_S.  That is the
call's time on a host where one kernel call takes REFERENCE_S, which is
close to the reference host's own speed in its fast phase.  A change to the
program moves the result one for one; the probes add about 1% to the call.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001
INTERVAL_S = 0.05


def kernel() -> Fraction:
    acc, store = Fraction(0), {}
    for i in range(1, 350):
        acc += Fraction(i % 13 - 6, i)
        store[i % 97] = acc
    return acc


def timed(fn):
    """Run ``fn()``; returns (result, wall seconds, reference seconds).

    Uses SIGALRM and ITIMER_REAL, so it must run in the main thread.  Worker
    processes forked by ``fn`` do not inherit the timer.
    """
    probes: list[float] = []

    def probe(*_):
        t0 = time.perf_counter()
        kernel()
        probes.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    net = wall - sum(probes)
    probe()  # a call shorter than INTERVAL_S still gets one probe
    return result, wall, net * REFERENCE_S / statistics.mean(probes)
