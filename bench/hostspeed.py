"""Host-speed correction for the benchmark's timers.

On a shared virtual machine the speed of a vCPU changes with the load of
other tenants of the physical host: a fixed piece of pure-Python work runs
in one time for seconds, then in up to twice that time for seconds or tens
of seconds, with process CPU time equal to wall time and no steal time
reported.  No timer inside the guest can take that out, and a job of a few
seconds can fall wholly into a slow stretch, so a job's best time over a
few passes still moves by a half between runs.

SpeedProbe samples the host's speed while the jobs run: every INTERVAL
seconds a SIGALRM handler runs `reference()`, a fixed piece of exact
rational elimination written here and independent of gscohom, twice in a
row and keeps the faster time, so that an interrupt or caches left cold by
the interrupted code do not count as a slow host.  A job's corrected time
is its wall time minus the handler's own time, divided by the slowdown of
the host during the job: the mean of the reference times sampled in the
job's window over REF_SECONDS.  So corrected times read in
seconds of a host on which the reference takes REF_SECONDS, whatever the
host's speed was while the run lasted.  The handler runs between bytecodes
in the main thread; it disables the garbage collector while it runs, so a
collection of gscohom's heap is never timed as host slowness.

Jobs that run in a child process (the CLI commands, the set-up probes) are
sampled from the parent, which the timer wakes while it waits for the
child.  So that those samples describe the CPU the child runs on, the run
pins itself to one CPU (`pin_to_one_cpu`) and its children inherit the
pinning.  The handler then briefly takes the CPU from the child; its time
is taken out of the job's time as for any other job.
"""

import bisect
import gc
import os
import signal
import time
from fractions import Fraction as F

# seconds between samples; a sample takes 1.5-3% of that
INTERVAL = 0.05
# the reference's time on the baseline host running at full speed (2-vCPU
# Intel Xeon VM at 2.0 GHz, Python 3.11)
REF_SECONDS = 3.5e-4
# a window with fewer samples is widened by its nearest neighbours
MIN_SAMPLES = 4

_N = 5
_ROWS = [[F((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 3) for j in range(_N)]
         for i in range(_N)]


def reference():
    """Rank of a fixed 5x5 rational matrix by Gauss-Jordan elimination on
    dict rows: the kind of work gscohom's hot loops do (Fraction arithmetic,
    small dicts), in code of the benchmark's own, so a change to gscohom
    never changes it."""
    rows = [dict(enumerate(r)) for r in _ROWS]
    rank = 0
    for c in range(_N):
        piv = next((k for k in range(rank, _N) if rows[k].get(c)), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        p = {j: v * inv for j, v in rows[rank].items() if v}
        rows[rank] = p
        for k in range(_N):
            f = rows[k].get(c)
            if k != rank and f:
                r = rows[k]
                rows[k] = {j: r.get(j, 0) - f * p.get(j, 0)
                           for j in set(r) | set(p)}
        rank += 1
    return rank


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that samples taken
    in the parent describe the CPU a child runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples of the reference's time, taken every INTERVAL seconds."""

    def __init__(self):
        # per sample: its start, the reference's time, the handler's time
        self.starts, self.durations, self.costs = [], [], []

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            middle = time.perf_counter()
            reference()
            end = time.perf_counter()
            self.durations.append(min(middle - start, end - middle))
            self.costs.append(end - start)
            self.starts.append(start)
        finally:
            if enabled:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def slowdown(self, start, end):
        """Mean reference time over [start, end] divided by REF_SECONDS;
        a window with fewer than MIN_SAMPLES samples takes in its nearest
        neighbours in time.  1 when nothing was sampled."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        n = len(self.starts)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0 and (hi == n or start - self.starts[lo - 1]
                           <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return 1.0
        return sum(self.durations[lo:hi]) / (hi - lo) / REF_SECONDS

    def corrected(self, start, end):
        """Seconds that [start, end] would have taken on the reference host,
        without the probe's own time inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.costs[lo:hi])
        return (end - start - own) / self.slowdown(start, end)
