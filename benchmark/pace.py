"""Host pace: scales wall times to a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 2x, in spells that last from a second to many minutes.  Process CPU
time changes with it (the host is slower, not just busier), so no clock
steadies a timing on its own, and a median over one run cannot remove a
slow spell that covers the whole run.  So a run also times fixed reference
work that does not involve gkm3, sampled through the run, and scales each
wall time by ``reference_s`` over the median sample near it (``factor``).
A scaled time reads as seconds on a host that does the reference work in
``reference_s``.

There are two references, because the host's spells slow two kinds of work
differently:

* ``cpu_loop``, interpreted integer arithmetic, for work inside the
  benchmark process.  It is sampled after every in-process operation and,
  during one, every ``INTERVAL_S`` of the process's CPU time.  Of the loops
  tried (this one, exact rational elimination, tuple-keyed dictionaries,
  Fraction sums, object lists), its time followed the verdict times of the
  corpus graphs most closely.
* An interpreter start that imports numpy, the one library gkm3 imports
  (``python -c "import numpy"``), for child processes: CLI calls and set-up
  probes, whose time is mostly interpreter start-up and imports, numpy's
  above all.  Their slow spells barely show in the loop's time, but do show
  in a start's: over 37 blocks of ten set-up probes, the spread of the
  block medians was 0.16 unscaled, 0.14 scaled by the loop and 0.03 scaled
  by bare starts (``python -c pass``).  A start that imports numpy follows
  single CLI calls more closely than a bare start: unscaled, scaled by bare
  starts and scaled by numpy starts, the spread of ``validate`` calls was
  0.15, 0.13 and 0.10.

Neither reference calls gkm3, so a faster program shows in full and a
change to gkm3 cannot move a factor.  Garbage collection is paused while a
sample runs, so the program's garbage is not collected on its time, and
the time of samples taken during an operation is taken off that
operation's wall time.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import subprocess
import sys
from time import perf_counter

# Reference times on a 2-core x86 host in its usual (slower) spell.
CPU_REFERENCE_S = 0.0010
START_REFERENCE_S = 0.20
INTERVAL_S = 0.05
# A time's factor is the median of at least this many samples: those taken
# during it, widened to the nearest ones before and after it.
NEAR_SAMPLES = 9


def cpu_loop(n: int = 10000) -> int:
    """The fixed in-process work whose time measures the host's pace."""
    s = 0
    for i in range(n):
        s = (s * 31 + i) % 1000003
    return s


def numpy_start(env: dict, cwd) -> None:
    """Starts an interpreter that imports numpy, and waits for its end."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True)


class Pace:
    """Samples of one reference over a run, and factors from them."""

    def __init__(self, reference, reference_s: float) -> None:
        self.reference = reference
        self.reference_s = reference_s
        self.times = []  # perf_counter at the end of each sample
        self.samples = []  # seconds of each sample
        self.spent_s = 0.0  # wall time of all samples, not operation time

    def sample(self) -> None:
        """Times the reference once."""
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.reference()
            t1 = perf_counter()
            self.samples.append(t1 - t0)
            self.times.append(t1)
        finally:
            if enabled:
                gc.enable()
            self.spent_s += perf_counter() - t0

    def _on_prof(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Samples every ``INTERVAL_S`` of CPU time inside the block."""
        previous = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def factor(self, start: float = None, end: float = None) -> float:
        """Multiplier from wall seconds between ``start`` and ``end``
        (perf_counter values) to the reference pace; over the whole run
        when they are not given."""
        if start is None:
            return self.reference_s / statistics.median(self.samples)
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < NEAR_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < NEAR_SAMPLES:
                hi += 1
        return self.reference_s / statistics.median(self.samples[lo:hi])
