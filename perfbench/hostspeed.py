"""Host-speed correction for timings taken on a shared, noisy machine.

On the 2-vCPU virtual machine this benchmark was built on, identical work
took anywhere from 0.38 to 0.72 CPU-s within one minute, because the host
lends the same cores to other tenants.  Runs of 20 s saw their whole
level shift, so neither medians nor best-of-N inside a run could make the
run-to-run spread fit a regression bound.

A :class:`HostSpeed` sampler times a fixed pure-Python reference loop with
the thread's own CPU clock at idle points of a run: between set-up probes,
between operations and between splitting levels, and on a background
thread while a pooled operation's own thread only waits for its workers.
It never samples while the benchmark's thread runs the program (a second
busy thread in the same interpreter slows the loop by half).

The program does not slow down as much as the loop does: fitted on this
box, the log-log slope of the program's CPU time against the loop's was
0.63 to 0.95 across workloads and time scales, so the correction uses the
exponent ``SENSITIVITY``.  Over a run, ``factor()`` is
``(nominal loop CPU time / median loop CPU time) ** SENSITIVITY``; a time
multiplied by it reads roughly as if the host had run at the nominal
speed.  (Correcting each operation by the samples around it instead made
the spread worse: a few samples per window are noisier than the run's
median.)  The loop does not touch the program under test, so a faster
program still shows as a smaller corrected time.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time

#: CPU seconds the reference loop takes on an uncontended core of the
#: 2-vCPU machine it was measured on (an Intel Xeon); corrected times refer to it.
NOMINAL_LOOP_S = 0.010

#: How far the program's times follow the loop's under host contention.
SENSITIVITY = 0.75

#: Fewest seconds between two samples; idle points closer than this are skipped.
PERIOD_S = 0.5


def reference_loop():
    """Fixed interpreter-bound work: dict stores and lookups, float math."""
    table, x = {}, 0.0
    for i in range(60000):
        table[i & 255] = x = x * 0.5 + i
        x += table.get((i * 7) & 255, 0.0) * 1e-9
    return x


class HostSpeed:
    """Samples of the reference loop's CPU time, taken at idle points."""

    def __init__(self):
        #: Loop CPU seconds, one per sample.
        self.samples = []
        #: CPU seconds the samples themselves used (to take out of totals).
        self.cpu_used = 0.0
        self._last = float("-inf")

    def sample(self):
        """Time the reference loop once, unless the last sample is too recent."""
        if time.perf_counter() - self._last < PERIOD_S:
            return
        started = time.thread_time()
        reference_loop()
        used = time.thread_time() - started
        self.samples.append(used)
        self.cpu_used += used
        self._last = time.perf_counter()

    @contextlib.contextmanager
    def alongside(self, enabled=True):
        """Keep sampling on a background thread while the body runs.

        Only for bodies whose own thread just waits (on worker processes),
        so that the loop never competes with the program for the
        interpreter lock.
        """
        if not enabled:
            yield
            return
        stop = threading.Event()

        def keep_sampling():
            while not stop.wait(PERIOD_S):
                self.sample()

        thread = threading.Thread(target=keep_sampling, name="perfbench-hostspeed",
                                  daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor(self):
        """Correction factor of this run's times (1.0 at nominal speed)."""
        return (NOMINAL_LOOP_S / statistics.median(self.samples)) ** SENSITIVITY
