"""Host-speed calibration for the timings of a run.

On a host shared with other tenants the same sort call can take 30-50%
longer in one minute than in the next, and a whole run drifts together.
A fixed probe of benchmark-owned code (an interpreter loop plus a numpy
sort and ``tolist``, the mix the sorting hot paths run) is timed on every
CPU the run may use, many times across the run, and compute timings are
reported in seconds of the reference host: host seconds times
``REFERENCE_S`` over the host's probe time.  The host's speed swings by
up to 2x within seconds, so an untraced run scales each timed stretch (a
bulk call, a grid regeneration) by the mean of the probes just before
and just after it (:meth:`HostSpeed.scale_between`), and each set-up by
a probe right after it; the traced pass scales its per-layer timings (s,
ns) by the run's median probe.  The program never runs in the probe, so
a change to the program moves a scaled time exactly as it moves the raw
one, while the host's drift largely cancels.

The served latencies and capacity stay in host units: they follow the
host's wake-up and scheduling latency, which this compute probe does not
see.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Median probe time on the reference host (2-vCPU Xeon VM at 2.1 GHz,
#: Python 3.11, numpy 2.4) over a quiet minute.
REFERENCE_S = 0.0045


class HostSpeed:
    """Collects probe timings over a run and turns them into a scale."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).integers(
            0, 2**32, 1 << 16, dtype=np.uint64
        )
        self.probes: list[float] = []

    def _probe_once(self) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            total = 0
            for value in range(30_000):
                total += value
            np.sort(self._keys).tolist()
            best = min(best, time.perf_counter() - t0)
        return best

    def probe(self) -> float:
        """Probe each usable CPU in turn; record and return the mean.

        The calling thread is pinned to one CPU at a time and its CPU set
        is restored afterwards, so processes forked later are unaffected.
        """
        if not hasattr(os, "sched_setaffinity"):
            value = self._probe_once()
        else:
            cpus = sorted(os.sched_getaffinity(0))
            timings = []
            try:
                for cpu in cpus:
                    os.sched_setaffinity(0, {cpu})
                    timings.append(self._probe_once())
            finally:
                os.sched_setaffinity(0, cpus)
            value = statistics.mean(timings)
        self.probes.append(value)
        return value

    def quick_probe(self) -> float:
        """Probe the CPU this thread runs on, without pinning it: cheap
        enough to bracket every timed call."""
        value = self._probe_once()
        self.probes.append(value)
        return value

    def settled_probe(self) -> float:
        """Median of three probes of every CPU, for the edges of a long
        timed stretch."""
        return statistics.median(self.probe() for _ in range(3))

    def scale_between(self, before: float, after: float) -> float:
        """Factor turning host seconds spent between two probes into
        reference seconds."""
        return 2 * REFERENCE_S / (before + after)

    def scale(self) -> float:
        """Factor turning this run's host seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.probes)
