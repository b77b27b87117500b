"""Host-side probes: how fast the host runs right now, and peak
resident memory of the measured work.

The benchmark runs on small shared virtual machines whose speed drifts
by 1.3-1.6x from one minute to the next: on a 2-vCPU VM the same
cold-small pass took 26.6 s raw in one phase and 35-40 s in another.
Raw seconds then say more about the neighbours than about the program.
So the benchmark times a short fixed CPU loop before and after every
layer call and reports seconds scaled to a reference host speed:
seconds x (reference loop time / median loop time during the pass).
Both workloads, serial and 2-worker, slowed by the same 1.3x as the
loop between phases. The raw seconds are printed beside the scaled
ones.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Sequence

#: Iterations of the calibration loop (10-20 ms on one vCPU).
CALIBRATION_LOOP = 250_000

#: Seconds the loop takes on the reference host: a 2-vCPU x86 VM in a
#: quiet phase.
REFERENCE_S = 0.0100


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value
    return time.perf_counter() - started


def speed_factor(samples: Sequence[float]) -> float:
    """Reference loop time over the median of ``samples``: multiply
    seconds measured while they were taken by this to get
    reference-host seconds. The median shrugs off a sample caught by a
    stray interrupt."""
    return REFERENCE_S / statistics.median(samples)


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS high-water mark (Linux
    ``clear_refs``), so the next :func:`peak_rss_mb` covers only what
    follows. Returns False where the kernel offers no reset."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _self_peak_kib() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def peak_rss_mb() -> float:
    """Peak RSS of this process (since the last reset) plus the peak
    RSS of its largest reaped child, in MiB. Forked children count the
    pages they share with the parent, so this is an upper bound on the
    footprint, stable from run to run."""
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (_self_peak_kib() + child_kib) / 1024.0
