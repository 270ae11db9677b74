"""Reference kernel: fixed work timed around each pass to gauge core speed.

The host's other tenants change the speed of a core by up to twofold within
seconds.  The pass process times this kernel just before and just after its
suites, and run.py scales the pass's times by the kernel's nominal time over
its measured time.  The kernel uses no uncerteq code and makes no FFT.  Its
arrays are made of blocks below malloc's default mmap threshold of 128 KB, so
it leaves malloc's thresholds, and so the program's allocations and peak RSS,
as a CLI call has them.
"""

from __future__ import annotations

import time

import numpy as np

REPS = 9
# Nominal time of one kernel run: about its time on an idle core of the
# machine in baseline.json.  Fixed, so scaled times compare across commits.
KERNEL_S = 0.005


def _kernel():
    """Complex arithmetic in place, streaming over 4 MB of 120 KB arrays.

    The arrays are made once, so the timed work has no page faults.
    """
    chunks = [np.full(7680, 0.6 - 0.8j) for _ in range(35)]
    scratch = np.empty(7680, complex)

    def run():
        for _ in range(9):
            for a in chunks:
                np.multiply(a, a, out=scratch)
                np.add(scratch, a, out=scratch)
                np.multiply(a, 0.6 + 0.8j, out=a)  # |a| stays 1
        return abs(complex(scratch[0]))
    return run


def reference_s(reps: int = REPS) -> float:
    """Median time of ``reps`` runs of the kernel."""
    run = _kernel()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]


def at_reference_speed(seconds: float, ref_s: list[float]) -> float:
    """``seconds`` scaled by the kernel's nominal over its mean measured time."""
    return seconds * KERNEL_S / (sum(ref_s) / len(ref_s))
