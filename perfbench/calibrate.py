"""Machine-speed probe pinned to one CPU, run beside the benchmark.

    python3 perfbench/calibrate.py CPU OUT_FILE

On a shared machine the same chain can take twice as long from one minute
to the next, because other tenants slow the CPUs, not always both alike.
The slowdown flickers within seconds, and a probe run only while the
benchmark is idle does not follow it (its factor did not correlate with the
chains' times), so this one runs all the time.

It pins itself to CPU, takes the idle scheduling class, so it runs only when
nothing else wants the CPU, and repeats a fixed slice of work:
interpreter-bound small-array arithmetic, then a fresh 4 MiB array written
twice, which costs page faults and memory bandwidth. After each slice it
appends to OUT_FILE the monotonic time at which the slice ended and the CPU
seconds it took, then spins three times that long without touching memory.
A slice's CPU time stretches with the CPU's slowness but not with being
descheduled, so the probe keeps measuring while the benchmark occupies its
CPU. ``run.py`` starts one probe per CPU and turns the slices that ended in
a timed interval into a speed factor for that interval. The process runs
until terminated or orphaned.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# Loop iterations and array elements in one slice: together about 1.6 ms of
# CPU on a quiet 2 GHz Xeon vCPU.
LOOP = 600
ARRAY = 512 * 1024


def work_slice(rows: np.ndarray, total: float) -> float:
    for i in range(LOOP):
        total += float(rows[i % 64] @ rows[(i * 7) % 64])
        total -= sum(range(i % 50))
    fresh = np.ones(ARRAY)
    fresh += 1.0
    return total + fresh[-1]


def main(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    rows = np.random.default_rng(0).random((64, 32))
    total = 0.0
    parent = os.getppid()
    with open(out, "a", encoding="utf-8") as fh:
        # Stop if run.py dies without stopping the probe (it is re-parented).
        while os.getppid() == parent:
            cpu_start = time.thread_time()
            total = work_slice(rows, total)
            spent = time.thread_time() - cpu_start
            fh.write(f"{time.monotonic():.6f} {spent:.9f}\n")
            fh.flush()
            # Spin rather than sleep: a probe that slept between slices took
            # the benchmark's CPU from it (chains' wall time exceeded their
            # CPU time by a tenth), even in the idle class.
            until = time.thread_time() + 3 * spent
            while time.thread_time() < until:
                pass


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
