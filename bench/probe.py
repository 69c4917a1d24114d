"""Sample the speed of the CPU another process is running on.

    python3 bench/probe.py PID

Every PERIOD_S the probe moves itself to the CPU that process PID last ran
on, times a fixed interpreter loop in CPU seconds, and prints one line
``<perf_counter time> <loop CPU seconds> <cpu>``.  It exits when PID is gone
or its output is closed.  The loop takes about 2 ms, so the probe costs
the watched process about 1% of its CPU.

On the 2-core machine the benchmark was tuned on, a CPU's speed drifts by
20-40% over seconds to minutes, and the loop slows with it.  Work timed
while the probe ran is rescaled to "reference seconds", its time at the
speed where the loop takes PROBE_REF_S; that cancels most of the drift
between runs.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.2
LOOP_N = 20_000
PROBE_REF_S = 0.002  # a typical loop time on that machine


class Probe:
    """Samples the CPU of process ``pid`` while the context is open."""

    def __init__(self, pid: int):
        self.pid = pid
        self.samples: list[tuple[float, float, float]] = []

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.pid)],
                                      stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self._proc.kill()
        out = self._proc.communicate()[0]
        self.samples = [tuple(float(v) for v in line.split())
                        for line in out.splitlines()]
        return False

    def median_loop(self) -> float:
        if not self.samples:
            raise RuntimeError("the speed probe produced no samples")
        return statistics.median(loop for _, loop, _ in self.samples)

    def reference_seconds(self, windows) -> float:
        """Total reference seconds of work timed over ``windows``, (start,
        end) perf_counter pairs; a window with no sample uses the median."""
        overall = self.median_loop()
        total = 0.0
        for t0, t1 in windows:
            inside = [loop for t, loop, _ in self.samples if t0 <= t <= t1]
            total += (t1 - t0) * PROBE_REF_S / (
                statistics.median(inside) if inside else overall)
        return total


def last_cpu(pid: int) -> int | None:
    """CPU that ``pid`` last ran on (field 39 of /proc/PID/stat)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[36])


def loop_seconds() -> float:
    c0 = time.thread_time()
    s = 0
    for i in range(LOOP_N):
        s += i * i
    return time.thread_time() - c0


def main() -> int:
    pid = int(sys.argv[1])
    while True:
        cpu = last_cpu(pid)
        if cpu is None:
            return 0
        os.sched_setaffinity(0, {cpu})
        t = time.perf_counter()
        try:
            print(f"{t} {loop_seconds()} {cpu}", flush=True)
        except BrokenPipeError:
            return 0
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main())
