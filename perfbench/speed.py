"""The host's current speed, from a fixed reference loop.

On a shared virtual machine the CPU's speed drifts: other tenants slow it by
up to 2x in phases of seconds to minutes, and user CPU time inflates with
wall time, because the guest cannot see the time it loses.  A phase can
cover a whole run, so no statistic over one run's repetitions removes it.

The benchmark therefore times a fixed pure-Python loop, which never touches
the program, right before and right after every timed repetition, and
states each repetition's times at the reference speed: measured time x
``REFERENCE_S`` / loop time.  The probe after a repetition lasts about
``PROBE_SHARE`` of it.  A loop time of exactly ``REFERENCE_S`` leaves
a time as measured.  Over a five-minute record on a 2-vCPU Xeon VM, the loop
time tracked the run time of an ``iid-mc`` scheme with a correlation of
0.9, and scaling halved the spread between repetitions.
"""

from __future__ import annotations

import os
import time

#: loop time on the idle 2-vCPU Xeon VM the benchmark was written on, in
#: seconds; times scaled to it read as seconds on that idle host.
REFERENCE_S = 0.024
#: passes of the inner loop that ``REFERENCE_S`` and every loop time are for,
#: and the fewest a probe times.
PASSES = 10
#: share of a repetition's wall time that the probe after it takes.  Contention
#: comes in bursts; a probe as short as the loop would miss or hit a burst
#: by chance, while a long repetition sits through several of them.
PROBE_SHARE = 0.05


def _loop() -> int:
    total = 0
    for i in range(40_000):
        total += i * i
    return total


def loop_time(passes: int = PASSES) -> float:
    """Seconds this process takes per ``PASSES`` passes, timing ``passes``."""
    spent = 0.0
    for _ in range(passes):
        start = time.perf_counter()
        _loop()
        spent += time.perf_counter() - start
    return spent * PASSES / passes


def passes_for(seconds: float) -> int:
    """Passes that make a probe ``PROBE_SHARE`` of ``seconds``, or ``PASSES``."""
    return max(PASSES, round(PROBE_SHARE * seconds * PASSES / REFERENCE_S))


def probe(processes: int = 1, passes: int = PASSES) -> float:
    """Loop time with ``processes`` copies running at once, averaged.

    A workload that keeps several CPUs busy is slowed by whichever of them
    another tenant shares, so its probe loads as many CPUs as it does.
    """
    if processes <= 1:
        return loop_time(passes)
    read_end, write_end = os.pipe()
    pids = []
    try:
        for _ in range(processes):
            pid = os.fork()
            if pid == 0:  # child: time the loop, report, leave at once
                code = 1
                try:
                    os.close(read_end)
                    os.write(write_end, f"{loop_time(passes)!r}\n".encode())
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
    finally:
        os.close(write_end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        with os.fdopen(read_end) as reader:
            times = [float(line) for line in reader.read().split()]
    if any(codes) or len(times) != processes:
        raise RuntimeError(f"host-speed probe failed (exit codes {codes})")
    return sum(times) / processes


def factor(loop_before: float, loop_after: float) -> float:
    """What states a time measured between two probes at the reference speed."""
    return REFERENCE_S / ((loop_before + loop_after) / 2)
