"""Run one command to completion and print its wall time, machine speed, peak RSS and exit code.

    python3 perfbench/launch.py TIMEOUT_S -- COMMAND [ARG ...]

Prints one JSON object: ``wall_s`` from spawn to reap, ``cal_s`` the
median time of a fixed calibration loop run next to the child (see
below), ``rss_mb`` from ``os.wait4`` for that child alone, and ``exit``
(``null`` when the child was killed at the timeout).  The child's
standard output is discarded; its standard error is inherited.

The benchmark starts every measured process through this small script.
On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process
that spawned it, since the high-water mark carries across fork and exec.
A spawner that had parsed a 94 MB artifact would therefore make every
later child read at least its own peak.

The speed of a shared virtual CPU drifts by a third and more over seconds
and minutes, and CPU time drifts with it.  So the launcher pins itself and
the child to one CPU, and a thread of the launcher runs ``calibrate()`` on
that CPU before the child starts, every ``CAL_PERIOD_S`` while it runs and
after it ends, timing each call by its own CPU time.  A time divided by
``cal_s`` then no longer depends on how fast the CPU was at that moment.
The calibration takes about 2% of the CPU from the child.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

CAL_PERIOD_S = 0.1
CAL_LOOP = 20000


def calibrate() -> float:
    """CPU time of a fixed pure-Python loop, about 2 ms."""
    start = time.thread_time()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i % 7
    return time.thread_time() - start


def main() -> int:
    timeout = float(sys.argv[1])
    argv = sys.argv[3:] if sys.argv[2:3] == ["--"] else sys.argv[2:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the child inherits it
    samples = [calibrate()]
    done = threading.Event()

    def sampler():
        while not done.wait(CAL_PERIOD_S):
            samples.append(calibrate())

    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    thread = threading.Thread(target=sampler, daemon=True)
    thread.start()
    killed = []

    def _alarm(signum, frame):
        # The child is reaped only after the timer is off, so its pid is still ours here.
        os.kill(proc.pid, signal.SIGKILL)
        killed.append(True)

    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # wait, but leave it unreaped
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    done.set()
    thread.join()
    samples.append(calibrate())
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = bool(killed) and proc.returncode == -signal.SIGKILL
    print(json.dumps({"wall_s": wall, "cal_s": statistics.median(samples),
                      "rss_mb": usage.ru_maxrss / 1024.0,
                      "exit": None if timed_out else proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
