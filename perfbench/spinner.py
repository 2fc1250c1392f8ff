"""Keeps one CPU busy at idle priority and logs its speed (``serve.Spinners``).

    python3 perfbench/spinner.py <log file>

Runs the reference work (``common.reference_work``) in an endless loop as a
``SCHED_IDLE`` process: it runs only when nothing else wants the CPU and
yields it at once to any thread that wakes.  Each reference work's thread
CPU time is appended to the log as a ``<time.perf_counter()> <seconds>``
line; thread CPU time leaves out the time the process was preempted, so the
samples measure the CPU's speed however busy the CPU is.  The process ends
with the process that started it.
"""

from __future__ import annotations

import os
import sys
import time

from common import reference_work


def main(path: str) -> None:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    with open(path, "a", encoding="ascii") as out:
        flushed = time.perf_counter()
        while os.getppid() == parent:
            start = time.thread_time()
            reference_work()
            elapsed = time.thread_time() - start
            now = time.perf_counter()
            out.write(f"{now!r} {elapsed!r}\n")
            if now - flushed > 0.1:
                out.flush()
                flushed = now


if __name__ == "__main__":
    main(sys.argv[1])
