"""Shared plumbing: run isolation, statistics, spans, memory, metrics."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for one run, inside the checkout and removed at exit
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")


class Run:
    """One benchmark run's scratch directory and environment.

    Every ``REPRO_*`` variable is removed from the environment, so no
    user setting (cache location, thresholds, telemetry, verification)
    leaks into the measurement, and the artifact cache points at a fresh
    directory that no earlier run has touched.
    """

    def __init__(self, tag: str):
        os.makedirs(RUNS_DIR, exist_ok=True)
        self.dir = os.path.join(RUNS_DIR, f"{tag}-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.dir)
        self._count = 0
        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            del os.environ[name]
        self.point_cache_at(self.fresh_dir("cache"))

    def fresh_dir(self, name: str) -> str:
        self._count += 1
        path = os.path.join(self.dir, f"{name}{self._count}")
        os.makedirs(path)
        return path

    def point_cache_at(self, path: str) -> None:
        os.environ["REPRO_ARTIFACT_CACHE"] = path
        self.cache_dir = path

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        return env

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def tail_fraction(count: int, highest: float) -> float:
    """The highest of p99/p95/p90/p50, up to ``highest``, with at least ten
    samples beyond it.  A workload passes as ``highest`` the percentile its
    full-length runs always reach, so the reported percentile does not
    switch between runs whose sample counts differ a little."""
    for fraction in (0.99, 0.95, 0.90):
        if fraction <= highest and count * (1.0 - fraction) >= 10:
            return fraction
    return 0.50


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- spans ------------------------------------------------------------------


class Spans:
    """Spans recorded in memory by the benchmark around its calls into
    each layer: name, start, end and the operation they belong to.

    Disabled (the timed runs) it records nothing and costs one branch.
    Self times inside the server come from the server's own per-request
    timelines (see ``serve.py``).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list = []   # [name, start, end, op]

    @contextmanager
    def span(self, name: str, op: str = ""):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), 0.0, op]
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.records if n == name]


class Counter:
    """Checked outputs: every check is attempted; a false one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def timed(fn, *args):
    """``(seconds, result)`` for one call, in wall-clock time.

    Wall-clock time sees everything a caller waits for: the work, and also
    disk writes, locks and sleeps.  Time the host steals from the vCPU
    counts too; the workloads cancel it by scaling with :class:`HostSpeed`
    samples (or, for ``kernels``, the paired port) timed the same way.
    """
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def cpus() -> list:
    """The CPUs this process may run on, in order."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


def pin(cpu: int) -> None:
    """Run this process (and the processes it starts) on one CPU.

    The CPUs of a shared virtual machine change speed independently, so
    host-speed samples only describe the measured work when both run on
    the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


#: the reference work's wall-clock time on the host where the benchmark was
#: written (a KVM vCPU of a 2.1 GHz Xeon, quiet); normalised times are in
#: seconds of that host
REFERENCE_S = 0.00100
_REFERENCE_TEXT = "".join(chr(97 + (i * 7919) % 26) for i in range(5000))
_REFERENCE_DATA = [(i * 2654435761) % 1000003 for i in range(4000)]


def reference_work() -> int:
    """A fixed piece of plain-Python work (hashing, sorting, counting) made
    of the same bytecode the compiled kernels and the pipeline run."""
    import ports

    digest = ports.fnv1a32(_REFERENCE_TEXT)
    ordered = ports.qsort(_REFERENCE_DATA[:500], ports.less)
    bins = ports.histogram(_REFERENCE_DATA)
    return digest + ordered[0] + bins[0]


class HostSpeed:
    """How fast this host runs plain Python right now.

    The speed of a CPU of a shared virtual machine changes within a
    second (neighbours on the same physical core), by a factor of two and
    more between runs.  The workloads sample :func:`reference_work` around
    their measured operations and report each time scaled by
    ``REFERENCE_S / t(reference work)``, taken from the samples around it:
    the work of the program under test still counts in full, and the
    host's speed at that moment cancels.  The raw times are printed beside
    the scaled ones.
    """

    def __init__(self):
        self.samples: list = []

    def sample(self) -> int:
        """Time the reference work in wall-clock time, as the measured work
        is timed; returns the sample's index.  The work runs once untimed
        first, so the sample does not depend on how much of the caches the
        measured work left to it."""
        reference_work()
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, index: int = None, radius: int = 4) -> float:
        """``REFERENCE_S`` over the median of the samples within ``radius``
        of sample ``index`` (all samples when ``index`` is None)."""
        if index is None:
            window = self.samples
        else:
            window = self.samples[max(0, index - radius):index + radius + 1]
        return REFERENCE_S / median(window)


class StealMeter:
    """Share of CPU time the hypervisor stole from this machine between
    construction and :meth:`share` (``/proc/stat``); reported with every
    run as a validity figure for its wall-clock timings."""

    def __init__(self):
        self.start = self._read()

    @staticmethod
    def _read() -> tuple:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                fields = [int(v) for v in handle.readline().split()[1:9]]
        except (OSError, ValueError):
            return (0, 0)
        return fields[7], sum(fields)

    def share(self) -> float:
        steal, total = self._read()
        elapsed = total - self.start[1]
        return round((steal - self.start[0]) / elapsed, 4) if elapsed else 0.0
