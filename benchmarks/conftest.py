"""Shared fixtures for the benchmark suite.

Workload sizes follow ``REPRO_BENCH_SCALE`` (default: small CI-friendly
sizes; 1.0 = the paper's sizes).  Compiled artifacts are cached per session
so pytest-benchmark timings measure execution, not compilation.  The
persistent artifact cache is off, as in ``tests/``: a compile-time figure
must time the pipeline, not a hit read from ``~/.cache/repro``.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import Figure2Harness, figure2_sizes
from repro.engine import Evaluator


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale", type=float, default=None,
        help="workload scale (1.0 = paper sizes); overrides REPRO_BENCH_SCALE",
    )


@pytest.fixture(scope="session", autouse=True)
def _artifact_cache_off():
    """Hermetic benchmarks: no compile reads or writes the user's (or the
    CI runner's) persistent artifact cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ARTIFACT_CACHE", "off")
        yield


@pytest.fixture(scope="session")
def scale(request) -> float:
    from repro.benchsuite.data import bench_scale

    option = request.config.getoption("--repro-scale")
    return option if option is not None else bench_scale()


@pytest.fixture(scope="session")
def sizes(scale):
    return figure2_sizes(scale)


@pytest.fixture(scope="session")
def harness(scale) -> Figure2Harness:
    return Figure2Harness(scale=scale, repeats=1)


@pytest.fixture(scope="session")
def evaluator() -> Evaluator:
    from repro.compiler import install_engine_support

    session = Evaluator()
    install_engine_support(session)
    return session
