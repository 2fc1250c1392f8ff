"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 30 --trace 0

``--trace 0`` is a timed run and prints every end-to-end metric named in
``BENCHMARK.json``; ``--trace 1`` is a separate traced run that prints the
per-layer metrics (a per-layer metric reads 0 on a workload that never
enters its layer).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give the workload's properties (``info``), workload-specific figures such
as the per-kernel compiled/port ratios (``summary``), findings of the
traced run and all measured layers.  ``--plant-wrong`` corrupts one output
in every hundred to show that the correctness check fires.

Every workload reports the same end-to-end metrics, each measuring what a
user of that workload waits for, in wall-clock time.  ``kernels`` and
``compile`` times are scaled by the speed of the CPU that did the work,
sampled around it with a fixed piece of plain-Python work
(``common.HostSpeed``; for ``kernels`` the paired port), so that they are
in seconds of the reference host and the speed swings of a shared machine
cancel; the unscaled figures are on the ``summary`` line.  ``serve``
scales its latencies and throughput by the server CPU's speed logged by an
idle-priority process on that CPU (see ``serve.py``).  The share of CPU the host stole during the run is printed
with ``info``.

=================  ===========================  ========================  ==========================
metric             kernels                      compile                   serve
=================  ===========================  ========================  ==========================
setup_s            compile the 7 kernels        a fresh interpreter's     boot the server until it
                   (median of 9)                import and first compile  answers a ping (median of 7)
                                                (median of 9)
latency_ms_p50     one pass over the 7          one cold compile (miss,   one request, from its due
                   compiled kernels, each call  pipeline, put)            time to its reply, at the
                   gauged by its paired port                              fixed rate
latency_ms_tail    the same, p90                the same, p95             the same, p99
throughput_per_s   compiled kernel calls per    compiles (cold and warm)  requests completed per
                   second of call time          per second of compile     second in closed-loop
                                                time                      bursts, 4 kept outstanding
                                                                          per connection
peak_rss_mb        the benchmark process        the benchmark process     the server process
=================  ===========================  ========================  ==========================

Failures (wrong output, error, shed, timeout, no reply) are ``failed``
out of ``attempted``; the traced run also prints them as ``error_rate``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# one BLAS thread: the load stays within one process's thread, and CPU-time
# measurements of Dot see all of its work
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from common import SRC, Run, Spans, StealMeter  # noqa: E402

WORKLOADS = ("kernels", "compile", "serve")


def load_spec() -> dict:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt a share of outputs (checks the checker)")
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 plant_wrong: bool = False) -> dict:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    from planting import Planter

    run_ctx = Run(workload)
    spans = Spans(trace)
    steal = StealMeter()
    try:
        if workload == "kernels":
            import kernels as module
        elif workload == "compile":
            import compile_workload as module
        else:
            import serve as module
        plant = Planter() if plant_wrong else None
        result = module.run(run_ctx, seed, seconds, spans, plant=plant)
        result["info"]["host_steal_share"] = steal.share()
        return result
    finally:
        run_ctx.close()


def assemble(result: dict, spec: dict, trace: bool) -> dict:
    if trace:
        layers = dict(result["layers"])
        layers["error_rate"] = result["failed"] / max(1, result["attempted"])
        metrics = {}
        for entry in spec["per_layer"]:
            value = layers.get(entry["name"], 0)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        metrics = {}
        for entry in spec["end_to_end"]:
            measured = result["e2e"][entry["name"]]
            metrics[entry["name"]] = {"value": measured["value"],
                                      "unit": entry["unit"]}
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.plant_wrong)
    for key in ("info", "summary", "findings", "layers"):
        if result.get(key):
            print(f"{key}: {json.dumps(result[key], sort_keys=True)}")
    print(json.dumps(assemble(result, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
