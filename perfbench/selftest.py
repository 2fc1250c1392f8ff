"""Self-tests for the benchmark.  Run: ``python3 perfbench/selftest.py``.

They check that a seed fixes the workload, that the correctness checks
count planted wrong outputs and unanswered requests as failures, and that
every metric named in ``BENCHMARK.json`` is printed.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import run as bench  # noqa: E402
from common import SRC  # noqa: E402

sys.path.insert(0, SRC)

import compile_workload  # noqa: E402
import kernels  # noqa: E402
import oracle  # noqa: E402
import serve  # noqa: E402


def first_draws(seed: int, count: int) -> list:
    out = []
    for draw in compile_workload.draws(seed):
        out.append((draw.source, draw.text, repr(draw.args)))
        if len(out) == count:
            return out


class SeedTest(unittest.TestCase):
    def test_same_seed_same_program_draw(self):
        self.assertEqual(first_draws(3, 50), first_draws(3, 50))
        self.assertNotEqual(first_draws(3, 50), first_draws(4, 50))
        texts = [text for _, text, _ in first_draws(3, 200)]
        self.assertEqual(len(set(texts)), len(texts))

    def test_same_seed_same_requests(self):
        def sequence(seed):
            return [(r.session, r.klass, r.expr)
                    for r in oracle.requests(seed, 500, serve.SESSIONS)]
        self.assertEqual(sequence(5), sequence(5))
        self.assertNotEqual(sequence(5), sequence(6))

    def test_same_seed_same_kernel_inputs(self):
        self.assertEqual(repr(kernels.make_inputs(9)),
                         repr(kernels.make_inputs(9)))


class CheckTest(unittest.TestCase):
    def test_planted_wrong_output_counts_as_failed(self):
        result = bench.run_workload("kernels", 1, 0.2, trace=False,
                                    plant_wrong=True)
        self.assertGreater(result["failed"], 0)
        line = bench.assemble(result, bench.load_spec(), trace=False)
        self.assertFalse(line["correct"])

    def test_unanswered_request_counts_as_failed(self):
        answered = 3

        async def scenario():
            async def handle(reader, writer):
                try:
                    for _ in range(answered):
                        if not await reader.readline():
                            return
                        writer.write(json.dumps({"ok": True, "result": "1"})
                                     .encode() + b"\n")
                        await writer.drain()
                    await reader.read()   # silent until the client leaves
                finally:
                    writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            requests = [oracle.Request(0, "sym", "1", oracle.exact("1"))
                        for _ in range(8)]
            try:
                return await serve.drive(port, requests, 200.0, grace=0.3)
            finally:
                server.close()
                await server.wait_closed()

        phase = asyncio.run(scenario())
        self.assertEqual(phase.failed, 8 - answered)

    def test_expand_oracle_rejects_wrong_coefficient(self):
        check = oracle.expand_check([(1, "x"), (1, "y")], 2)
        self.assertTrue(check("Plus[Power[x, 2], Power[y, 2], Times[2, x, y]]"))
        self.assertFalse(check("Plus[Power[x, 2], Power[y, 2], Times[3, x, y]]"))


class SpeedTest(unittest.TestCase):
    def test_spinner_scale_uses_the_samples_around_a_time(self):
        spinners = serve.Spinners.__new__(serve.Spinners)
        ref = common.REFERENCE_S
        times = [t / 100.0 for t in range(200)]
        spinners.samples = {0: (times, [ref * (2.0 if t >= 1.0 else 1.0)
                                        for t in times])}
        self.assertAlmostEqual(spinners.scale(0, 0.2, 0.6), 1.0)
        self.assertAlmostEqual(spinners.scale(0, 1.2, 1.6), 0.5)
        # too few samples inside: the interval widens
        self.assertAlmostEqual(spinners.scale(0, 5.0, 5.0), 0.5)

    def test_host_speed_scale_is_reference_over_window_median(self):
        speed = common.HostSpeed()
        speed.samples = [common.REFERENCE_S * f for f in (1, 1, 4, 2, 2)]
        self.assertAlmostEqual(speed.scale(0, radius=1), 1.0)
        self.assertAlmostEqual(speed.scale(4, radius=1), 0.5)


class MixTest(unittest.TestCase):
    def test_class_shares_follow_the_servers_default_workload(self):
        from repro.server.loadgen import DEFAULT_WORKLOAD

        def head(template):
            return template.split("[", 1)[0]
        written = {head(t) for t in DEFAULT_WORKLOAD if ":=" in t}
        writes = sum(1 for t in DEFAULT_WORKLOAD if ":=" in t)
        calls = sum(1 for t in DEFAULT_WORKLOAD
                    if ":=" not in t and head(t) in written)
        total = len(DEFAULT_WORKLOAD)
        expected = {"def": writes / total, "hot": calls / total,
                    "sym": (total - writes - calls) / total}
        block = [slot[0] for slot in oracle.BLOCK]
        shares = {k: block.count(k) / len(block) for k in expected}
        self.assertEqual(shares, expected)

    def test_warm_up_lifts_every_function_past_the_full_threshold(self):
        from repro.runtime.hotspot import DEFAULT_THRESHOLD

        calls: dict = {}
        for request in oracle.climb(1, serve.CLIMB_CALLS, serve.SESSIONS):
            key = (request.session, request.expr.split("[", 1)[0])
            calls[key] = calls.get(key, 0) + 1
        self.assertEqual(len(calls), serve.SESSIONS * 6)
        self.assertGreater(min(calls.values()), DEFAULT_THRESHOLD)


class OutputTest(unittest.TestCase):
    """Every metric in BENCHMARK.json is printed; short runs."""

    spec = bench.load_spec()

    def test_end_to_end_metrics_printed_for_every_workload(self):
        for workload in bench.WORKLOADS:
            result = bench.run_workload(workload, 2, 1.0, trace=False)
            line = bench.assemble(result, self.spec, trace=False)
            self.assertEqual(set(line["metrics"]),
                             {m["name"] for m in self.spec["end_to_end"]})
            self.assertTrue(line["correct"], workload)
            for entry in line["metrics"].values():
                self.assertGreater(entry["value"], 0)

    def test_every_per_layer_metric_measured_by_some_workload(self):
        measured = set()
        for workload in bench.WORKLOADS:
            result = bench.run_workload(workload, 2, 3.0, trace=True)
            measured |= set(result["layers"])
            line = bench.assemble(result, self.spec, trace=True)
            self.assertEqual(set(line["metrics"]),
                             {m["name"] for m in self.spec["per_layer"]})
        measured.add("error_rate")
        missing = {m["name"] for m in self.spec["per_layer"]} - measured
        self.assertEqual(missing, set())


if __name__ == "__main__":
    unittest.main()
