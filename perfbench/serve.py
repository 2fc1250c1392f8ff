"""The ``serve`` workload: ``python -m repro serve`` driven open-loop.

The server runs in its own process, booted with ``prelude.wl``, on one
CPU.  One asyncio thread, on the other CPU, offers requests at a fixed
rate over two connections, to eight sessions (a session always uses the
same connection, so its requests are served in order).

Each request's latency is timed by the load generator from the request's
due time to its reply, so it holds everything a client waits for: the
generator's lateness, the wait behind earlier requests on the same
connection, JSON encoding and decoding, the transport, admission, the hop
to a worker and the evaluation.  While the workload runs, an
idle-priority spinner on each CPU keeps the CPUs from halting between
requests and logs the CPU's speed (see :class:`Spinners`).  Each latency
is scaled by the server CPU's speed within :data:`SPEED_RADIUS` of the
request's due time, and each burst's throughput by the speed around the
burst, so that they are in terms of the reference host; the speed of a
shared vCPU swings by up to 1.8x within seconds.  The unscaled figures
are on the ``summary`` line.

An untimed warm-up first lifts every prelude function of every session
up the hotspot ladder; the redefinitions in the mix keep invalidating and
re-promoting them for the rest of the run.  Then the fixed-rate phase
gives the latency figures, and short closed-loop bursts that keep the
server saturated give its capacity in requests per second.  The bursts
are interleaved with :data:`PARTS` parts of the fixed-rate phase, so that
both see the CPU's speed swings alike.  Last, a ladder of rising
open-loop rates finds the highest rate that meets the latency limit.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import os
import random
import re
import select
import selectors
import subprocess
import sys
import time

import oracle
from common import HERE, REFERENCE_S, Counter, HostSpeed, cpus, median, \
    metric, peak_rss_mb_pid, percentile, pin, tail_fraction

PRELUDE = os.path.join(HERE, "prelude.wl")
CONNECTIONS = 2
SESSIONS = 8
FIXED_RATE = 150.0
#: the fixed-rate phase is cut into PARTS parts, with a saturation burst
#: before, between and after them
PARTS = 7
#: the tail percentile (a run of 30 s makes 2700 fixed-rate requests, 27
#: beyond p99)
TAIL = 0.99
#: warm-up: every session calls every prelude function this many times
#: (one more than the full-pipeline threshold), at this rate
CLIMB_CALLS = 17
CLIMB_RATE = 300.0
#: shares of ``--seconds`` for the fixed-rate phase, the closed-loop
#: saturation phase and the rate ladder
FIXED_SHARE, SATURATE_SHARE, LADDER_SHARE = 0.6, 0.28, 0.12
#: the rate ladder (requests/s, steps of 1.15x, 0.5 s each).  A rate that
#: fails is tried once more; the ladder stops at the first rate that fails
#: twice, or when its share of the run is spent.
LADDER = tuple(round(400 * 1.15 ** step) for step in range(11))
LADDER_STEP_SECONDS = 0.5
BOOTS = 7
#: closed-loop saturation: requests kept outstanding per connection, and
#: the rate the request list of a burst is sized for (above any capacity
#: seen, so a burst never runs out of requests)
OUTSTANDING = 4
BURST_RATE = 4000.0
#: a ladder rate passes with no failures, p95 within this limit and no
#: growing backlog (a step has 200 or more requests, so p95 is the highest
#: percentile with at least ten beyond it at every rate)
P95_LIMIT_MS = 100.0
#: how long after the last due time unanswered requests are still awaited
GRACE_SECONDS = 2.0
BOOT_TIMEOUT = 60.0
#: a request's latency is scaled by the server CPU's speed samples taken
#: within this many seconds of its due time
SPEED_RADIUS = 0.25


class Server:
    """One ``repro serve`` process on an ephemeral port, on one CPU."""

    def __init__(self, run_ctx, cpu: int):
        env = run_ctx.child_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.log = open(os.path.join(run_ctx.dir, "server.log"), "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--prelude", PRELUDE],
            stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=run_ctx.dir,
            preexec_fn=lambda: pin(cpu))
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                break
            if self.process.poll() is not None:
                break
        match = re.search(rb"listening on [^:\s]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.process.pid)

    def cpu_seconds(self) -> float:
        """User plus system CPU time of all the server's threads; Linux
        leaves time stolen by the hypervisor out of it."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


class Spinners:
    """A ``spinner.py`` process pinned to each CPU.

    On a shared virtual machine an idle vCPU halts, and waking it for the
    next request or send costs from microseconds to milliseconds,
    depending on the load of the host: without the spinners the
    generator's p99 lateness swung between 2 and 10 ms and due-time
    latencies by half between runs.  A ``SCHED_IDLE`` process runs only
    when nothing else wants its CPU and yields it at once to a thread
    that wakes, so it delays no request; it keeps the vCPU running, and
    its log of reference-work times gives the CPU's speed at any moment.
    """

    #: the fewest speed samples a scale is taken from
    LEAST = 20

    def __init__(self, run_ctx, on: list):
        self.logs, self.processes = {}, []
        for cpu in on:
            self.logs[cpu] = os.path.join(run_ctx.dir, f"speed{cpu}.log")
            open(self.logs[cpu], "w", encoding="ascii").close()
            self.processes.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "spinner.py"),
                 self.logs[cpu]], preexec_fn=lambda cpu=cpu: pin(cpu)))
        self.samples = {}

    def stop(self) -> None:
        for process in self.processes:
            process.terminate()
        for process in self.processes:
            process.wait()
        for cpu, path in self.logs.items():
            with open(path, encoding="ascii") as handle:
                pairs = sorted(tuple(float(v) for v in line.split())
                               for line in handle if len(line.split()) == 2)
            self.samples[cpu] = ([at for at, _ in pairs],
                                 [dt for _, dt in pairs])

    def scale(self, cpu: int, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median speed sample of ``cpu`` taken in
        ``[start, end]``, the interval widened until it holds
        :data:`LEAST` samples (a saturated CPU leaves the spinner none)."""
        times, seconds = self.samples[cpu]
        slack = 0.0
        while True:
            inside = seconds[bisect.bisect_left(times, start - slack):
                             bisect.bisect_right(times, end + slack)]
            if len(inside) >= self.LEAST or slack > 60.0:
                break
            slack = max(0.25, 2 * slack)
        return REFERENCE_S / median(inside) if inside else 1.0


def run_async(coroutine):
    """``asyncio.run`` on a ``select()``-based loop: its timeouts have
    microsecond resolution where epoll's have whole milliseconds, so the
    generator sends on time instead of up to a millisecond late.  The
    garbage collector is off meanwhile: a full collection of the request
    lists would stall the generator by milliseconds."""
    gc.collect()
    gc.disable()
    try:
        with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(
                selectors.SelectSelector())) as runner:
            return runner.run(coroutine)
    finally:
        gc.enable()


async def call(port: int, payloads: list) -> list:
    """Send control requests on one connection and read their replies
    (an ``events`` or ``trace`` reply can be a long line)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=1 << 26)
    try:
        out = []
        for payload in payloads:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            out.append(json.loads(await reader.readline()))
        return out
    finally:
        writer.close()
        await writer.wait_closed()


def boot(run_ctx, cpu: int) -> tuple:
    """Start a server and wait until it answers a ping;
    ``(server, start, end)``."""
    start = time.perf_counter()
    server = Server(run_ctx, cpu)
    try:
        reply = run_async(call(server.port, [{"op": "ping"}]))[0]
    except Exception:
        server.stop()
        raise
    if reply.get("result") != "pong":
        server.stop()
        raise RuntimeError(f"bad ping reply {reply!r}")
    return server, start, time.perf_counter()


# -- the open-loop load generator ------------------------------------------------------


class Phase:
    """Outcome of one open-loop phase at one rate."""

    def __init__(self, requests):
        self.requests = requests
        self.latency = [None] * len(requests)   # seconds from due time
        self.reply = [None] * len(requests)
        self.late = []                          # generator lateness, s
        self.ok = [False] * len(requests)
        self.due = []

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)

    def latencies(self, klass=None) -> list:
        return [lat for req, lat, ok in zip(self.requests, self.latency, self.ok)
                if ok and (klass is None or req.klass == klass)]

    def values(self) -> list:
        """Latencies, a failed request counting as missing every limit."""
        return [lat if ok else float("inf")
                for lat, ok in zip(self.latency, self.ok)]

    def server_ms(self) -> list:
        """The server's own latency for each answered request (its reply's
        ``latency_seconds``), in ms: a diagnostic beside the latency the
        generator times."""
        return [float(reply.get("latency_seconds") or 0.0) * 1e3
                for reply, ok in zip(self.reply, self.ok) if ok]

    def backlog_grew(self) -> bool:
        """Median latency of the last third well above the first third's."""
        done = [lat for lat in self.latency if lat is not None]
        if len(done) < 30:
            return True
        third = len(done) // 3
        head, tail = median(done[:third]), median(done[-third:])
        return tail > 2.0 * head + 0.020


def encode(request) -> bytes:
    """One request line; a session always goes to the same connection."""
    return json.dumps({"expr": request.expr,
                       "session": f"s{request.session}",
                       "tenant": f"t{request.session % CONNECTIONS}"}
                      ).encode() + b"\n"


def check_reply(request, line: bytes, plant=None) -> tuple:
    """``(reply, ok)`` for one reply line."""
    reply = json.loads(line)
    result = reply.get("result") if reply.get("ok") else None
    if plant is not None and result is not None:
        result = plant.maybe(result)
    return reply, result is not None and request.check(result)


async def drive(port: int, requests: list, rate: float, plant=None,
                grace: float = GRACE_SECONDS) -> Phase:
    """Offer ``requests`` at ``rate``.  While the phase runs the generator
    only sends pre-encoded lines and stamps the replies' arrival; replies
    are decoded and checked afterwards, so the generator's own work delays
    no send and no stamp."""
    phase = Phase(requests)
    lines = [encode(request) for request in requests]
    raw = [None] * len(requests)
    connections = [await asyncio.open_connection("127.0.0.1", port)
                   for _ in range(CONNECTIONS)]
    pending = [[] for _ in range(CONNECTIONS)]
    heads = [0] * CONNECTIONS
    answered = 0
    all_done = asyncio.Event()
    start = time.perf_counter() + 0.02
    due = phase.due = [start + index / rate for index in range(len(requests))]

    async def reader(conn: int) -> None:
        nonlocal answered
        stream = connections[conn][0]
        while True:
            line = await stream.readline()
            if not line:
                return
            index = pending[conn][heads[conn]]
            heads[conn] += 1
            phase.latency[index] = time.perf_counter() - due[index]
            raw[index] = line
            answered += 1
            if answered == len(requests):
                all_done.set()

    readers = [asyncio.create_task(reader(c)) for c in range(CONNECTIONS)]
    try:
        for index, request in enumerate(requests):
            # behind schedule, still yield so the readers stamp replies
            await asyncio.sleep(max(0.0, due[index] - time.perf_counter()))
            phase.late.append(max(0.0, time.perf_counter() - due[index]))
            conn = request.session % CONNECTIONS
            pending[conn].append(index)
            connections[conn][1].write(lines[index])
        remaining = due[-1] + grace - time.perf_counter()
        try:
            await asyncio.wait_for(all_done.wait(), max(0.0, remaining))
        except asyncio.TimeoutError:
            pass   # unanswered requests stay failed
    finally:
        for _, writer in connections:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in connections:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    for index, line in enumerate(raw):
        if line is not None:
            phase.reply[index], phase.ok[index] = check_reply(
                requests[index], line, plant)
    return phase


async def saturate(server: Server, requests: list, seconds: float,
                   counter) -> tuple:
    """Closed loop: every connection keeps :data:`OUTSTANDING` requests
    outstanding for ``seconds``; returns ``(requests completed, server
    CPU seconds)`` within them.  Every reply is checked after the burst."""
    port = server.port
    queues = [[r for r in requests if r.session % CONNECTIONS == conn]
              for conn in range(CONNECTIONS)]
    lines = [[encode(r) for r in queue] for queue in queues]
    replies = [[] for _ in range(CONNECTIONS)]
    start = time.perf_counter()
    deadline = start + seconds
    done_at = []

    async def connection(conn: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        queue, sent, received = queues[conn], 0, 0

        def send_one() -> None:
            nonlocal sent
            writer.write(lines[conn][sent])
            sent += 1

        try:
            while sent < min(OUTSTANDING, len(queue)):
                send_one()
            while received < sent:
                line = await asyncio.wait_for(
                    reader.readline(), deadline + GRACE_SECONDS
                    - time.perf_counter())
                if not line:
                    break
                replies[conn].append(line)
                received += 1
                done_at.append(time.perf_counter())
                if time.perf_counter() < deadline and sent < len(queue):
                    send_one()
        except asyncio.TimeoutError:
            pass
        finally:
            counter.attempted += sent - received
            counter.failed += sent - received   # no reply in time
            writer.close()
            await writer.wait_closed()

    async def meter() -> float:
        first = server.cpu_seconds()
        await asyncio.sleep(max(0.0, deadline - time.perf_counter()))
        return server.cpu_seconds() - first

    cpu, *_ = await asyncio.gather(
        meter(), *(connection(c) for c in range(CONNECTIONS)))
    for queue, answered in zip(queues, replies):
        for request, line in zip(queue, answered):
            counter.check(check_reply(request, line)[1])
    return len([t for t in done_at if t <= deadline]), cpu


def phase_requests(seed: int, rate: float, seconds: float) -> list:
    return oracle.requests(seed, max(1, int(rate * seconds)), SESSIONS)


def warm_up(port: int, seed: int, counter, wrap=lambda phase: phase) -> None:
    """Untimed calls that lift every prelude function of every session up
    the hotspot ladder; their outputs are still checked."""
    requests = oracle.climb(seed + 104729, CLIMB_CALLS, SESSIONS)
    phase = run_async(wrap(drive(port, requests, CLIMB_RATE)))
    counter.attempted += len(requests)
    counter.failed += phase.failed


def ladder(port: int, seed: int, counter, seconds: float) -> tuple:
    """``(highest passing rate, [(rate, p95_ms, failed, grew)])`` within a
    budget of ``seconds``."""
    best, steps = 0.0, []
    deadline = time.perf_counter() + seconds
    for step, rate in enumerate(LADDER):
        for attempt in range(2):
            if time.perf_counter() + LADDER_STEP_SECONDS > deadline:
                return best, steps
            requests = phase_requests(seed * 1000 + step * 2 + attempt + 1,
                                      rate, LADDER_STEP_SECONDS)
            phase = run_async(drive(port, requests, rate))
            counter.attempted += len(requests)
            counter.failed += phase.failed
            p95 = percentile(phase.values(), 0.95) * 1e3
            grew = phase.backlog_grew()
            steps.append((rate, round(p95, 2), phase.failed, grew))
            passed = not phase.failed and p95 <= P95_LIMIT_MS and not grew
            if passed:
                break
        if not passed:
            break
        best = float(rate)
    return best, steps


def class_shares(requests) -> dict:
    shares: dict = {}
    for request in requests:
        shares[request.klass] = shares.get(request.klass, 0) + 1
    return {k: round(v / len(requests), 3) for k, v in sorted(shares.items())}


def info(requests, seconds, steps=None) -> dict:
    return {"warmup_calls_per_function": CLIMB_CALLS,
            "warmup_rate_rps": CLIMB_RATE, "fixed_rate_rps": FIXED_RATE,
            "fixed_rate_s": FIXED_SHARE * seconds,
            "ladder_rps": list(LADDER), "ladder_step_s": LADDER_STEP_SECONDS,
            "p95_limit_ms": P95_LIMIT_MS, "connections": CONNECTIONS,
            "sessions": SESSIONS, "outstanding_per_connection": OUTSTANDING,
            "fixed_rate_parts": PARTS,
            "saturation_s": SATURATE_SHARE * seconds,
            "saturation_bursts": PARTS + 1,
            "requests": len(requests),
            "class_shares": class_shares(requests),
            "ladder_steps": steps}


# -- the workload ----------------------------------------------------------------------


def booted(run_ctx, cpu: int, count: int) -> tuple:
    """Boot ``count`` servers one after the other, this process pinned to
    the servers' CPU meanwhile; returns the last server (the others are
    stopped) and the median boot time, each scaled by the speed of that
    CPU sampled just before and after it (the servers' CPU is saturated
    while they boot, so the spinner there has no samples)."""
    server, times, speed = None, [], HostSpeed()
    pin(cpu)
    try:
        for _ in range(count):
            if server is not None:
                server.stop()
                server = None
            index = speed.sample()
            server, start, end = boot(run_ctx, cpu)
            speed.sample()
            times.append((end - start) * speed.scale(index + 1, radius=1))
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return server, median(times)


def measure(server: Server, seed: int, seconds: float, counter,
            plant) -> tuple:
    """The fixed-rate phase in :data:`PARTS` parts, with a saturation
    burst before, between and after them; ``(requests, parts, bursts,
    seconds of one burst)``, ``bursts`` as ``[(requests completed, server
    CPU seconds, start, end)]``."""
    requests = phase_requests(seed, FIXED_RATE, FIXED_SHARE * seconds)
    size = len(requests) // PARTS
    burst_s = SATURATE_SHARE * seconds / (PARTS + 1)
    parts, bursts = [], []
    for index in range(PARTS + 1):
        burst = phase_requests(seed + 15485863 + index, BURST_RATE, burst_s)
        start = time.perf_counter()
        done, cpu = run_async(saturate(server, burst, burst_s, counter))
        bursts.append((done, cpu, start, start + burst_s))
        if index == PARTS:
            break
        part = requests[index * size:(index + 1) * size] \
            if index < PARTS - 1 else requests[index * size:]
        phase = run_async(drive(server.port, part, FIXED_RATE, plant=plant))
        counter.attempted += len(part)
        counter.failed += phase.failed
        parts.append(phase)
    return requests, parts, bursts, burst_s


def run(run_ctx, seed: int, seconds: float, spans, plant=None) -> dict:
    # the server runs on one CPU, the load generator on another when there
    # is one
    server_cpu, client_cpu = cpus()[0], cpus()[-1]
    spinners, server = Spinners(run_ctx, cpus()), None
    try:
        server, boot_s = booted(run_ctx, server_cpu, BOOTS)
        pin(client_cpu)
        counter = Counter()
        if spans.enabled:
            return trace_run(run_ctx, server, seed, seconds, spans, counter,
                             boot_s)
        warm_up(server.port, seed, counter)
        requests, parts, bursts, burst_s = measure(server, seed, seconds,
                                                   counter, plant)
        max_rps, steps = ladder(server.port, seed, counter,
                                LADDER_SHARE * seconds)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        spinners.stop()

    def speed(start: float, end: float) -> float:
        return spinners.scale(server_cpu, start, end)

    due_time = [v for phase in parts for v in phase.values()]
    scaled = [v * speed(due - SPEED_RADIUS, due + SPEED_RADIUS)
              for phase in parts for v, due in zip(phase.values(), phase.due)]
    late = [v for phase in parts for v in phase.late]
    server_ms = [v for phase in parts for v in phase.server_ms()]
    fraction = tail_fraction(len(due_time), TAIL)
    completed = sum(done for done, *_ in bursts)
    e2e = {
        "setup_s": metric(boot_s, "s"),
        "latency_ms_p50": metric(percentile(scaled, 0.5) * 1e3, "ms"),
        "latency_ms_tail": metric(percentile(scaled, fraction) * 1e3, "ms"),
        "throughput_per_s": metric(
            sum(done / speed(start, end) for done, _, start, end in bursts)
            / (burst_s * len(bursts)), "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    summary = {
        "host_speed": [round(speed(phase.due[0], phase.due[-1]), 4)
                       for phase in parts],
        "raw_throughput_per_s": round(completed / (burst_s * len(bursts)), 1),
        "req_p50_ms": round(percentile(due_time, 0.5) * 1e3, 3),
        "req_p95_ms": round(percentile(due_time, 0.95) * 1e3, 3),
        "req_p99_ms": round(percentile(due_time, 0.99) * 1e3, 3),
        "server_p50_ms": round(percentile(server_ms, 0.5), 3),
        "server_p99_ms": round(percentile(server_ms, 0.99), 3),
        "req_max_rps": max_rps,
        "burst_rps": [round(done / burst_s, 1) for done, *_ in bursts],
        "requests_per_server_cpu_s": round(
            completed / max(1e-9, sum(cpu for _, cpu, *_ in bursts)), 1),
        "tail_percentile": fraction,
        "loadgen_late_ms_p50": round(percentile(late, 0.5) * 1e3, 3),
        "loadgen_late_ms_p99": round(percentile(late, 0.99) * 1e3, 3),
    }
    return {"attempted": counter.attempted, "failed": counter.failed,
            "e2e": e2e, "summary": summary,
            "info": info(requests, seconds, steps)}


# -- traced run ----------------------------------------------------------------------------


def trace_run(run_ctx, server, seed, seconds, spans, counter, boot_s) -> dict:
    from repro.mexpr import parse

    port = server.port
    share = 0.3 * seconds
    events: dict = {}

    async def polled(coroutine):
        """``coroutine``'s result, the server's event log read meanwhile."""
        async def poll():
            while True:
                await asyncio.sleep(0.25)
                reply = (await call(port, [{"op": "events",
                                            "limit": 2000}]))[0]
                for record in reply.get("events", []):
                    key = (record.get("name"), record.get("start"),
                           record.get("request"))
                    events[key] = record
        poller = asyncio.create_task(poll())
        try:
            return await coroutine
        finally:
            poller.cancel()
            try:
                await poller
            except asyncio.CancelledError:
                pass

    async def traced() -> "Phase":
        with spans.span("serve.phase"):
            return await drive(port, requests, FIXED_RATE)

    # the warm-up's tier-ups give the compile times
    warm_up(port, seed, counter, wrap=polled)
    # untraced and traced phases at the same rate give the tracing overhead;
    # the untraced one also gives the request latencies
    plain_phase = run_async(drive(
        port, phase_requests(seed + 7919, FIXED_RATE, share), FIXED_RATE))
    requests = phase_requests(seed, FIXED_RATE, share)
    phase = run_async(polled(traced()))
    for outcome in (plain_phase, phase):
        counter.attempted += len(outcome.requests)
        counter.failed += outcome.failed

    # per-request timelines for a seeded sample
    rng = random.Random(seed)
    ids = [reply["request_id"] for reply in phase.reply
           if reply and reply.get("request_id")]
    sample = rng.sample(ids, min(len(ids), 60))
    with spans.span("serve.trace_fetch"):
        timelines = run_async(call(port, [{"op": "trace", "request_id": rid}
                                            for rid in sample]))
    self_ms, wait_ms, eval_ms = [], [], []
    for reply in timelines:
        by_name: dict = {}
        for record in reply.get("timeline", []):
            by_name.setdefault(record["name"], []).append(record)
        request = by_name.get("server.request", [None])[0]
        execute = by_name.get("session.execute", [None])[0]
        if request and execute and request.get("duration") is not None \
                and execute.get("duration") is not None:
            self_ms.append((request["duration"] - execute["duration"]) * 1e3)
            wait_ms.append((execute["start"] - request["start"]) * 1e3)
        evaluations = [r["duration"] for r in by_name.get("eval.evaluate", [])
                       if r.get("depth") == 1 and r.get("duration") is not None]
        if evaluations:
            eval_ms.append(sum(evaluations) * 1e3)

    metrics_reply, stats_reply = run_async(
        call(port, [{"op": "metrics"}, {"op": "stats"}]))
    counters = metrics_reply["metrics"]["counters"]
    stats = stats_reply["stats"]
    telemetry = stats.get("telemetry", {})

    # finding: Expand[(a + b)^k] cost per degree, interpreter only
    expand_s = {}
    for degree in range(4, 8):
        start = time.perf_counter()
        run_async(call(port, [{"expr": f"Expand[(a + b)^{degree}]",
                                 "session": "expand"}]))
        expand_s[degree] = time.perf_counter() - start
    growth = (expand_s[7] / expand_s[4]) ** (1 / 3)

    parse_us = []
    for request in requests[:300]:
        start = time.perf_counter()
        parse(request.expr)
        parse_us.append((time.perf_counter() - start) * 1e6)

    max_rps, steps = ladder(port, seed, counter, LADDER_SHARE * seconds)

    compile_ms = [r["duration"] * 1e3 for r in events.values()
                  if r.get("name") == "compile.function"
                  and r.get("duration") is not None]
    requests_served = max(1, counters.get("server.requests", 0))
    layers = {
        "req_p50_ms": percentile(plain_phase.values(), 0.5) * 1e3,
        "req_p99_ms": percentile(plain_phase.values(), 0.99) * 1e3,
        "req_max_rps": max_rps,
        "server.self_ms": median(self_ms),
        "server.queue_wait_ms": median(wait_ms),
        "engine.eval_ms": median(eval_ms),
        "engine.fixed_point_iterations":
            counters.get("eval.fixed_point_iterations", 0) / requests_served,
        "hotspot.promotions.template":
            counters.get("hotspot.promotions.template", 0),
        "hotspot.promotions.compiled":
            counters.get("hotspot.promotions.compiled", 0),
        "hotspot.invalidations": sum(
            1 for r in events.values() if r.get("name") == "tier.invalidate"),
        "hotspot.compile_ms": median(compile_ms),
        "hotspot.store_hits": counters.get("artifact.cache.hits", 0),
        "hotspot.store_misses": counters.get("artifact.cache.misses", 0),
        "observe.recorder_drops": telemetry.get("dropped_events", 0)
        + telemetry.get("dropped_requests", 0),
        "observe.overhead_frac": (
            percentile(phase.latencies(), 0.5)
            - percentile(plain_phase.latencies(), 0.5))
        / max(1e-9, percentile(plain_phase.latencies(), 0.5)),
        "loadgen.late_ms_p99": percentile(phase.late, 0.99) * 1e3,
        "mexpr.parse_us_request": median(parse_us),
        "setup.boot_ms": boot_s * 1e3,
    }
    for klass in ("sym", "hot", "def"):
        values = phase.latencies(klass)
        layers[f"req.{klass}.p50_ms"] = percentile(values, 0.5) * 1e3
        layers[f"req.{klass}.p99_ms"] = percentile(values, 0.99) * 1e3
    findings = {
        "expand_seconds_by_degree": {k: round(v, 4) for k, v in expand_s.items()},
        "expand_growth_per_degree": round(growth, 2),
    }
    return {"attempted": counter.attempted, "failed": counter.failed,
            "layers": layers, "findings": findings,
            "info": info(requests, seconds, steps)}
