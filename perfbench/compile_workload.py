"""The ``compile`` workload: seeded draws compiled cold, then warm.

Each draw is one of the frozen sources (``sources.py``) with its local
names rewritten under the seed, so the compile work is the same but every
draw has its own artifact-cache key.  A draw is compiled cold (a store
miss, the full pipeline, then a put) and then warm (a store hit and a
restore); both results run on a seeded input and are checked against the
plain-Python oracle in ``ports.py``.  The store is a fresh directory that
set-up fills with a seeded few thousand unrelated entries, standing in
for a long-lived ``~/.cache/repro``.  After its warm compile a draw's
entry is evicted again, so every put meets the same number of entries
however many draws a run makes (a put's cost grows with that number).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import ports
import sources
from sources import PRIME_TABLE, PRIMEQ_CONSTANTS
from common import SRC, Counter, HostSpeed, cpus, median, metric, pin, \
    peak_rss_mb_self, percentile, tail_fraction, timed

MIN_DRAWS = 200
#: the tail percentile (ten samples beyond it at MIN_DRAWS)
TAIL = 0.95
#: fresh processes timed in set-up (``setup_s`` is their median)
SETUPS = 9
STORE_ENTRIES = 3000
WARMUP = 'Function[{Typed[q, "MachineInteger"]}, q * 2 + 1]'
#: pipeline passes reported by name in the traced run
PASSES = ("constant-propagation", "infer", "resolve", "dataflow",
          "checkpoint-coalescing", "lower", "macro-expansion", "cse")


# -- the store ------------------------------------------------------------------


def fill_store(root: str, count: int, seed: int) -> None:
    """Write ``count`` seeded 1-3 KB entries in the store's on-disk layout
    (``objects/<2 hex>/<sha256>.json``, schema-stamped, keyed by name)."""
    from repro.artifacts.store import ENTRY_SCHEMA

    rng = random.Random(seed)
    objects = os.path.join(root, "objects")
    for index in range(count):
        digest = hashlib.sha256(f"filler-{seed}-{index}".encode()).hexdigest()
        body = rng.randbytes(rng.randrange(500, 1500)).hex()
        entry = {"kind": "python", "main": f"filler{index}", "source": body,
                 "params": [], "result": None, "consts": [], "kexprs": [],
                 "twir": digest, "schema": ENTRY_SCHEMA, "key": digest}
        shard = os.path.join(objects, digest[:2])
        os.makedirs(shard, exist_ok=True)
        with open(os.path.join(shard, digest + ".json"), "w",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")))


def filler_key(seed: int, index: int) -> str:
    return hashlib.sha256(f"filler-{seed}-{index}".encode()).hexdigest()


def count_entries(root: str) -> int:
    total = 0
    for _, _, files in os.walk(os.path.join(root, "objects")):
        total += sum(1 for name in files if name.endswith(".json"))
    return total


# -- draws -------------------------------------------------------------------------


class Draw:
    def __init__(self, source, text, args, check):
        self.source = source
        self.text = text
        self.args = args
        self.check = check

    def options(self) -> dict:
        return {"constants": PRIMEQ_CONSTANTS} if self.source == "primeq" \
            else {}


def _approx(got, expected) -> bool:
    if hasattr(got, "to_nested"):
        got = got.to_nested()
    flat_got, flat_expected = _flatten(got), _flatten(expected)
    return len(flat_got) == len(flat_expected) and all(
        abs(a - b) <= 1e-9 * max(1.0, abs(b))
        for a, b in zip(flat_got, flat_expected))


def _flatten(value) -> list:
    if isinstance(value, list):
        return [x for item in value for x in _flatten(item)]
    return [value]


def _exact(expected):
    def check(got) -> bool:
        if hasattr(got, "to_nested"):
            got = got.to_nested()
        return got == expected
    return check


def make_input(name: str, rng: random.Random):
    """``(args, check)`` for one draw of source ``name``."""
    if name in ("fnv1a", "fnv1a64"):
        text = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz ")
                       for _ in range(rng.randrange(20, 60)))
        port = ports.fnv1a32 if name == "fnv1a" else ports.fnv1a64
        return (text,), _exact(port(text))
    if name in ("mandelbrot", "example_mandelbrot"):
        point = complex(rng.uniform(-1.5, 0.5), rng.uniform(-1.0, 1.0))
        return (point,), _exact(ports.mandelbrot_point(point))
    if name == "dot":
        a = [[rng.random() for _ in range(3)] for _ in range(3)]
        b = [[rng.random() for _ in range(3)] for _ in range(3)]
        expected = ports.dot_loops(a, b)
        return (a, b), lambda got: _approx(got, expected)
    if name == "blur":
        img = [[rng.random() * 255.0 for _ in range(6)] for _ in range(6)]
        expected = ports.blur(img)
        return (img,), lambda got: _approx(got, expected)
    if name == "histogram":
        data = [rng.randrange(1 << 20) for _ in range(50)]
        return (data,), _exact(ports.histogram(data))
    if name == "primeq":
        limit = rng.randrange(100, 1000)
        return (limit,), _exact(ports.primeq_count(limit, PRIME_TABLE))
    if name == "qsort":
        data = [rng.randrange(1000) for _ in range(30)]
        return (data, ports.less), _exact(sorted(data))
    if name in ("fib", "example_fib"):
        n = rng.randrange(0, 91)
        return (n,), _exact(ports.fib(n))
    if name == "random_walk":
        length = rng.randrange(3, 13)

        def check(got, length=length) -> bool:
            if hasattr(got, "to_nested"):
                got = got.to_nested()
            return ports.is_unit_walk(got, length)
        return (length,), check
    if name == "example_blur":
        h, w = rng.randrange(5, 9), rng.randrange(5, 9)
        img = [rng.random() for _ in range(h * w)]
        expected = ports.blur4_flat(img, h, w)
        return (img, h, w), lambda got: _approx(got, expected)
    raise ValueError(name)


def draws(seed: int):
    """The seeded, endless sequence of distinct draws.  Every block of
    ``len(SOURCES)`` draws holds each source once, in a seeded order, so
    the source mix (and with it the cost mix) is the same for every seed."""
    rng = random.Random(seed)
    taken: set = set()
    while True:
        block = list(sources.SOURCES)
        rng.shuffle(block)
        for source in block:
            yield draw_of(source, rng, taken)


def draw_of(source, rng: random.Random, taken: set) -> Draw:
    mapping = sources.fresh_names(rng, source.locals, taken)
    args, check = make_input(source.name, rng)
    return Draw(source.name, sources.rename(source.text, mapping), args, check)


def cache_key(draw: Draw):
    """The draw's artifact-cache key, as ``FunctionCompile`` derives it;
    None for a draw compiled with constants (never cached)."""
    from repro.artifacts import function_key
    from repro.compiler import CompiledCodeFunction, CompilerOptions
    from repro.mexpr import parse

    if draw.options():
        return None
    return function_key(parse(draw.text), CompilerOptions(), backend="python",
                        extra={"compiler": CompiledCodeFunction.COMPILER_VERSION})


def compile_and_check(draw: Draw, counter, plant):
    from repro.compiler import FunctionCompile

    try:
        elapsed, compiled = timed(
            lambda: FunctionCompile(draw.text, **draw.options()))
        result = compiled(*draw.args)
    except Exception:
        counter.check(False)
        return None
    if plant is not None:
        result = plant.maybe(result)
    counter.check(draw.check(result))
    return elapsed


# -- the workload --------------------------------------------------------------------


#: what a user pays before the first compile: a fresh interpreter imports
#: the compiler and compiles one function against the filled store
READY = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from repro.compiler import FunctionCompile; "
         "FunctionCompile(sys.argv[2])")


def setup(run_ctx, seed: int, spans) -> float:
    """Fill a fresh store, then time :data:`SETUPS` fresh processes getting
    ready to compile against it, each scaled by the host's speed around
    it; returns the median."""
    from repro.artifacts import ArtifactStore
    from repro.compiler import FunctionCompile

    root = run_ctx.fresh_dir("store")
    with spans.span("setup.fill_store"):
        fill_store(root, STORE_ENTRIES, seed)
    run_ctx.point_cache_at(root)
    if ArtifactStore(root).get(filler_key(seed, 0)) is None:
        raise RuntimeError("pre-filled store entries do not read back")
    speed, times = HostSpeed(), []
    for index in range(SETUPS):
        first = speed.sample()
        speed.sample()
        start = time.perf_counter()
        with spans.span("setup.ready"):
            subprocess.run([sys.executable, "-c", READY, SRC,
                            WARMUP.replace("q", f"q{index}")],
                           env=run_ctx.child_env(), check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append((time.perf_counter() - start)
                     * speed.scale(first + 1, radius=1))
    speed.sample()
    FunctionCompile(WARMUP)   # the same lazy set-up in this process
    return median(times)


def run(run_ctx, seed: int, seconds: float, spans, plant=None) -> dict:
    pin(cpus()[0])   # the host-speed samples run on the same CPU
    setup_s = setup(run_ctx, seed, spans)
    counter = Counter()
    if spans.enabled:
        return trace_run(run_ctx, seed, seconds, spans, counter, setup_s)

    from repro.artifacts import get_store

    # every draw samples the host's speed once; its times are scaled by the
    # samples of the draws around it
    speed, store = HostSpeed(), get_store()
    entries = count_entries(run_ctx.cache_dir)   # filler and set-up entries
    timings, mix = [], {}
    deadline = time.perf_counter() + seconds
    cpu_start, wall_start = time.thread_time(), time.perf_counter()
    for draw in draws(seed):
        if len(timings) >= MIN_DRAWS and time.perf_counter() >= deadline:
            break
        mix[draw.source] = mix.get(draw.source, 0) + 1
        sample = speed.sample()
        t_cold = compile_and_check(draw, counter, plant)
        t_warm = compile_and_check(draw, counter, plant)
        timings.append((sample, t_cold, t_warm))
        key = cache_key(draw)
        if key is not None:
            store.evict(key)
    cpu_share = (time.thread_time() - cpu_start) \
        / (time.perf_counter() - wall_start)
    if count_entries(run_ctx.cache_dir) != entries:
        raise RuntimeError(f"the store no longer holds {entries} entries "
                           "after the run: draws were not evicted")
    cold = [t * speed.scale(i) for i, t, _ in timings if t is not None]
    warm = [t * speed.scale(i) for i, _, t in timings if t is not None]

    fraction = tail_fraction(len(cold), TAIL)
    e2e = {
        "setup_s": metric(setup_s, "s"),
        "latency_ms_p50": metric(median(cold) * 1e3, "ms"),
        "latency_ms_tail": metric(percentile(cold, fraction) * 1e3, "ms"),
        "throughput_per_s": metric(
            (len(cold) + len(warm)) / (sum(cold) + sum(warm)), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb_self(), "MB"),
    }
    summary = {
        "compile_miss_ms_p50": median(cold) * 1e3,
        "compile_miss_ms_p95": percentile(cold, 0.95) * 1e3,
        "compile_hit_ms_p50": median(warm) * 1e3,
        "tail_percentile": fraction,
        "raw_compile_miss_ms_p50": median(
            [t for _, t, _ in timings if t is not None]) * 1e3,
        "host_speed": round(speed.scale(), 4),
        # thread CPU time over wall-clock time of the timed loop: below 1
        # the compiles waited (disk, locks) or the host stole time
        "loop_cpu_share": round(cpu_share, 4),
    }
    return {"attempted": counter.attempted, "failed": counter.failed,
            "e2e": e2e, "summary": summary,
            "info": info(len(timings), mix, entries)}


def info(draw_count: int, mix: dict, entries: int) -> dict:
    return {"draws": draw_count, "min_draws": MIN_DRAWS,
            "source_mix": dict(sorted(mix.items())),
            "prefilled_entries": STORE_ENTRIES,
            "store_entries_at_each_put": entries}


# -- traced run ----------------------------------------------------------------------


def trace_run(run_ctx, seed, seconds, spans, counter, setup_s) -> dict:
    from repro.artifacts import ArtifactStore, get_store
    from repro.compiler import CompileToAST, CompileToIR, FunctionCompile
    from repro.mexpr import parse

    # tracing overhead: two fresh draws of every source compiled cold, one
    # inside a span and one not, the order alternating
    rng, taken, ratios = random.Random(seed + 1), set(), []
    for index, source in enumerate(sources.SOURCES * 2):
        plain_draw, traced_draw = (draw_of(source, rng, taken)
                                   for _ in range(2))
        times = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                with spans.span("compile.cold"):
                    times[traced] = compile_and_check(traced_draw, counter,
                                                      None)
            else:
                times[traced] = compile_and_check(plain_draw, counter, None)
        if None not in times.values():
            ratios.append(times[True] / times[False])
        for draw in (plain_draw, traced_draw):
            key = cache_key(draw)
            if key is not None:
                get_store().evict(key)
    overhead = median(ratios) - 1.0

    store = get_store()
    stage = {"parse": [], "macro": [], "lower": [], "optimize": [],
             "codegen": [], "cold": [], "warm": [], "get": [], "put": []}
    passes = {name: 0.0 for name in PASSES}
    wir, twir = [], []
    warm_count = 0
    warm_missed: dict = {}
    mix: dict = {}
    deadline = time.perf_counter() + seconds
    count = 0
    for draw in draws(seed):
        if count >= 40 and time.perf_counter() >= deadline:
            break
        count += 1
        op = f"draw{count}"
        mix[draw.source] = mix.get(draw.source, 0) + 1
        constants = draw.options().get("constants")
        with spans.span("mexpr.parse", op):
            t_parse, _ = timed(parse, draw.text)
        with spans.span("compiler.macro", op):
            t_ast, _ = timed(CompileToAST, draw.text)
        with spans.span("compiler.lower", op):
            t_ir0, ir0 = timed(lambda: CompileToIR(
                draw.text, constants=constants, OptimizationLevel=0))
        with spans.span("compiler.optimize", op):
            t_ir, ir = timed(lambda: CompileToIR(draw.text,
                                                 constants=constants))
        os.environ["REPRO_ARTIFACT_CACHE"] = "off"
        try:
            with spans.span("compiler.codegen", op):
                t_fc, _ = timed(lambda: FunctionCompile(
                    draw.text, **draw.options()))
        finally:
            os.environ["REPRO_ARTIFACT_CACHE"] = run_ctx.cache_dir
        stage["parse"].append(t_parse)
        stage["macro"].append(t_ast)
        stage["lower"].append(max(0.0, t_ir0 - t_ast))
        stage["optimize"].append(max(0.0, t_ir - t_ir0))
        stage["codegen"].append(max(0.0, t_fc - t_ir))
        for name, record in ir["passReport"].items():
            base = name.split(":")[0]
            if base in passes:
                passes[base] += record.get("seconds", 0.0)
        wir.append(sum(1 for f in ir0["program"].functions.values()
                       for _ in f.instructions()))
        twir.append(sum(1 for f in ir["program"].functions.values()
                        for _ in f.instructions()))
        with spans.span("compile.cold", op):
            t_cold = compile_and_check(draw, counter, None)
        hits = store.stats["hits"]
        with spans.span("compile.warm", op):
            t_warm = compile_and_check(draw, counter, None)
        warm_count += 1
        if store.stats["hits"] == hits:
            warm_missed[draw.source] = warm_missed.get(draw.source, 0) + 1
        if t_cold is not None:
            stage["cold"].append(t_cold)
        if t_warm is not None:
            stage["warm"].append(t_warm)
        key = cache_key(draw)
        if key is not None:
            with spans.span("artifacts.get", op):
                t_get, entry = timed(store.get, key)
            if entry is not None:
                stage["get"].append(t_get)
                with spans.span("artifacts.put", op):
                    stage["put"].append(timed(store.put, key, entry)[0])
            store.evict(key)
    hit_ratio = 1.0 - sum(warm_missed.values()) / max(1, warm_count)

    # finding: put cost against store size
    empty = ArtifactStore(run_ctx.fresh_dir("empty"))
    sample = {"kind": "python", "source": "x" * 2000}
    empty_put = median([timed(empty.put, filler_key(-1, i), sample)[0]
                        for i in range(20)])

    layers = {
        "mexpr.parse_us": median(stage["parse"]) * 1e6,
        "compiler.macro_ms": median(stage["macro"]) * 1e3,
        "compiler.lower_ms": median(stage["lower"]) * 1e3,
        "compiler.optimize_ms": median(stage["optimize"]) * 1e3,
        "compiler.codegen_ms": median(stage["codegen"]) * 1e3,
        "compiler.ir_instrs.wir": median(wir),
        "compiler.ir_instrs.twir": median(twir),
        "compile.miss_ms_p50": median(stage["cold"]) * 1e3,
        "compile.hit_ms_p50": median(stage["warm"]) * 1e3,
        "artifacts.get_ms": median(stage["get"]) * 1e3,
        "artifacts.put_ms": median(stage["put"]) * 1e3,
        "artifacts.hit_ratio": hit_ratio,
        "artifacts.store_entries": count_entries(run_ctx.cache_dir),
        "observe.overhead_frac": overhead,
        "setup.ready_ms": setup_s * 1e3,
    }
    for name in PASSES:
        layers[f"compiler.pass.{name}_ms"] = passes[name] * 1e3 / count
    put_ms = median(stage["put"]) * 1e3
    findings = {
        "store_put_ms_empty": round(empty_put * 1e3, 3),
        "store_put_ms_filled": round(put_ms, 3),
        "store_put_growth": round(put_ms / (empty_put * 1e3), 1)
        if empty_put else None,
        "warm_compile_misses_by_source": warm_missed,
    }
    return {"attempted": counter.attempted, "failed": counter.failed,
            "layers": layers, "findings": findings,
            "info": info(count, mix, count_entries(run_ctx.cache_dir))}
