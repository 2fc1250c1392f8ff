"""The ``kernels`` workload: Figure 2's seven kernels, compiled vs port.

Set-up compiles each kernel once with ``FunctionCompile``.  The timed
loop then makes passes over the seven kernels; in each pass every kernel
runs once compiled and once as its hand-written port (``ports.py``) on the
same seeded input, the order alternating between passes, so machine-speed
drift cancels in each interleaved pair.  No pipeline, store or server work
happens in the timed loop.
"""

from __future__ import annotations

import random
import time

import numpy

import ports
import sources
from common import Counter, HostSpeed, cpus, geomean, median, metric, \
    peak_rss_mb_self, percentile, pin, tail_fraction, timed
from sources import PRIME_TABLE, PRIMEQ_CONSTANTS

NAMES = ("fnv1a", "mandelbrot", "dot", "blur", "histogram", "primeq", "qsort")
#: set-ups per run (``setup_s`` is their median)
SETUPS = 9
#: the tail percentile (a run of 30 s makes about 350 passes on a quiet
#: host and about 150 on a slow one, still 15 beyond p90)
TAIL = 0.90

#: per-kernel input sizes: every port call takes at least 1 ms on the
#: reference host (see PORT_REF_MS)
SIZES = {
    "fnv1a": {"chars": 14000},
    "mandelbrot": {"grid_step": 0.2, "jitter": 0.05, "points": 88},
    "dot": {"n": 170},
    "blur": {"side": 90},
    "histogram": {"length": 24000},
    "primeq": {"limit": "16384 + 200..399"},
    "qsort": {"length": 1400},
}


def make_inputs(seed: int) -> dict:
    """Seeded inputs: ``name -> args`` (the same args go to both sides)."""
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 .,;!?"
    points = []
    for ix in range(11):
        for iy in range(8):
            points.append(complex(-1.0 + 0.2 * ix + rng.uniform(-0.05, 0.05),
                                  -1.0 + 0.2 * iy + rng.uniform(-0.05, 0.05)))
    n = SIZES["dot"]["n"]
    side = SIZES["blur"]["side"]
    return {
        "fnv1a": ("".join(rng.choice(alphabet)
                          for _ in range(SIZES["fnv1a"]["chars"])),),
        "mandelbrot": (points,),
        "dot": ([[rng.random() for _ in range(n)] for _ in range(n)],
                [[rng.random() for _ in range(n)] for _ in range(n)]),
        "blur": ([[rng.random() * 255.0 for _ in range(side)]
                  for _ in range(side)],),
        "histogram": ([rng.randrange(1 << 40)
                       for _ in range(SIZES["histogram"]["length"])],),
        "primeq": (16384 + rng.randrange(200, 400),),
        "qsort": ([rng.randrange(1 << 30)
                   for _ in range(SIZES["qsort"]["length"])], ports.less),
    }


#: each port's time on these inputs on the reference host (the one of
#: ``common.REFERENCE_S``), ms: the weight of its kernel in a pass
PORT_REF_MS = {"fnv1a": 1.24, "mandelbrot": 3.04, "dot": 1.23, "blur": 1.27,
               "histogram": 1.13, "primeq": 1.79, "qsort": 1.18}

PORTS = {
    "fnv1a": ports.fnv1a32,
    "mandelbrot": ports.mandelbrot_row,
    "dot": ports.dot,
    "blur": ports.blur,
    "histogram": ports.histogram,
    "primeq": lambda limit: ports.primeq_count(limit, PRIME_TABLE),
    "qsort": ports.qsort,
}


def plain(value):
    """A compiled result as plain Python data."""
    if hasattr(value, "to_nested"):
        return value.to_nested()
    return value


def same(name: str, got, expected) -> bool:
    got = plain(got)
    if name in ("dot", "blur"):
        try:
            return bool(numpy.allclose(numpy.asarray(got, dtype=float),
                                       numpy.asarray(expected, dtype=float),
                                       rtol=1e-12, atol=1e-9))
        except (TypeError, ValueError):
            return False
    return got == expected


def compile_kernel(name: str, **options):
    from repro.compiler import FunctionCompile

    source = getattr(sources, name.upper())
    if name == "primeq":
        return FunctionCompile(source, constants=PRIMEQ_CONSTANTS, **options)
    return FunctionCompile(source, **options)


def caller(name: str, compiled):
    """The call a user makes: Mandelbrot's kernel is per point."""
    if name == "mandelbrot":
        return lambda points: [compiled(p) for p in points]
    return compiled


def interleave(first, second, args, name, expected, counter, rounds=None,
               seconds=None, start=0):
    """Alternate calls of ``first`` and ``second`` on the same args, the
    order flipping every round (round ``start`` first); both outputs are
    checked.  Returns the two lists of seconds."""
    t_first, t_second = [], []
    deadline = time.perf_counter() + (seconds or 0.0)
    index = start
    rounds = None if rounds is None else start + rounds
    while (rounds is not None and index < rounds) or (
            rounds is None and time.perf_counter() < deadline):
        order = ((first, t_first), (second, t_second))
        if index % 2:
            order = order[::-1]
        for fn, sink in order:
            try:
                elapsed, result = timed(fn, *args)
            except Exception:
                counter.check(False)
                continue
            sink.append(elapsed)
            counter.check(same(name, result, expected))
        index += 1
    return t_first, t_second


def run(run_ctx, seed: int, seconds: float, spans, plant=None) -> dict:
    pin(cpus()[0])   # the host-speed samples run on the same CPU
    inputs = make_inputs(seed)
    expected = {name: PORTS[name](*inputs[name]) for name in NAMES}
    expected = {name: plain(v.tolist() if isinstance(v, numpy.ndarray) else v)
                for name, v in expected.items()}

    # set-up: compile the seven kernels, five times into fresh stores
    speed = HostSpeed()
    setup_times = []
    for _ in range(SETUPS):
        run_ctx.point_cache_at(run_ctx.fresh_dir("cache"))
        index = speed.sample()
        with spans.span("setup.compile"):
            elapsed, compiled = timed(
                lambda: {name: compile_kernel(name) for name in NAMES})
        speed.sample()
        setup_times.append(elapsed * speed.scale(index, radius=1))
    calls = {name: caller(name, compiled[name]) for name in NAMES}
    if plant is not None:
        calls = {name: plant.wrap(fn) for name, fn in calls.items()}

    counter = Counter()
    if spans.enabled:
        layers = trace_layers(inputs, expected, calls, compiled, seconds,
                              spans, counter)
        return {"attempted": counter.attempted, "failed": counter.failed,
                "layers": layers, "info": info(inputs)}

    # a pass's time is each compiled call's ratio to the port call paired
    # with it on the same input, times that port's time on the reference
    # host: the port, run a moment apart, gauges the host's speed
    raw, passes, pairs = [], [], {name: [] for name in NAMES}
    compiled_calls = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < 2 or index % 2:
        raw_time = ref_time = 0.0
        for name in NAMES:
            t_c, t_p = interleave(calls[name], PORTS[name], inputs[name], name,
                                  expected[name], counter, rounds=1,
                                  start=index)
            if t_c and t_p:
                pairs[name].append(t_c[0] / t_p[0])
                raw_time += t_c[0]
                ref_time += t_c[0] / t_p[0] * PORT_REF_MS[name] / 1e3
                compiled_calls += 1
        raw.append(raw_time)
        passes.append(ref_time)
        index += 1

    ratios = {name: median(pairs[name]) for name in NAMES}
    fraction = tail_fraction(len(passes), TAIL)
    e2e = {
        "setup_s": metric(median(setup_times), "s"),
        "latency_ms_p50": metric(median(passes) * 1e3, "ms"),
        "latency_ms_tail": metric(percentile(passes, fraction) * 1e3, "ms"),
        "throughput_per_s": metric(compiled_calls / sum(passes), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb_self(), "MB"),
    }
    summary = {f"vs_c.{name}": round(ratios[name], 3) for name in NAMES}
    summary["vs_c_geomean"] = round(geomean(ratios.values()), 3)
    summary["passes"] = len(passes)
    summary["tail_percentile"] = fraction
    summary["raw_latency_ms_p50"] = round(median(raw) * 1e3, 3)
    summary["host_speed"] = round(speed.scale(), 4)   # during set-up
    return {"attempted": counter.attempted, "failed": counter.failed,
            "e2e": e2e, "summary": summary, "info": info(inputs)}


def info(inputs) -> dict:
    return {"kernels": list(NAMES), "sizes": SIZES,
            "primeq_limit": inputs["primeq"][0]}


# -- traced run ---------------------------------------------------------------


def trace_layers(inputs, expected, calls, compiled, seconds, spans,
                 counter) -> dict:
    from repro.compiler import CompileToIR, FunctionCompile
    from repro.mexpr import parse
    from repro.template_jit import compile_template_function

    layers = {}
    share = seconds / 4.0
    per_kernel = share / len(NAMES)

    # compiled vs port, with spans around each call
    def spanned(label, fn):
        def call(*args):
            with spans.span(label):
                return fn(*args)
        return call

    ratios = {}
    for name in NAMES:
        t_c, t_p = interleave(spanned(f"compiled.{name}", calls[name]),
                              spanned(f"port.{name}", PORTS[name]),
                              inputs[name], name, expected[name], counter,
                              seconds=per_kernel)
        ratios[name] = median([c / p for c, p in zip(t_c, t_p)])
        layers[f"compiled.{name}.ms"] = median(t_c) * 1e3
        layers[f"vs_c.{name}"] = ratios[name]
    layers["kernels.vs_c_geomean"] = geomean(ratios.values())

    # tracing overhead: the same interleaved pairs without spans
    plain_ratio = []
    traced_ratio = []
    for name in ("fnv1a", "histogram"):
        t_plain, t_traced = interleave(
            calls[name], spanned(f"compiled.{name}", calls[name]),
            inputs[name], name, expected[name], counter, rounds=20)
        plain_ratio.append(median(t_plain))
        traced_ratio.append(median(t_traced))
    layers["observe.overhead_frac"] = (
        sum(traced_ratio) - sum(plain_ratio)) / sum(plain_ratio)

    # the call boundary on a minimal input
    probe = FunctionCompile('Function[{Typed[n, "MachineInteger"]}, n + 1]')
    batches = []
    for _ in range(50):
        start = time.perf_counter()
        for value in range(200):
            probe(value)
        batches.append((time.perf_counter() - start) / 200)
    layers["compiled.call_us"] = median(batches) * 1e6
    fallbacks = 0
    for fn in compiled.values():
        stats = fn.stats()
        fallbacks += sum(stats.failures.values()) + stats.interpreter_reruns
    layers["compiled.fallbacks"] = fallbacks

    # runtime: abort polls and copies, each switched off in turn
    for option, label in (("AbortHandling", "abort_share"),
                          ("CopyInsertion", "copy_share")):
        for name in NAMES:
            variant = caller(name, compile_kernel(name, **{option: False}))
            t_default, t_off = interleave(
                calls[name], variant, inputs[name], name, expected[name],
                counter, seconds=per_kernel / 2)
            layers[f"runtime.{label}.{name}"] = 1.0 - median(
                [off / on for on, off in zip(t_default, t_off)])

    # analyze: checks the dataflow facts removed, and the analysis time
    dataflow_s = 0.0
    for name in NAMES:
        constants = PRIMEQ_CONSTANTS if name == "primeq" else None
        program = CompileToIR(getattr(sources, name.upper()),
                              constants=constants)["program"]
        report = program.metadata.get("passReport", {})
        dataflow_s += report.get("dataflow", {}).get("seconds", 0.0)
        kinds = {"int64": 0, "bounds": 0, "checkpoints": 0}
        for function in program.functions.values():
            for instruction in function.instructions():
                why = instruction.properties.get("elided_check")
                if why == "int64-overflow":
                    kinds["int64"] += 1
                elif why in ("part-bounds", "part-positive"):
                    kinds["bounds"] += 1
            kinds["checkpoints"] += len(
                function.information.get("CoalescedHeaders", ()))
        for kind, count in kinds.items():
            layers[f"analyze.checks_elided.{kind}.{name}"] = count
    layers["analyze.dataflow_ms"] = dataflow_s * 1e3

    # template tier: stitch latency and generated-code speed vs the port
    stitch = []
    for name, (specs, body) in sources.TEMPLATE.items():
        with spans.span("template.stitch"):
            elapsed, template = timed(
                compile_template_function, parse(specs), parse(body))
        stitch.append(elapsed)
        args = template_args(name, inputs[name])
        run_template = (lambda points, t=template: [t(p) for p in points]) \
            if name == "mandelbrot" else template
        t_t, t_p = [], []
        for index in range(12):
            pair = ((run_template, args, t_t), (PORTS[name], inputs[name], t_p))
            for fn, fn_args, sink in (pair if index % 2 == 0 else pair[::-1]):
                elapsed, result = timed(fn, *fn_args)
                sink.append(elapsed)
                if fn is run_template:
                    counter.check(same_template(name, result, expected[name]))
        layers[f"template_jit.{name}.vs_c"] = median(
            [t / p for t, p in zip(t_t, t_p)])
    # the first stitch also pays the template tier's imports
    layers["template_jit.stitch_us"] = median(stitch[1:]) * 1e6
    layers["setup.compile_ms"] = median(spans.durations("setup.compile")) * 1e3
    return layers


def template_args(name, args):
    if name == "fnv1a":
        return (list(args[0].encode("utf-8")),)
    if name == "blur":
        image = args[0]
        flat = [value for row in image for value in row]
        return (flat, len(image), len(image[0]))
    if name == "primeq":
        return (args[0], PRIME_TABLE, list(ports.WITNESSES))
    return args


def same_template(name, got, expected) -> bool:
    if name == "blur":
        side = len(expected)
        got = plain(got)
        got = [got[y * side:(y + 1) * side] for y in range(side)]
    return same(name, got, expected)
