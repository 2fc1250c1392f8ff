"""The declarative benchmark registry: every workload in the repo as a
named :class:`BenchSpec`.

One table replaces eleven ad-hoc script entry points: the seven Figure-2
kernels (via :class:`~repro.benchsuite.harness.Figure2Harness`, checksum
verification included), the dispatch/tier-up microbenchmarks, the four §6
ablations, the §1 FindRoot auto-compile experiment, §5 compile time, and
the §2.2 soft-failure transcript.  Each spec declares

* ``suite`` — the group ``python -m repro bench --suite`` selects
  (``figure2``, ``dispatch``, ``evaluator``, ``ablations``, ``compiler``),
* ``artifact`` — which ``BENCH_*.json`` trajectory file its record joins,
* ``run`` — the measured workload, returning :class:`SpecResult`
  measurements built on :mod:`repro.perflab.stats`,
* ``probe`` — a small representative run executed *outside* the timed
  region under an active tracer, feeding the record's embedded
  ``repro.observe`` metrics snapshot and the per-benchmark Chrome trace,
* ``smoke`` — membership in the fast CI suite.

Specs verify their answers (tier checksums, known fib values, identical
roots) and record ``verified`` so a trajectory point that silently
computed garbage is distinguishable from a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.perflab import stats

SUITES = ("figure2", "dispatch", "evaluator", "ablations", "compiler",
          "server")


@dataclass(frozen=True)
class RunConfig:
    """One ``repro bench`` invocation's knobs."""

    scale: float
    repeats: int = 3
    warmup: int = 1
    trace_dir: Optional[str] = None


@dataclass
class SpecResult:
    measurements: dict
    meta: dict = field(default_factory=dict)
    verified: Optional[bool] = None


@dataclass(frozen=True)
class BenchSpec:
    name: str
    suite: str
    artifact: str
    title: str
    run: Callable[[RunConfig], SpecResult]
    probe: Optional[Callable[[RunConfig], None]] = None
    smoke: bool = False


# -- Figure 2 ---------------------------------------------------------------


def _figure2_run(name: str):
    def run(config: RunConfig) -> SpecResult:
        from repro.benchsuite import Figure2Harness

        harness = Figure2Harness(scale=config.scale,
                                 repeats=config.repeats,
                                 warmup=config.warmup)
        result = harness.run(name)  # _verify raises on checksum mismatch
        measurements: dict = {}
        meta: dict = {}
        for tier, tr in result.tiers.items():
            if tr.seconds is None:
                meta[f"{tier}_note"] = tr.note or "unsupported"
                continue
            if tr.sample is not None:
                measurements[f"{tier}_seconds"] = tr.sample.as_measurement()
            else:
                measurements[f"{tier}_seconds"] = stats.scalar(tr.seconds)
            if tr.note:
                meta[f"{tier}_note"] = tr.note
        c_sample = result.tiers.get("c_port")
        c_sample = c_sample.sample if c_sample is not None else None
        for tier in ("new", "bytecode"):
            tr = result.tiers.get(tier)
            if tr is None or tr.seconds is None:
                continue
            # pairwise repeat ratios keep real dispersion so the
            # comparator can widen its threshold on jittery arms
            if c_sample is not None and tr.sample is not None:
                ratio_m = stats.ratio_sample(
                    tr.sample, c_sample).as_measurement()
            else:
                ratio = result.ratio(tier)
                if ratio is None:
                    continue
                ratio_m = stats.scalar(ratio, unit="x")
            # both arms gate on their own; the quotient is informational
            ratio_m["gate"] = False
            measurements[f"{tier}_vs_c_ratio"] = ratio_m
        return SpecResult(measurements, meta, verified=True)

    return run


def _figure2_probe(name: str):
    def probe(config: RunConfig) -> None:
        from repro.benchsuite import programs, reference
        from repro.compiler import FunctionCompile

        source = getattr(programs, f"NEW_{name.upper()}")
        # the compile pipeline is the trace payload (pass:<name> spans)
        if name == "primeq":
            FunctionCompile(source, constants={
                "primeTable": reference.prime_sieve_bitmap(),
                "witnesses": programs.RM_WITNESSES,
            })
        else:
            FunctionCompile(source)

    return probe


# -- dispatch / tier-up ------------------------------------------------------


def _tierup_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import dispatch
    from repro.mexpr import parse

    warm, call, expected = dispatch.fib_workload(config.scale)
    interpreted = dispatch.fib_session(promote=False)
    promoted = dispatch.fib_session(promote=True)
    promoted.evaluate(parse(warm))  # cross the threshold before timing
    verified = (
        "fib" in promoted.hotspot.promoted
        and interpreted.evaluate(parse(call)).to_python() == expected
        and promoted.evaluate(parse(call)).to_python() == expected
    )
    call_expr = parse(call)
    s_interp, _ = stats.measure(interpreted.evaluate, call_expr,
                                repeats=config.repeats, warmup=0)
    s_prom, _ = stats.measure(promoted.evaluate, call_expr,
                              repeats=config.repeats, warmup=0, inner=5)
    factor = stats.ratio_sample(s_interp, s_prom).as_measurement(
        direction="higher")
    # the factor's denominator is a ~1ms region, so its value swings with
    # machine load while staying far above 1; both arms gate on their own
    factor["gate"] = False
    return SpecResult(
        {
            "interpreted_seconds": s_interp.as_measurement(),
            "promoted_seconds": s_prom.as_measurement(),
            "factor": factor,
        },
        meta={
            "workload": f"recursive-downvalue {call}",
            "promoted_tier": promoted.hotspot.promoted["fib"].tier_kind
            if "fib" in promoted.hotspot.promoted else None,
        },
        verified=verified,
    )


def _tierup_probe(config: RunConfig) -> None:
    from repro.benchsuite import dispatch
    from repro.mexpr import parse

    warm, _call, _ = dispatch.fib_workload(config.scale)
    session = dispatch.fib_session(promote=True)
    session.evaluate_protected(parse(warm))  # hotspot.promote span


def _orderless_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import dispatch
    from repro.engine import Evaluator
    from repro.mexpr import parse

    session = Evaluator()
    source = parse(dispatch.orderless_source())
    sample, _ = stats.measure(session.evaluate, source,
                              repeats=config.repeats,
                              warmup=config.warmup)
    return SpecResult({"seconds": sample.as_measurement()}, verified=True)


def _orderless_probe(config: RunConfig) -> None:
    from repro.benchsuite import dispatch
    from repro.engine import Evaluator
    from repro.mexpr import parse

    Evaluator().evaluate_protected(parse(dispatch.orderless_source(20)))


def _thousand_rule_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import dispatch
    from repro.mexpr import parse

    session = dispatch.ruletable_session()
    calls = [parse(f"table[{index}]") for index in range(0, 1000, 7)]
    expected = [index * index for index in range(0, 1000, 7)]

    def lookup_all():
        return [session.evaluate(call).to_python() for call in calls]

    sample, answers = stats.measure(lookup_all, repeats=config.repeats,
                                    warmup=config.warmup)
    return SpecResult({"seconds": sample.as_measurement()},
                      verified=answers == expected)


def _thousand_rule_probe(config: RunConfig) -> None:
    from repro.benchsuite import dispatch
    from repro.mexpr import parse

    session = dispatch.ruletable_session(rules=50)
    session.evaluate_protected(parse("table[7]"))  # dispatch-index counters


# -- §1: FindRoot auto-compilation ------------------------------------------


_FINDROOT = "FindRoot[Cos[x]*Exp[x] - x*x + Sin[3.0*x], {x, 0.5}]"


def _autocompile_run(config: RunConfig) -> SpecResult:
    from repro.compiler import disable_auto_compilation, enable_auto_compilation
    from repro.engine import Evaluator
    from repro.mexpr import full_form, parse

    program = parse(_FINDROOT)
    solves = max(2, config.repeats)

    interpreted = Evaluator()
    disable_auto_compilation(interpreted)
    compiled = Evaluator()
    enable_auto_compilation(compiled)
    root_interp = interpreted.evaluate(program)
    root_compiled = compiled.evaluate(program)  # warms the compile cache
    verified = full_form(root_interp) == full_form(root_compiled)

    def solve_many(session):
        for _ in range(solves):
            session.evaluate(program)

    s_interp, _ = stats.measure(solve_many, interpreted,
                                repeats=config.repeats, warmup=0)
    s_comp, _ = stats.measure(solve_many, compiled,
                              repeats=config.repeats, warmup=0)
    factor = stats.ratio_sample(s_interp, s_comp).as_measurement(
        direction="higher")
    factor["gate"] = False  # see dispatch.tierup — arms gate on their own
    return SpecResult(
        {
            "interpreted_seconds": s_interp.as_measurement(),
            "autocompiled_seconds": s_comp.as_measurement(),
            "factor": factor,
        },
        meta={"equation": _FINDROOT, "solves_per_repeat": solves},
        verified=verified,
    )


def _autocompile_probe(config: RunConfig) -> None:
    from repro.compiler import enable_auto_compilation
    from repro.engine import Evaluator
    from repro.mexpr import parse

    session = Evaluator()
    enable_auto_compilation(session)
    session.evaluate_protected(parse(_FINDROOT))


# -- §2.2: the soft-failure transcript --------------------------------------


_FIB_200 = 280571172992510140037611932413038677189525


def _soft_failure_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile
    from repro.engine import Evaluator

    session = Evaluator()
    fib = FunctionCompile(programs.ITERATIVE_FIB, evaluator=session)
    verified = (fib(90) == 2880067194370816120 and fib(200) == _FIB_200)
    s_machine, _ = stats.measure(fib, 90, repeats=config.repeats,
                                 warmup=config.warmup)
    s_fallback, _ = stats.measure(fib, 200, repeats=config.repeats,
                                  warmup=config.warmup)
    return SpecResult(
        {
            "machine_path_seconds": s_machine.as_measurement(),
            "fallback_path_seconds": s_fallback.as_measurement(),
        },
        meta={
            "transcript": "cfib[200] -> IntegerOverflow -> interpreter bignum",
            "interpreter_reruns": fib.stats().interpreter_reruns,
        },
        verified=verified,
    )


def _elision_speedup_run(config: RunConfig) -> SpecResult:
    """Dataflow check elision A/B (DESIGN.md §12): the same Figure-2 loop
    kernels compiled with ``ElideChecks`` on (default) vs off, on ≥2
    kernels.  The elided build drops overflow guards on proven counter
    arithmetic and bounds predicates on proven Part accesses."""
    from repro.benchsuite import data as workloads
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile

    sizes = workloads.figure2_sizes(config.scale)
    kernels = {
        "histogram": (
            programs.NEW_HISTOGRAM,
            workloads.histogram_data(sizes.histogram_length),
        ),
        "blur": (
            programs.NEW_BLUR,
            workloads.blur_image_nested(sizes.blur_side),
        ),
    }
    measurements: dict = {}
    speedups: dict = {}
    verified_kernels = 0
    for name, (source, argument) in kernels.items():
        elided = FunctionCompile(source)
        checked = FunctionCompile(
            source, ElideChecks=False, IndexCheckElision=False,
        )
        info = next(iter(elided.program.functions.values())).information
        elided_count = (
            info.get("OverflowChecksElided", 0)
            + info.get("IndexChecksElided", 0)
        )
        same = elided(argument).data == checked(argument).data
        s_elided, _ = stats.measure(elided, argument,
                                    repeats=config.repeats,
                                    warmup=config.warmup)
        s_checked, _ = stats.measure(checked, argument,
                                     repeats=config.repeats,
                                     warmup=config.warmup)
        speedup = stats.ratio_sample(s_checked, s_elided).as_measurement(
            direction="higher")
        # best-of ratios still swing with machine load; each arm gates on
        # its own seconds, the ratio is informational
        speedup["gate"] = False
        measurements[f"{name}_elided_seconds"] = s_elided.as_measurement()
        measurements[f"{name}_checked_seconds"] = s_checked.as_measurement()
        measurements[f"{name}_speedup"] = speedup
        speedups[name] = s_checked.best / s_elided.best
        if same and elided_count > 0 and speedups[name] > 1.0:
            verified_kernels += 1
    return SpecResult(
        measurements,
        meta={
            "speedups": speedups,
            "kernels_faster_when_elided": verified_kernels,
        },
        verified=verified_kernels >= 2,
    )


def _elision_speedup_probe(config: RunConfig) -> None:
    from repro.benchsuite import data as workloads
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile

    kernel = FunctionCompile(programs.NEW_HISTOGRAM)
    kernel(workloads.histogram_data(10_000))


def _soft_failure_probe(config: RunConfig) -> None:
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile
    from repro.engine import Evaluator

    fib = FunctionCompile(programs.ITERATIVE_FIB, evaluator=Evaluator())
    fib(200)  # the overflow + fallback event stream


# -- §6 ablations ------------------------------------------------------------


def _inlining_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import data as workloads
    from repro.benchsuite import programs, reference
    from repro.compiler import FunctionCompile

    sizes = workloads.figure2_sizes(config.scale)
    points = workloads.mandelbrot_points(max(sizes.mandel_resolution, 0.2))
    inlined = FunctionCompile(programs.NEW_MANDELBROT)
    no_inline = FunctionCompile(programs.NEW_MANDELBROT, InlinePolicy=None)

    def drive(kernel):
        return sum(kernel(point) for point in points)

    verified = (drive(inlined) == drive(no_inline)
                == drive(reference.mandelbrot_point))
    s_in, _ = stats.measure(drive, inlined, repeats=config.repeats,
                            warmup=config.warmup)
    s_out, _ = stats.measure(drive, no_inline, repeats=config.repeats,
                             warmup=config.warmup)
    return SpecResult(
        {
            "inlined_seconds": s_in.as_measurement(),
            "no_inline_seconds": s_out.as_measurement(),
        },
        meta={"no_inline_over_inlined": s_out.best / s_in.best,
              "paper": "10x slowdown for Mandelbrot without inlining"},
        verified=verified,
    )


def _abort_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import data as workloads
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile

    sizes = workloads.figure2_sizes(config.scale)
    data = workloads.histogram_data(sizes.histogram_length)
    checked = FunctionCompile(programs.NEW_HISTOGRAM)
    unchecked = FunctionCompile(programs.NEW_HISTOGRAM, AbortHandling=False)
    verified = checked(data).data == unchecked(data).data
    s_on, _ = stats.measure(checked, data, repeats=config.repeats,
                            warmup=config.warmup)
    s_off, _ = stats.measure(unchecked, data, repeats=config.repeats,
                             warmup=config.warmup)
    return SpecResult(
        {
            "abort_on_seconds": s_on.as_measurement(),
            "abort_off_seconds": s_off.as_measurement(),
        },
        meta={"abort_tax": s_on.best / s_off.best,
              "paper": "abort checking inhibits the tight histogram loop"},
        verified=verified,
    )


#: the abort-latency gate: an abort of a running compiled loop must raise
#: ``WolframAbort`` within this many seconds of the request, every time
ABORT_LATENCY_BOUND = 0.05


def _abort_latency_run(config: RunConfig) -> SpecResult:
    """Abort responsiveness (F3): seconds from ``request_abort`` to
    ``WolframAbort`` raised out of a compiled Figure-2 loop spinning on a
    worker thread.  The bound keeps a cheaper checkpoint from meaning a
    less responsive one."""
    import threading
    import time

    from repro.benchsuite import data as workloads
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile
    from repro.engine import Evaluator
    from repro.errors import WolframAbort

    # inputs long enough that a call loops for tens of milliseconds
    arms = {
        "fnv1a": (programs.NEW_FNV1A, workloads.fnv_string(400_000)),
        "histogram": (programs.NEW_HISTOGRAM,
                      workloads.histogram_data(400_000)),
    }
    rounds = max(5, config.repeats)
    measurements: dict = {}
    worst: dict = {}
    completed = 0
    for name, (source, argument) in arms.items():
        evaluator = Evaluator()
        kernel = FunctionCompile(source, evaluator=evaluator)
        # argument unpacking is not abortable: request each abort between
        # 55% and 80% of an unaborted call, when the loop is running
        full = stats.best_of(kernel, argument, repeats=1)
        latencies = []
        for index in range(rounds):
            outcome: dict = {}
            started = threading.Event()

            def call():
                started.set()
                try:
                    kernel(argument)
                except WolframAbort:
                    outcome["raised"] = time.perf_counter()

            worker = threading.Thread(target=call, daemon=True)
            worker.start()
            started.wait()
            time.sleep(full * (0.55 + 0.25 * index / rounds))
            requested = time.perf_counter()
            evaluator.request_abort()
            worker.join()
            evaluator.clear_abort()
            if "raised" in outcome:
                latencies.append(outcome["raised"] - requested)
            else:  # the call finished first: no abort to time
                completed += 1
        sample = stats.Sample(tuple(latencies))
        measurement = sample.as_measurement()
        # scheduler-bound and jittery: the bound below is the gate
        measurement["gate"] = False
        measurements[f"{name}_abort_latency_seconds"] = measurement
        worst[name] = max(latencies) if latencies else None
    return SpecResult(
        measurements,
        meta={
            "worst_seconds": worst,
            "calls_finished_unaborted": completed,
            "gate": f"every abort raised within {ABORT_LATENCY_BOUND} s",
        },
        verified=completed == 0 and all(
            value is not None and value < ABORT_LATENCY_BOUND
            for value in worst.values()),
    )


def _constants_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import data as workloads
    from repro.benchsuite import programs, reference
    from repro.compiler import FunctionCompile

    sizes = workloads.figure2_sizes(config.scale)
    limit = min(sizes.primeq_limit, 20_000)
    table = reference.prime_sieve_bitmap()

    def build(handling):
        return FunctionCompile(
            programs.NEW_PRIMEQ,
            constants={"primeTable": table,
                       "witnesses": programs.RM_WITNESSES},
            ConstantArrayHandling=handling,
        )

    hoisted, naive = build("hoisted"), build("naive")
    verified = hoisted(limit) == naive(limit)
    s_hoisted, _ = stats.measure(hoisted, limit, repeats=config.repeats,
                                 warmup=config.warmup)
    s_naive, _ = stats.measure(naive, limit, repeats=config.repeats,
                               warmup=config.warmup)
    return SpecResult(
        {
            "hoisted_seconds": s_hoisted.as_measurement(),
            "naive_seconds": s_naive.as_measurement(),
        },
        meta={"naive_over_hoisted": s_naive.best / s_hoisted.best,
              "paper": "1.5x degradation from constant-array handling"},
        verified=verified,
    )


def _copy_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import data as workloads
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile
    from repro.runtime import PackedArray

    sizes = workloads.figure2_sizes(config.scale)
    data = workloads.presorted_list(sizes.qsort_length)

    def less(a, b):
        return a < b

    with_copy = FunctionCompile(programs.NEW_QSORT)
    in_place = FunctionCompile(programs.NEW_QSORT, CopyInsertion=False,
                               ArgumentAlias=True)
    probe_input = list(data)
    with_copy(probe_input, less)
    verified = probe_input == data  # the F5 copy left the input untouched

    s_copy, _ = stats.measure(with_copy, data, less,
                              repeats=config.repeats, warmup=config.warmup)

    def run_in_place():
        packed = PackedArray.from_nested(list(data), "Integer64")
        return in_place(packed, less)

    s_in_place, _ = stats.measure(run_in_place, repeats=config.repeats,
                                  warmup=config.warmup)
    return SpecResult(
        {
            "with_copy_seconds": s_copy.as_measurement(),
            "in_place_seconds": s_in_place.as_measurement(),
        },
        meta={"copy_over_in_place": s_copy.best / s_in_place.best,
              "paper": "QSort's 1.2x-over-C is the F5 mutability copy"},
        verified=verified,
    )


# -- §5: compile time --------------------------------------------------------


def _compile_time_run(config: RunConfig) -> SpecResult:
    from repro.benchsuite import programs, reference
    from repro.bytecode import compile_function
    from repro.compiler import FunctionCompile
    from repro.mexpr import parse

    sources = {
        "fnv1a": programs.NEW_FNV1A,
        "mandelbrot": programs.NEW_MANDELBROT,
        "dot": programs.NEW_DOT,
        "blur": programs.NEW_BLUR,
        "histogram": programs.NEW_HISTOGRAM,
        "qsort": programs.NEW_QSORT,
    }
    measurements: dict = {}
    for name, source in sources.items():
        sample, compiled = stats.measure(FunctionCompile, source,
                                         repeats=config.repeats, warmup=0)
        assert compiled is not None
        measurements[f"{name}_seconds"] = sample.as_measurement()

    table = reference.prime_sieve_bitmap()
    sample, _ = stats.measure(
        lambda: FunctionCompile(
            programs.NEW_PRIMEQ,
            constants={"primeTable": table,
                       "witnesses": programs.RM_WITNESSES},
        ),
        repeats=max(1, config.repeats - 1), warmup=0,
    )
    measurements["primeq_seconds"] = sample.as_measurement()

    specs = parse(programs.BYTECODE_HISTOGRAM_SPECS)
    body = parse(programs.BYTECODE_HISTOGRAM_BODY)
    sample, _ = stats.measure(lambda: compile_function(specs, body),
                              repeats=config.repeats, warmup=0)
    measurements["bytecode_histogram_seconds"] = sample.as_measurement()
    return SpecResult(
        measurements,
        meta={"paper": "§5: the suite measures compilation time and "
                       "time to run specific passes"},
        verified=True,
    )


def _compile_time_probe(config: RunConfig) -> None:
    from repro.benchsuite import programs
    from repro.compiler import FunctionCompile

    FunctionCompile(programs.NEW_FNV1A)  # pipeline.pass.<name> histograms


# -- template-JIT baseline: tier-up latency and steady state -----------------


#: Figure-2 kernels with a constant-free bytecode lowering — the common
#: subset all three compilers accept from the same specs/body pair
_TEMPLATE_KERNELS = ("fnv1a", "mandelbrot", "histogram", "blur")


def _template_sources(name: str):
    from repro.benchsuite import programs
    from repro.mexpr import parse

    specs = parse(getattr(programs, f"BYTECODE_{name.upper()}_SPECS"))
    body = parse(getattr(programs, f"BYTECODE_{name.upper()}_BODY"))
    return specs, body, getattr(programs, f"NEW_{name.upper()}")


def _template_latency_run(config: RunConfig) -> SpecResult:
    """Tier-up latency: the template stitcher's single linear pass vs the
    full ``FunctionCompile`` pipeline, per kernel.  ``verified`` asserts
    the baseline tier's whole reason to exist — compile latency at least
    10x below the optimizing pipeline on every kernel."""
    from repro.compiler import FunctionCompile
    from repro.template_jit import compile_template_function

    measurements: dict = {}
    ratios: dict = {}
    for name in _TEMPLATE_KERNELS:
        specs, body, new_source = _template_sources(name)
        s_template, artifact = stats.measure(
            compile_template_function, specs, body,
            repeats=config.repeats, warmup=1, inner=5,
        )
        s_full, compiled = stats.measure(
            FunctionCompile, new_source,
            repeats=config.repeats, warmup=0,
        )
        assert artifact is not None and compiled is not None
        measurements[f"{name}_template_seconds"] = (
            s_template.as_measurement()
        )
        full = s_full.as_measurement()
        full["gate"] = False  # compiler.compile_time owns this trajectory
        measurements[f"{name}_full_seconds"] = full
        ratio = stats.ratio_sample(s_full, s_template).as_measurement(
            direction="higher")
        ratio["gate"] = False  # the quotient of two gated arms
        measurements[f"{name}_latency_ratio"] = ratio
        ratios[name] = s_full.best / s_template.best
    return SpecResult(
        measurements,
        meta={
            "kernels": list(_TEMPLATE_KERNELS),
            "latency_ratios": {k: round(v, 1) for k, v in ratios.items()},
            "gate": "template compile latency >= 10x below full pipeline",
        },
        verified=all(value >= 10.0 for value in ratios.values()),
    )


def _template_latency_probe(config: RunConfig) -> None:
    from repro.template_jit import compile_template_function

    specs, body, _ = _template_sources("fnv1a")
    compile_template_function(specs, body)  # template.compile span


def _template_throughput_run(config: RunConfig) -> SpecResult:
    """Steady-state quality of the stitched code: the template tier must
    beat the bytecode interpreter on the Figure-2 kernels it covers (the
    rung would be pointless below it), while agreeing on every answer."""
    from repro.benchsuite import data as workloads
    from repro.bytecode import compile_function
    from repro.template_jit import compile_template_function

    sizes = workloads.figure2_sizes(config.scale)
    codes = list(workloads.fnv_string(sizes.fnv_length).encode("utf-8"))
    histogram = workloads.histogram_data(sizes.histogram_length)
    points = workloads.mandelbrot_points(sizes.mandel_resolution)

    def drive_mandelbrot(kernel):
        return sum(kernel(point) for point in points)

    arms = {
        "fnv1a": lambda kernel: kernel(codes),
        "histogram": lambda kernel: kernel(histogram),
        "mandelbrot": drive_mandelbrot,
    }
    measurements: dict = {}
    verified = True
    speedups: dict = {}
    for name, drive in arms.items():
        specs, body, _ = _template_sources(name)
        template = compile_template_function(specs, body)
        bytecode = compile_function(specs, body)
        verified = verified and drive(template) == drive(bytecode)
        s_template, _ = stats.measure(drive, template,
                                      repeats=config.repeats,
                                      warmup=config.warmup)
        s_bytecode, _ = stats.measure(drive, bytecode,
                                      repeats=config.repeats,
                                      warmup=config.warmup)
        measurements[f"{name}_template_seconds"] = (
            s_template.as_measurement()
        )
        bc = s_bytecode.as_measurement()
        bc["gate"] = False  # figure2.<name> owns the VM trajectory
        measurements[f"{name}_bytecode_seconds"] = bc
        factor = stats.ratio_sample(s_bytecode, s_template).as_measurement(
            direction="higher")
        factor["gate"] = False
        measurements[f"{name}_speedup_over_vm"] = factor
        speedups[name] = s_bytecode.best / s_template.best
        verified = verified and speedups[name] > 1.0
    return SpecResult(
        measurements,
        meta={
            "speedups_over_vm": {k: round(v, 2)
                                 for k, v in speedups.items()},
            "gate": "stitched code beats the bytecode interpreter",
        },
        verified=verified,
    )


# -- AOT warm images: cold vs warm server boot --------------------------------


#: the measured prelude — mirrors examples/preludes/arith.wl, inlined so
#: the spec does not depend on the working directory
_AOT_PRELUDE = (
    "fib[n_Integer] := If[n < 2, n, fib[n - 1] + fib[n - 2]]",
    "tri[n_Integer] := Quotient[n * (n + 1), 2]",
    "sq[x_Integer] := x * x",
    "hyp[a_Real, b_Real] := Sqrt[a * a + b * b]",
)


def _aot_warm_boot_run(config: RunConfig) -> SpecResult:
    """Cold vs warm server boot: building a base image and promoting the
    prelude's definitions to the compiled tier, with (warm) and without
    (cold) the AOT image's embedded artifacts.  ``verified`` asserts the
    whole point of the tentpole — a warm boot must beat a cold one — and
    that both boots compute identical answers from the compiled tier."""
    from repro.artifacts import aot
    from repro.artifacts.store import activate_store, active_override
    from repro.mexpr import parse

    entry_store = active_override()
    try:
        manifest = aot.build_image(_AOT_PRELUDE)

        def boot_cold():
            _, evaluator = aot.boot_cold(manifest)
            return evaluator

        def boot_warm():
            _, evaluator = aot.boot_warm(manifest)
            return evaluator

        s_cold, cold_evaluator = stats.measure(
            boot_cold, repeats=config.repeats, warmup=0)
        s_warm, warm_evaluator = stats.measure(
            boot_warm, repeats=config.repeats, warmup=1)
        call = parse("fib[18]")
        verified = (
            len(manifest["preload"]) == len(_AOT_PRELUDE)
            and cold_evaluator.evaluate(call).to_python() == 2584
            and warm_evaluator.evaluate(call).to_python() == 2584
            and warm_evaluator.hotspot.promoted["fib"].tier_kind
            == "compiled"
            and s_warm.best < s_cold.best
        )
    finally:
        activate_store(entry_store)
    speedup = stats.ratio_sample(s_cold, s_warm).as_measurement(
        direction="higher")
    speedup["gate"] = False  # the quotient of two gated arms
    return SpecResult(
        {
            "cold_boot_seconds": s_cold.as_measurement(),
            "warm_boot_seconds": s_warm.as_measurement(),
            "warm_speedup": speedup,
        },
        meta={
            "definitions": len(_AOT_PRELUDE),
            "preloaded": manifest["preload"],
            "image_objects": len(manifest["objects"]),
            "gate": "warm boot strictly beats cold boot",
        },
        verified=verified,
    )


def _aot_warm_boot_probe(config: RunConfig) -> None:
    from repro.artifacts import aot
    from repro.artifacts.store import activate_store, active_override

    entry_store = active_override()
    try:
        # artifact.cache get/put spans and counters under the tracer
        manifest = aot.build_image(_AOT_PRELUDE[:1])
        aot.boot_warm(manifest)
    finally:
        activate_store(entry_store)


# -- the engine server under load --------------------------------------------


def _server_load_run(config: RunConfig) -> SpecResult:
    """The multi-session server's latency distribution and overload
    behaviour: a healthy run measures p50/p99 and throughput across
    ``config.repeats`` full load-generator passes, then a deliberately
    starved configuration (one worker, a two-deep queue) verifies the
    admission controller sheds rather than queues without bound."""
    from repro.server import LoadSpec, ServerConfig, run_load

    requests = max(5, int(50 * config.scale))
    spec = LoadSpec(clients=6, requests_per_client=requests, seed=7)
    p50s, p99s, rates = [], [], []
    hist_p50s, hist_p99s = [], []
    all_ok = True
    for repeat in range(max(1, config.repeats)):
        report, _stats = run_load(config=ServerConfig(), spec=spec)
        all_ok = all_ok and report.failed == 0 and report.shed == 0
        p50s.append(report.p50)
        p99s.append(report.p99)
        rates.append(report.throughput)
        if report.hist_p50 is not None:
            hist_p50s.append(report.hist_p50)
        if report.hist_p99 is not None:
            hist_p99s.append(report.hist_p99)

    overload = ServerConfig(max_concurrent=1, queue_limit=2)
    overload_report, _stats = run_load(
        config=overload,
        spec=LoadSpec(clients=12, requests_per_client=requests, seed=7),
    )
    shed_engaged = overload_report.shed > 0
    shed_bounded = overload_report.shed_rate < 1.0

    p99 = stats.Sample(samples=tuple(p99s)).as_measurement()
    p99["gate"] = False  # the tail swings with scheduler jitter
    throughput = stats.Sample(
        samples=tuple(rates), unit="rps").as_measurement(direction="higher")
    throughput["gate"] = False  # the reciprocal surface of the latencies
    shed = stats.scalar(overload_report.shed_rate, unit="fraction")
    shed["gate"] = False  # informational: proves shedding engages
    measurements = {
        "latency_p50_seconds": stats.Sample(
            samples=tuple(p50s)).as_measurement(),
        "latency_p99_seconds": p99,
        "throughput_rps": throughput,
        "overload_shed_rate": shed,
    }
    # the flight recorder's log-bucket estimates of the same quantiles:
    # tracked ungated so drift between the histogram and the exact
    # nearest-rank values is visible in the trajectory, never a CI failure
    for key, samples in (("latency_hist_p50_seconds", hist_p50s),
                         ("latency_hist_p99_seconds", hist_p99s)):
        if samples:
            row = stats.Sample(samples=tuple(samples)).as_measurement()
            row["gate"] = False
            measurements[key] = row
    return SpecResult(
        measurements,
        meta={
            "clients": spec.clients,
            "requests_per_client": requests,
            "overload": "1 worker, queue_limit 2, 12 clients",
        },
        verified=all_ok and shed_engaged and shed_bounded,
    )


def _server_load_probe(config: RunConfig) -> None:
    from repro.server import LoadSpec, ServerConfig, run_load

    # a small pass under the tracer: server.request spans, queue-depth
    # histograms, admission counters
    run_load(config=ServerConfig(max_concurrent=2, queue_limit=4),
             spec=LoadSpec(clients=3, requests_per_client=3, seed=7))


# -- the table ---------------------------------------------------------------


def _specs() -> tuple:
    figure2 = tuple(
        BenchSpec(
            name=f"figure2.{name}",
            suite="figure2",
            artifact="figure2",
            title=f"Figure 2 {name} (all tiers, checksum-verified)",
            run=_figure2_run(name),
            probe=_figure2_probe(name),
            smoke=name in ("fnv1a", "dot"),
        )
        for name in ("fnv1a", "mandelbrot", "dot", "blur", "histogram",
                     "primeq", "qsort")
    )
    return figure2 + (
        BenchSpec("dispatch.tierup", "dispatch", "evaluator",
                  "profile-guided tier-up (recursive fib)",
                  _tierup_run, _tierup_probe, smoke=True),
        BenchSpec("dispatch.orderless_plus", "dispatch", "evaluator",
                  "deep Orderless Plus canonicalization",
                  _orderless_run, _orderless_probe),
        BenchSpec("dispatch.thousand_rule", "dispatch", "evaluator",
                  "1000-rule DownValue dispatch",
                  _thousand_rule_run, _thousand_rule_probe),
        BenchSpec("evaluator.autocompile_findroot", "evaluator", "evaluator",
                  "FindRoot auto-compilation speedup (§1)",
                  _autocompile_run, _autocompile_probe),
        BenchSpec("evaluator.soft_failure", "evaluator", "evaluator",
                  "soft-failure fallback cost (§2.2 cfib transcript)",
                  _soft_failure_run, _soft_failure_probe, smoke=True),
        BenchSpec("ablation.inlining", "ablations", "compiler",
                  "function-inlining ablation (Mandelbrot, §6)",
                  _inlining_run),
        BenchSpec("ablation.abort", "ablations", "compiler",
                  "abort-check ablation (Histogram, §6)",
                  _abort_run),
        BenchSpec("ablation.abort_latency", "ablations", "compiler",
                  "abort request -> WolframAbort in compiled FNV1a and "
                  f"Histogram loops (gate: <= {ABORT_LATENCY_BOUND} s)",
                  _abort_latency_run),
        BenchSpec("ablation.constants", "ablations", "compiler",
                  "constant-array handling ablation (PrimeQ, §6)",
                  _constants_run),
        BenchSpec("ablation.copy", "ablations", "compiler",
                  "mutability-copy ablation (QSort, §6)",
                  _copy_run),
        BenchSpec("analysis.elision_speedup", "compiler", "compiler",
                  "dataflow check-elision A/B on Figure-2 loop kernels "
                  "(gate: faster when elided on >=2 kernels)",
                  _elision_speedup_run, _elision_speedup_probe, smoke=True),
        BenchSpec("compiler.compile_time", "compiler", "compiler",
                  "compile time per Figure-2 program (§5)",
                  _compile_time_run, _compile_time_probe, smoke=True),
        BenchSpec("compiler.template_latency", "compiler", "compiler",
                  "tier-up latency: template stitch vs full pipeline "
                  "(gate: >=10x faster)",
                  _template_latency_run, _template_latency_probe,
                  smoke=True),
        BenchSpec("compiler.template_throughput", "compiler", "compiler",
                  "steady-state template code vs the bytecode VM "
                  "(Figure-2 kernels)",
                  _template_throughput_run, smoke=True),
        BenchSpec("aot.warm_boot", "compiler", "compiler",
                  "AOT warm image: cold vs warm server boot "
                  "(gate: warm < cold)",
                  _aot_warm_boot_run, _aot_warm_boot_probe, smoke=True),
        BenchSpec("server.loadgen", "server", "server",
                  "multi-session server under load (p50/p99, shed rate)",
                  _server_load_run, _server_load_probe),
    )


ALL_SPECS = _specs()


def resolve_specs(suite: Optional[str] = None,
                  name_filter: Optional[str] = None) -> list:
    """The specs a ``--suite``/``--filter`` selection names.

    ``suite`` may be a registered suite, ``smoke`` (the fast CI subset,
    spanning all three artifacts), or ``all``/``None``.
    """
    if suite in (None, "all"):
        selected = list(ALL_SPECS)
    elif suite == "smoke":
        selected = [spec for spec in ALL_SPECS if spec.smoke]
    elif suite in SUITES:
        selected = [spec for spec in ALL_SPECS if spec.suite == suite]
    else:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of "
            f"{sorted(SUITES + ('smoke', 'all'))}"
        )
    if name_filter:
        selected = [spec for spec in selected if name_filter in spec.name]
    return selected
