"""``TemplateCompiledFunction``: the baseline tier's callable artifact.

Mirrors the runtime contract of the other two compiled artifacts
(:class:`repro.compiler.api.CompiledCodeFunction`,
:class:`repro.bytecode.compiled_function.CompiledFunction`):

* argument type checking at the boundary (and copy-on-read for tensor
  inputs — stitched code mutates plain Python lists in place);
* soft failure (F2): a runtime error records against the breaker and
  re-evaluates through the hosting interpreter;
* abortability (F3) and guard budgets via the stitched interrupt-cell
  tests: a call binds its hosting evaluator to the calling thread, so the
  host's abort raises that thread's cell;
* tier governance: the breaker starts at :data:`Tier.TEMPLATE` and walks
  the ladder template → bytecode → interpreter.  On first demotion the
  artifact lazily compiles a bytecode fallback from the same source body —
  paying the (heavier) bytecode compile only when the cheap tier has
  already proven unreliable.  Recursive bodies skip the bytecode rung
  (the VM has no self-call) and land on the interpreter directly.

Fault injection: every call fires the ``template.call`` site, so chaos
tests can drive the demotion ladder deterministically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    GUARD_EXCEPTIONS,
    WolframAbort,
    WolframRuntimeError,
)
from repro.mexpr.expr import MExpr
from repro.mexpr.symbols import to_mexpr
from repro.runtime.guard import CircuitBreaker, FallbackStats, Tier
from repro.runtime.interrupt import bind, unbind
from repro.testing import faults as _faults

#: Python-level errors stitched code can raise when the one-pass kind
#: propagation was too optimistic; classified as soft failures so the
#: breaker demotes instead of the call hard-crashing
_PYTHON_SOFT_ERRORS = (
    TypeError, ValueError, ZeroDivisionError, OverflowError, IndexError,
    AttributeError, UnboundLocalError, RecursionError,
)


@dataclass
class TemplateCompiledFunction:
    name: str
    argument_types: list[str]
    argument_names: list[str]
    #: the stitched Python source (inspectable; tests assert against it)
    source: str
    source_body: MExpr
    function: object
    #: set when hosted inside an engine session
    evaluator: Optional[object] = field(default=None, repr=False)
    recursive: bool = False
    #: wall-clock cost of the stitch+compile, set by ``compile_template``
    compile_seconds: float = 0.0
    fallback_stats: FallbackStats = field(
        default_factory=FallbackStats, repr=False
    )
    breaker: CircuitBreaker = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.breaker is None:
            self.breaker = CircuitBreaker(self.name, start=Tier.TEMPLATE)
        self._bytecode = None
        self._bytecode_failed = False
        self._bytecode_lock = threading.Lock()

    # -- inspection --------------------------------------------------------

    def stats(self) -> FallbackStats:
        self.fallback_stats.current_tier = self.breaker.tier.value
        return self.fallback_stats

    def reset_tiers(self) -> None:
        self.breaker.reset()
        self.fallback_stats.reset()

    # -- execution ---------------------------------------------------------

    def __call__(self, *arguments):
        tier = self.breaker.tier
        if tier is Tier.INTERPRETER:
            return self._interpret(arguments)
        if tier is not Tier.TEMPLATE:
            return self._call_bytecode(arguments)
        checked = self._check_arguments(arguments)
        self.fallback_stats.record_call(Tier.TEMPLATE)
        try:
            # inside the soft-failure channel so injected runtime faults
            # count against the breaker and walk the demotion ladder
            if _faults._INJECTOR is not None:
                _faults.fire("template.call")
            if self.evaluator is None:
                return self.function(*checked)
            bound = bind(self.evaluator)
            try:
                return self.function(*checked)
            finally:
                unbind(bound)
        except WolframAbort:
            raise
        except GUARD_EXCEPTIONS as error:
            # an expired deadline/budget is not the tier's fault: record,
            # never retry, never trip the breaker
            self.fallback_stats.record_failure(Tier.TEMPLATE, error.kind)
            raise
        except WolframRuntimeError as error:
            self.fallback_stats.record_failure(Tier.TEMPLATE, error.kind)
            self.breaker.record_failure(Tier.TEMPLATE, error.kind, str(error))
            return self._fallback(arguments, error)
        except _PYTHON_SOFT_ERRORS as error:
            wrapped = WolframRuntimeError(
                "TemplateRuntime", f"{type(error).__name__}: {error}"
            )
            self.fallback_stats.record_failure(Tier.TEMPLATE, wrapped.kind)
            self.breaker.record_failure(
                Tier.TEMPLATE, wrapped.kind, str(wrapped)
            )
            return self._fallback(arguments, wrapped)

    def _call_bytecode(self, arguments):
        """The demoted path: run the lazily-built bytecode fallback, which
        shares this artifact's breaker so its own soft failures continue
        the same ladder down to the interpreter."""
        inner = self._bytecode
        if inner is None:
            inner = self._build_bytecode()
        if inner is not None and self.breaker.tier is Tier.BYTECODE:
            return inner(*arguments)
        return self._interpret(arguments)

    def _build_bytecode(self):
        with self._bytecode_lock:
            if self._bytecode is not None or self._bytecode_failed:
                return self._bytecode
            if self.recursive:
                # the VM has no direct self-call; recursion would bounce
                # through the interpreter escape on every frame
                self._bytecode_failed = True
                self.breaker.unavailable(
                    Tier.BYTECODE, "recursive body has no bytecode lowering"
                )
                return None
            try:
                from repro.bytecode.compiled_function import compile_function

                inner = compile_function(
                    self._bytecode_specs(), self.source_body,
                    evaluator=self.evaluator,
                )
            except WolframAbort:
                raise
            except Exception as error:
                self._bytecode_failed = True
                self.breaker.unavailable(
                    Tier.BYTECODE, f"bytecode compile failed: {error}"
                )
                return None
            # one governor for the whole ladder: VM soft failures count
            # against the same breaker and demote on to the interpreter
            inner.breaker = self.breaker
            inner.fallback_stats = self.fallback_stats
            self._bytecode = inner
            return inner

    def _bytecode_specs(self) -> MExpr:
        from repro.mexpr.atoms import MSymbol
        from repro.mexpr.expr import MExprNormal
        from repro.mexpr.symbols import S

        blanks = {"i": S.Integer, "r": S.Real, "c": S.Complex}
        specs = []
        for name, type_char in zip(self.argument_names, self.argument_types):
            scalar = type_char[-1]
            entry = [
                MSymbol(name),
                MExprNormal(S.Blank, [blanks.get(scalar, S.Real)]),
            ]
            if type_char.startswith("T"):
                entry.append(to_mexpr(1))
            specs.append(MExprNormal(S.List, entry))
        return MExprNormal(S.List, specs)

    def _check_arguments(self, arguments) -> list:
        if len(arguments) != len(self.argument_types):
            raise WolframRuntimeError(
                "ArgumentCount",
                f"expected {len(self.argument_types)} arguments, "
                f"got {len(arguments)}",
            )
        checked = []
        for value, type_char in zip(arguments, self.argument_types):
            if type_char.startswith("T"):
                if not isinstance(value, (list, tuple)):
                    raise WolframRuntimeError(
                        "TypeMismatch", "expected a list"
                    )
                # copy-on-read (F5): stitched code mutates lists in place
                checked.append(_copy_nested(value))
            elif type_char == "i":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise WolframRuntimeError(
                        "TypeMismatch",
                        f"{value!r} is not a machine integer",
                    )
                checked.append(value)
            elif type_char == "r":
                if not isinstance(value, (int, float)):
                    raise WolframRuntimeError(
                        "TypeMismatch", f"{value!r} is not a real"
                    )
                checked.append(float(value))
            elif type_char == "c":
                checked.append(complex(value))
            elif type_char == "b":
                checked.append(bool(value))
            else:  # pragma: no cover
                checked.append(value)
        return checked

    # -- soft failure ------------------------------------------------------

    def _fallback(self, arguments, error: WolframRuntimeError):
        if self.evaluator is None:
            raise error
        self.evaluator.message(
            "CompiledFunction: CompiledFunction operation encountered a "
            f"runtime error ({error.kind}); reverting to uncompiled "
            "evaluation."
        )
        self.fallback_stats.record_rerun()
        return self._reevaluate(arguments)

    def _interpret(self, arguments):
        if self.evaluator is None:
            raise WolframRuntimeError(
                "NoInterpreter",
                f"{self.name}: template tier exhausted without a host engine",
            )
        self.fallback_stats.record_call(Tier.INTERPRETER)
        return self._reevaluate(arguments)

    def _reevaluate(self, arguments):
        from repro.engine.patterns import substitute

        bindings = {
            name: to_mexpr(value)
            for name, value in zip(self.argument_names, arguments)
        }
        result = self.evaluator.evaluate(
            substitute(self.source_body, bindings)
        )
        try:
            return result.to_python()
        except ValueError:
            return result


def _copy_nested(value):
    return [
        _copy_nested(item) if isinstance(item, (list, tuple)) else item
        for item in value
    ]
