"""The abort channel shared by compiled code and its host engine (F3).

The compiler inserts an abort check at loop headers and function
prologues (§4.5).  "The abort checks if a user initiated abort signal has
been issued to the Wolfram Engine and, if so, throws a hardware
exception" — our hardware exception is :class:`WolframAbort`, which the
``CompiledCodeFunction`` wrapper lets propagate to the host so resources
are freed by Python unwinding (the generated cleanup the paper describes).

One cell, one slow path.  Every check, in every tier, is one inline test
of the running thread's interrupt cell (:mod:`repro.runtime.interrupt`);
generated code reads the cell once in its prologue and emits::

    if _irq[0]: _check_abort()

The cell is raised only while its thread has an active guard, an armed
fault injector, or a bound evaluator with an abort pending, and only then
does :func:`runtime_check_abort` — compiled code's slow path — run.  It
fires the ``abort.check`` fault site and hands over to
:func:`~repro.runtime.guard.guard_checkpoint`, the slow path the other
tiers call: deliver the bound evaluator's abort, charge the active
:class:`~repro.runtime.guard.ExecutionGuard` (``TimeConstrained``,
``MemoryConstrained``, step budgets), lower the cell when nothing holds
it.  Compiled code therefore obeys deadlines and budgets exactly where it
is abortable.

The abort source is per thread: a ``CompiledCodeFunction`` hosted by an
evaluator binds that evaluator to the calling thread for the duration of
the call.  Standalone-exported code runs with no host engine, so no
evaluator is bound and the abort half is a noop, matching §4.6: "when
using code in standalone mode, certain functionalities such as
interpreter integration and abortable code are disabled, since they
depend on the Wolfram Engine".  Guard polling is engine-independent (pure
wall clock / counters) and keeps working.
"""

from __future__ import annotations

from repro.runtime.guard import guard_checkpoint
from repro.runtime.interrupt import INTERRUPTS
from repro.testing import faults as _faults


def runtime_check_abort() -> None:
    """Compiled code's checkpoint slow path (runs while the cell is up)."""
    if _faults._INJECTOR is not None:
        _faults.fire("abort.check")
    guard_checkpoint()


def abort_checks_enabled() -> bool:
    """Whether compiled code on this thread can be aborted right now: an
    evaluator is bound to it."""
    return bool(INTERRUPTS.state.evaluators)
