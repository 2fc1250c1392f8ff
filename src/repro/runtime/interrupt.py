"""One interrupt cell per thread: the poll behind every tier's checkpoints.

Every tier polls at the places §4.5 puts abort checks: compiled code and
the template tier at function prologues and loop headers, the bytecode VM
on backward jumps, the interpreter on every evaluation step.  Each poll is
one inline test of the running thread's *interrupt cell*, a one-element
list::

    _irq = _interrupts.cell        # once, in the prologue
    if _irq[0]: _check_abort()     # at each checkpoint

The cell is raised (non-zero) only while something on its thread needs
the slow path:

* an :class:`~repro.runtime.guard.ExecutionGuard` is active —
  ``push_guard`` raises the cell, and the slow path charges steps and
  checks deadlines on every checkpoint while a guard is active, so budget
  and deadline accounting is exact;
* fault injection is armed — ``inject_faults`` raises every thread's cell,
  so the ``abort.check``/``guard.checkpoint`` sites see every checkpoint;
* an evaluator running on the thread has an abort pending —
  :func:`request_abort` sets the thread's ``aborting`` mark and raises the
  cell of every thread the evaluator is bound to, and :func:`bind` does
  the same at once when the abort was requested before the call began.

Any thread may raise a cell or set an ``aborting`` mark; only the owning
thread clears them, in the slow path, by clearing first and then setting
again for every reason that still holds.  A raiser records its reason
before it raises, so a raise that races a clear is never lost.

The slow path finds its abort source through the evaluators bound to its
own thread (:func:`bind`/:func:`unbind`), never through a process global,
so concurrent sessions on worker threads neither abort each other nor
lose their own aborts.  Code that runs with no evaluator bound — a
standalone export (§4.6), or a ``FunctionCompile`` without a host — has
no abort source; its guard polling works unchanged.
"""

from __future__ import annotations

import threading
import weakref

from repro.errors import WolframAbort
from repro.testing import faults as _faults


class ThreadInterrupt:
    """One thread's interrupt state."""

    __slots__ = ("cell", "guard", "evaluators", "aborting", "__weakref__")

    def __init__(self):
        #: ``cell[0]`` is the flag every checkpoint tests inline
        self.cell = [0]
        #: the innermost :class:`~repro.runtime.guard.ExecutionGuard`
        self.guard = None
        #: evaluators running on this thread, innermost last
        self.evaluators: list = []
        #: set when a bound evaluator may have an abort pending
        self.aborting = False


_registry_lock = threading.Lock()
#: every live thread's state, so raisers can reach other threads' cells
_THREADS: "weakref.WeakSet[ThreadInterrupt]" = weakref.WeakSet()


class _Interrupts(threading.local):
    """Per-thread access: ``cell`` for the inline test, ``state`` for the
    slow path.  A thread's state is created on its first access."""

    def __init__(self):
        state = ThreadInterrupt()
        self.state = state
        self.cell = state.cell
        with _registry_lock:
            _THREADS.add(state)
        # checked after registering: an injector armed from now on raises
        # this cell through the registry
        if _faults._INJECTOR is not None:
            state.cell[0] = 1


#: the object generated code and the VM read ``.cell`` from
INTERRUPTS = _Interrupts()


def _states() -> list:
    with _registry_lock:
        return list(_THREADS)


def raise_all() -> None:
    """Raise every thread's cell (fault injection was armed)."""
    for state in _states():
        state.cell[0] = 1


# -- evaluators: the abort source ---------------------------------------------


def bind(evaluator) -> ThreadInterrupt:
    """Mark ``evaluator`` as running on this thread until :func:`unbind`."""
    state = INTERRUPTS.state
    state.evaluators.append(evaluator)
    # after the append: a request from now on finds this thread
    if evaluator.abort_requested:
        state.aborting = True
        state.cell[0] = 1
    return state


def unbind(state: ThreadInterrupt) -> None:
    """Undo the innermost :func:`bind` on ``state``'s thread."""
    state.evaluators.pop()


def request_abort(evaluator) -> None:
    """Flag an abort for ``evaluator`` and raise the cell of every thread
    it is running on; thread-safe."""
    evaluator.abort_requested = True
    for state in _states():
        if evaluator in state.evaluators:
            state.aborting = True
            state.cell[0] = 1


# -- lowering and the slow path ------------------------------------------------


def settle(state: ThreadInterrupt) -> None:
    """Lower ``state``'s cell unless a reason still holds; call it only
    on ``state``'s own thread."""
    cell = state.cell
    cell[0] = 0
    if (state.guard is not None or _faults._INJECTOR is not None
            or state.aborting):
        cell[0] = 1


def poll(state: ThreadInterrupt, steps: int = 1) -> None:
    """The slow path of every checkpoint, on ``state``'s own thread:
    deliver a pending abort, charge the active guard, and lower the cell
    when nothing holds it."""
    if state.aborting:
        state.aborting = False
        for evaluator in state.evaluators:
            if evaluator.abort_requested:
                state.aborting = True  # the cell stays raised
                raise WolframAbort()
    guard = state.guard
    if guard is not None:
        guard.check(steps)  # an active guard holds the cell raised
    else:
        settle(state)
