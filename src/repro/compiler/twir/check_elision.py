"""Dataflow-driven check elision (§6, "removal of redundant ... checks").

Consumes :class:`~repro.analyze.dataflow.FunctionFacts` to delete two
kinds of per-instruction safety tax, each swap stamped with a justifying
``elided_check`` property that the verifier's fact-consistency rules
(:mod:`repro.analyze.verify`) re-derive independently:

* **Integer64 overflow guards** — a checked ``Plus``/``Subtract``/
  ``Times`` whose *exact* abstract result fits the Integer64 range swaps
  to the unchecked primitive (``int64-overflow`` justification).  This
  subsumes the former counter-pattern pass: a loop counter under a
  ``i <= Length[v]`` guard is simply an interval that tops out near
  2^48, far from the boundary.

* **Part bounds predicates** — a checked Part whose indices are proven
  ``>= 1`` swaps to the direct-index primitive.  When every index is
  additionally proven ``<= Length`` (symbolically against the measured
  tensor, or via a known shape) the justification is ``part-bounds``;
  otherwise it is ``part-positive`` — the legacy criterion, sound
  because positive indexing needs no predication and a residual
  too-large index is a *trapped* runtime error handled by the
  soft-failure path (F2), never a silent wrong answer.

Abort checkpoints are not elided: each is one inline test of the
thread's interrupt cell (:mod:`repro.runtime.interrupt`), cheap enough
that every loop header keeps its poll.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.compiler.wir.function_module import FunctionModule
from repro.compiler.wir.instructions import CallPrimitiveInstr

if TYPE_CHECKING:  # pragma: no cover - the analyze import is deferred at
    # runtime (repro.analyze pulls in the differential oracle, which pulls
    # the whole compiler back in)
    from repro.analyze.dataflow import FunctionFacts

#: checked Integer64 arithmetic -> (unchecked primitive, Interval method)
CHECKED_ARITH = {
    "checked_binary_plus_Integer64_Integer64":
        ("plus_unchecked_Integer64", "add"),
    "checked_binary_subtract_Integer64_Integer64":
        ("subtract_unchecked_Integer64", "subtract"),
    "checked_binary_times_Integer64_Integer64":
        ("times_unchecked_Integer64", "multiply"),
}

#: checked Part primitives -> unchecked, with their index operand slice
CHECKED_PARTS = {
    "tensor_part1": ("tensor_part1_unchecked", slice(1, 2)),
    "tensor_part1_set": ("tensor_part1_set_unchecked", slice(1, 2)),
    "tensor_part2": ("tensor_part2_unchecked", slice(1, 3)),
    "tensor_part2_set": ("tensor_part2_set_unchecked", slice(1, 3)),
}


def elide_redundant_checks(
    function: FunctionModule, facts: Optional["FunctionFacts"] = None
) -> dict[str, int]:
    """Swap provably redundant checked primitives for unchecked ones.

    Returns ``{"int64": N, "bounds": M}`` and records the totals in
    ``function.information`` (``OverflowChecksElided`` /
    ``IndexChecksElided``, the keys the former pattern passes used).
    """
    from repro.analyze.dataflow import analyze_function
    from repro.compiler.types.builtin_env import PRIMITIVE_IMPLS

    if facts is None:
        facts = analyze_function(function)
    counts = {"int64": 0, "bounds": 0}
    for block in function.ordered_blocks():
        for instruction in block.instructions:
            if not isinstance(instruction, CallPrimitiveInstr):
                continue
            name = instruction.primitive.runtime_name
            arith = CHECKED_ARITH.get(name)
            if arith is not None:
                unchecked_name, method = arith
                a = facts.interval_at(instruction.operands[0], block.name)
                b = facts.interval_at(instruction.operands[1], block.name)
                if getattr(a, method)(b).fits_int64():
                    instruction.primitive = PRIMITIVE_IMPLS[unchecked_name]
                    instruction.properties["elided_check"] = "int64-overflow"
                    counts["int64"] += 1
                continue
            part = CHECKED_PARTS.get(name)
            if part is not None:
                unchecked_name, index_slice = part
                tensor = instruction.operands[0]
                indices = instruction.operands[index_slice]
                if not indices:
                    continue
                if all(
                    facts.proves_part_in_range(index, tensor, block.name)
                    for index in indices
                ):
                    justification = "part-bounds"
                elif all(
                    facts.proves_positive_index(index, block.name)
                    for index in indices
                ):
                    justification = "part-positive"
                else:
                    continue
                instruction.primitive = PRIMITIVE_IMPLS[unchecked_name]
                instruction.properties["elided_check"] = justification
                counts["bounds"] += 1
    if counts["int64"]:
        function.information["OverflowChecksElided"] = counts["int64"]
    if counts["bounds"]:
        function.information["IndexChecksElided"] = counts["bounds"]
    return counts
