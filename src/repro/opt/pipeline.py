"""Optimization driver: run all passes to a fixed point.

With ``verify=True`` (the default) the IR verifier
(:mod:`repro.analysis.verify`) checks the input program and the output
of *every* pass on every iteration; a pass that breaks a structural
invariant raises :class:`~repro.analysis.verify.VerificationError`
naming the offending pass, instead of surfacing later as a wrong
answer in an end-to-end run.
"""

from repro.analysis.verify import assert_valid
from repro.opt.block_constants import propagate_block_constants
from repro.opt.dead_code import remove_dead_code, remove_dead_writes
from repro.opt.inline import inline_functions
from repro.opt.jump_threading import thread_jumps
from repro.opt.peephole import peephole

#: Most rounds of the passes before the optimizer stops short of a
#: fixed point.
MAX_ITERATIONS = 8


class OptimizationReport:
    """What the optimizer did."""

    __slots__ = ("original_size", "final_size", "jumps_threaded",
                 "dead_removed", "dead_writes_removed", "peephole_removed",
                 "constants_folded", "sites_inlined", "iterations")

    def __init__(self):
        self.original_size = 0
        self.final_size = 0
        self.jumps_threaded = 0
        self.dead_removed = 0
        self.dead_writes_removed = 0
        self.peephole_removed = 0
        self.constants_folded = 0
        self.sites_inlined = 0
        self.iterations = 0

    @property
    def shrink_fraction(self):
        if self.original_size == 0:
            return 0.0
        return (self.original_size - self.final_size) / self.original_size

    def __repr__(self):
        return ("OptimizationReport(%d -> %d instructions, "
                "%d threaded, %d dead, %d dead writes, %d peephole, "
                "%d folded, %d inlined, %d iterations)"
                % (self.original_size, self.final_size,
                   self.jumps_threaded, self.dead_removed,
                   self.dead_writes_removed, self.peephole_removed,
                   self.constants_folded, self.sites_inlined,
                   self.iterations))


def optimize(program, inline=False, max_callee_size=24, verify=True):
    """Run jump threading, dead-code removal, peephole, local constant
    folding, and liveness-based dead-write elimination to a fixed
    point; optionally inline small leaf functions first (the IMPACT
    style — changes the dynamic branch mix by removing call/return
    pairs, so it is opt-in).

    Args:
        verify: run the IR verifier on the input and after every pass,
            raising :class:`~repro.analysis.verify.VerificationError`
            (naming the pass) on any structural invariant violation.

    Returns (optimized_program, :class:`OptimizationReport`).  The
    input program is not modified.
    """
    report = OptimizationReport()
    report.original_size = len(program.instructions)

    current = program
    if verify:
        assert_valid(current, context="optimizer input")
    if inline:
        current, inline_report = inline_functions(
            current, max_callee_size=max_callee_size)
        report.sites_inlined = inline_report.sites_inlined
        if verify:
            assert_valid(current, context="inline")

    for _ in range(MAX_ITERATIONS):
        report.iterations += 1
        changed = 0

        current, threaded = thread_jumps(current)
        report.jumps_threaded += threaded
        changed += threaded
        if verify and threaded:
            assert_valid(current, context="jump threading")

        current, dead = remove_dead_code(current)
        report.dead_removed += dead
        changed += dead
        if verify and dead:
            assert_valid(current, context="dead-code removal")

        current, removed = peephole(current)
        report.peephole_removed += removed
        changed += removed
        if verify and removed:
            assert_valid(current, context="peephole")

        current, folded = propagate_block_constants(current)
        report.constants_folded += folded
        changed += folded
        if verify and folded:
            assert_valid(current, context="constant propagation")

        current, dead_writes = remove_dead_writes(current)
        report.dead_writes_removed += dead_writes
        changed += dead_writes
        if verify and dead_writes:
            assert_valid(current, context="dead-write elimination")

        if changed == 0:
            break

    report.final_size = len(current.instructions)
    return current, report
