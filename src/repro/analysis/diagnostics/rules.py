"""Diagnostics rules beyond the structural verifier.

Each rule is a function taking the program or its
:class:`~repro.analysis.dataflow.FlowGraph` (plus whatever else it
needs) and returning a list of :class:`Finding`.  The engine
(:mod:`.engine`) decides which rules run at which pipeline stage.

Rules (rule id — severity — meaning):

``squash-unsafe-slot``        warning — a forward-slot instruction
    whose effect escapes the register file before commit (memory
    write, I/O, staging, possible fault), so the paper's squashing
    hardware cannot cancel it cleanly when the branch falls through.
``use-before-def-slots``      error — a register read inside a
    forward-slot region with no definition on any path to the slot;
    the hazard the slot copy *introduced* (the original target-path
    read was dominated by a definition on a different predecessor).
``unreachable-after-layout``  warning — a block that was reachable in
    the pre-layout program but is unreachable after layout: the
    reordering dropped an edge.
``degenerate-branch``         warning — a conditional branch whose
    outcome is a compile-time constant (same-register compare, or
    both operands block-local constants); it should be a JUMP or
    nothing.
``loop-invariant-branch``     info — a branch inside a loop reading
    only registers no instruction of the loop writes; a hoisting
    candidate (the paper's software schemes pay for it every
    iteration).
"""

from typing import Dict, List

from repro.analysis.dataflow import FlowGraph
from repro.analysis.effects import (
    function_entry_addresses,
    is_squash_safe,
    register_written,
    registers_read,
)
from repro.analysis.findings import ERROR, INFO, WARNING, Finding, line_of
from repro.analysis.staticpred.heuristics import _constant_outcome
from repro.analysis.staticpred.loops import find_loops
from repro.analysis.unreachable import reachable_blocks
from repro.isa.program import Program
from repro.traceopt.layout import LayoutResult


def slot_regions(program: Program) -> Dict[int, int]:
    """Map of slot address -> owning branch address.

    Only well-formed regions (inside the text) are mapped; malformed
    ones are the verifier's ``slot-region`` errors.
    """
    owners: Dict[int, int] = {}
    size = len(program.instructions)
    for address, instr in enumerate(program.instructions):
        if instr.n_slots and instr.is_conditional:
            for offset in range(1, instr.n_slots + 1):
                if address + offset < size:
                    owners[address + offset] = address
    return owners


def squash_unsafe_slots(program: Program) -> List[Finding]:
    """Flag forward-slot instructions squashing hardware cannot cancel."""
    findings: List[Finding] = []
    for address, owner in sorted(slot_regions(program).items()):
        instr = program.instructions[address]
        if is_squash_safe(instr):
            continue
        findings.append(Finding(
            "squash-unsafe-slot", WARNING,
            "%s in the slot region of the branch at %d cannot be "
            "squashed cleanly (its effect escapes the register file)"
            % (instr.op.value, owner),
            address, line_of(program, address)))
    return findings


def slot_use_before_def(program: Program,
                        findings: List[Finding]) -> List[Finding]:
    """Re-anchor use-before-def findings that live in slot regions.

    Reads with no reaching definition *inside a forward-slot region*
    are the hazard slot copying introduced — on the original target
    path the read was dominated by a definition on another
    predecessor, but the copy in the slots executes down the branch
    path, which has none.  They get their own rule id and the owning
    branch in the message instead of the generic ``use-before-def``.
    """
    owners = slot_regions(program)
    rewritten: List[Finding] = []
    for finding in findings:
        owner = (owners.get(finding.address)
                 if finding.rule == "use-before-def" else None)
        if owner is None:
            rewritten.append(finding)
            continue
        rewritten.append(Finding(
            "use-before-def-slots", ERROR,
            "%s — the read sits in the slot region of the branch at "
            "%d, a hazard the slot copy introduced"
            % (finding.message, owner),
            finding.address, finding.line))
    return rewritten


def unreachable_after_layout(graph: FlowGraph, layout: LayoutResult,
                             original: Program) -> List[Finding]:
    """Flag blocks layout made unreachable.

    Maps each unreachable post-layout block back through
    ``layout.old_address_of``; blocks already unreachable before
    layout are expected (they still surface as ``unreachable`` info
    findings) — only a reachable-to-unreachable transition is a
    layout defect.
    """
    program = graph.cfg.program
    reachable_after = reachable_blocks(graph)
    original_graph = FlowGraph.from_program(original)
    reachable_before = reachable_blocks(original_graph)
    findings: List[Finding] = []
    for block in graph.cfg.blocks:
        if block.start in reachable_after:
            continue
        # old_address_of is a per-new-address list; inserted JUMPs map
        # to None and have no pre-layout identity.
        old_address = layout.old_address_of[block.start]
        if old_address is None:
            continue
        old_leader = original_graph.cfg.block_of(old_address).start
        if old_leader in reachable_before:
            findings.append(Finding(
                "unreachable-after-layout", WARNING,
                "block %d..%d (pre-layout address %d) was reachable "
                "before layout but is not after"
                % (block.start, block.end, old_address),
                block.start, line_of(program, block.start)))
    return findings


def degenerate_branches(graph: FlowGraph) -> List[Finding]:
    """Flag conditional branches whose outcome is statically constant."""
    program = graph.cfg.program
    findings: List[Finding] = []
    for block in graph.cfg.blocks:
        site = block.end - 1
        terminator = program.instructions[site]
        if not terminator.is_conditional:
            continue
        outcome = _constant_outcome(program, block, terminator)
        if outcome is None:
            continue
        findings.append(Finding(
            "degenerate-branch", WARNING,
            "%s always %s (its outcome is a compile-time constant)"
            % (terminator.op.value,
               "branches" if outcome else "falls through"),
            site, line_of(program, site)))
    return findings


def loop_invariant_branches(graph: FlowGraph) -> List[Finding]:
    """Flag loop branches reading only loop-invariant registers."""
    cfg = graph.cfg
    program = cfg.program
    findings: List[Finding] = []
    roots = set(function_entry_addresses(program))
    roots.add(cfg.block_of(program.entry).start)
    claimed: set = set()
    for root in sorted(roots):
        root_index = graph.index_of(cfg.block_of(root).start)
        nest = find_loops(graph, root_index)
        for loop in nest.loops:
            written = set()
            for index in loop.body:
                block = cfg.blocks[index]
                for instr in program.instructions[block.start:block.end]:
                    register = register_written(instr)
                    if register is not None:
                        written.add(register)
            for index in sorted(loop.body):
                block = cfg.blocks[index]
                site = block.end - 1
                if site in claimed:
                    continue
                terminator = program.instructions[site]
                if not terminator.is_conditional:
                    continue
                reads = registers_read(terminator)
                if not reads or any(register in written
                                    for register in reads):
                    continue
                claimed.add(site)
                findings.append(Finding(
                    "loop-invariant-branch", INFO,
                    "%s reads only registers (%s) the enclosing loop "
                    "at %d never writes; hoisting candidate"
                    % (terminator.op.value,
                       ", ".join("r%d" % r for r in sorted(set(reads))),
                       cfg.blocks[loop.header].start),
                    site, line_of(program, site)))
    findings.sort(key=lambda finding: finding.address or 0)
    return findings
