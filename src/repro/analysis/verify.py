"""The IR verifier: structural invariants of a resolved Program.

Every compiler pass in this repository rewrites programs wholesale
(rebuild masks, layout reordering, slot insertion); the end-to-end
semantics tests catch miscompiles only when an input happens to
exercise the broken path.  The verifier checks the invariants those
passes must preserve *statically* and reports violations as
:class:`~repro.analysis.findings.Finding` records, so a broken pass
fails at build time with the offending rule and address.

Rules (rule id — meaning):

``unresolved``        program still has symbolic targets
``empty``             program has no instructions
``branch-target``     conditional/JUMP/CALL target missing or outside
                      the text
``call-target``       CALL target is not a function entry
``table-entry``       jump-table entry outside the text, or a TABLE
                      instruction naming a nonexistent table
``fall-off-end``      the last instruction can fall through past the
                      end of the text
``likely-flag``       a likely bit on a non-conditional instruction
``slots-likely``      forward slots on an instruction that cannot own
                      them (only likely conditionals — and JUMPs under
                      the fill_unconditional ablation — may)
``slot-region``       a forward-slot region is truncated, overlapping,
                      or its copies do not match the target-path
                      prefix (the Forward Semantic invariant)
``target-into-slots`` a branch target, jump-table entry, or function
                      entry lands inside a forward-slot region
``cross-function``    a flow edge connects two different functions'
                      regions (CALL/RET pairing is broken — e.g. a
                      dropped RET falls through into the next function)
``ret-in-entry``      a RET is reachable in the entry function, where
                      the call stack is empty
``use-before-def``    a register is read that no path ever writes
                      (the VM would fault on the register file)
``unreachable``       (info) a basic block no execution can reach

Severities are ``"error"`` and ``"info"``; only errors make
:func:`assert_valid` raise :class:`VerificationError`.
"""

from repro.analysis.dataflow import FlowGraph
from repro.analysis.effects import function_entry_addresses
from repro.analysis.findings import ERROR, INFO, Finding, line_of
from repro.analysis.registers import use_before_def
from repro.analysis.unreachable import reachable_blocks
from repro.isa.opcodes import Opcode

_NO_FALL_THROUGH = frozenset({Opcode.JUMP, Opcode.RET, Opcode.JIND,
                              Opcode.HALT})
_NEEDS_TARGET = frozenset({Opcode.JUMP, Opcode.CALL})


class VerificationError(Exception):
    """Raised when a program fails verification.

    Attributes:
        context: what produced the bad program (a pass name).
        findings: the error-severity :class:`Finding` list.
    """

    def __init__(self, context, findings):
        self.context = context
        self.findings = list(findings)
        lines = ["%s produced an invalid program (%d error%s):"
                 % (context, len(self.findings),
                    "" if len(self.findings) == 1 else "s")]
        lines.extend("  %s" % finding for finding in self.findings[:10])
        if len(self.findings) > 10:
            lines.append("  ... %d more" % (len(self.findings) - 10))
        super().__init__("\n".join(lines))


def verify_program(program):
    """Check every invariant; returns a list of :class:`Finding`.

    Text-level rules run first; when any of them fail the CFG-level
    rules are skipped (the control-flow graph of a structurally broken
    program is not meaningful).
    """
    return verify_with_graph(program)[0]


def verify_with_graph(program):
    """(findings, graph): :func:`verify_program`'s findings and the
    :class:`FlowGraph` its CFG-level rules ran on, or None for the
    graph when an earlier stage stopped verification."""
    findings = []
    graph = _verify(program, findings)
    for finding in findings:
        finding.line = line_of(program, finding.address)
    return findings, graph


def _error(address, rule, message):
    return Finding(rule, ERROR, message, address)


def _verify(program, findings):
    """Append every finding; returns the flow graph, or None when
    errors stopped verification before the CFG-level rules."""
    report = findings.append
    if not program.resolved:
        report(_error(None, "unresolved",
                      "program has unresolved symbolic targets"))
        return None
    instructions = program.instructions
    size = len(instructions)
    if size == 0:
        report(_error(None, "empty", "program has no instructions"))
        return None

    entries = function_entry_addresses(program)

    # -- text-level rules ---------------------------------------------------
    slot_owner = [None] * size
    for address, instr in enumerate(instructions):
        op = instr.op
        if instr.is_conditional or op in _NEEDS_TARGET:
            if not isinstance(instr.target, int):
                report(_error(address, "branch-target",
                              "%s has no resolved target" % op.value))
            elif not 0 <= instr.target < size:
                report(_error(address, "branch-target",
                              "%s target %d outside text of %d"
                              % (op.value, instr.target, size)))
        if op is Opcode.CALL and isinstance(instr.target, int) \
                and instr.target not in entries:
            report(_error(address, "call-target",
                          "call target %d is not a function entry"
                          % instr.target))
        if instr.likely and not instr.is_conditional:
            report(_error(address, "likely-flag",
                          "likely bit on non-conditional %s" % op.value))
        if instr.n_slots:
            _check_slot_flags(instr, address, size, slot_owner, report)
        if op is Opcode.TABLE and (
                instr.imm is None
                or not 0 <= instr.imm < len(program.jump_tables)):
            report(_error(address, "table-entry",
                          "TABLE names nonexistent table %r" % instr.imm))

    for table in program.jump_tables:
        for entry in table.entries:
            if not isinstance(entry, int) or not 0 <= entry < size:
                report(_error(None, "table-entry",
                              "jump table %s entry %r outside text"
                              % (table.name, entry)))

    # Slots owned by a JUMP (the fill_unconditional ablation) are dead
    # padding — a JUMP always redirects — so they cannot fall through.
    final_owner = slot_owner[size - 1]
    in_jump_padding = (final_owner is not None
                       and instructions[final_owner].op is Opcode.JUMP)
    if instructions[-1].op not in _NO_FALL_THROUGH and not in_jump_padding:
        report(_error(size - 1, "fall-off-end",
                      "%s at the end of the text can fall through"
                      % instructions[-1].op.value))

    if findings:
        return None

    # -- slot-region content and landing rules ------------------------------
    for address, instr in enumerate(instructions):
        if instr.is_branch and isinstance(instr.target, int):
            owner = slot_owner[instr.target]
            if owner is not None:
                report(_error(address, "target-into-slots",
                              "branch targets %d inside the slot "
                              "region of the branch at %d"
                              % (instr.target, owner)))
        if instr.n_slots and instr.is_conditional:
            _check_slot_prefix(instructions, address, instr, report)
    for table in program.jump_tables:
        for entry in table.entries:
            if slot_owner[entry] is not None:
                report(_error(None, "target-into-slots",
                              "jump table %s entry %d lands inside "
                              "the slot region of the branch at %d"
                              % (table.name, entry, slot_owner[entry])))
    for entry, name in entries.items():
        if slot_owner[entry] is not None:
            report(_error(entry, "target-into-slots",
                          "function %s entry lands inside the slot "
                          "region of the branch at %d"
                          % (name, slot_owner[entry])))

    if findings:
        return None

    # -- CFG-level rules ----------------------------------------------------
    try:
        entry_address = program.entry
    except Exception as exception:
        report(_error(None, "empty", str(exception)))
        return None
    graph = FlowGraph.from_program(program)
    _check_function_regions(graph, entries, entry_address, report)

    reachable = reachable_blocks(graph)
    for block in graph.cfg.blocks:
        if block.start not in reachable:
            report(Finding("unreachable", INFO,
                           "block %d..%d is unreachable"
                           % (block.start, block.end), block.start))
    for address, register in use_before_def(graph, blocks=reachable):
        report(_error(address, "use-before-def",
                      "r%d is read but never written on any path"
                      % register))
    return graph


def _check_slot_flags(instr, address, size, slot_owner, report):
    """Slot-count sanity and region bookkeeping for one instruction."""
    if instr.n_slots < 0:
        report(_error(address, "slots-likely",
                      "negative slot count %d" % instr.n_slots))
        return
    if instr.is_conditional:
        if not instr.likely:
            report(_error(address, "slots-likely",
                          "forward slots on a branch not predicted taken"))
    elif instr.op is not Opcode.JUMP:
        report(_error(address, "slots-likely",
                      "forward slots on %s" % instr.op.value))
    if address + instr.n_slots >= size:
        report(_error(address, "slot-region",
                      "slot region [%d..%d] extends past the end of the "
                      "text" % (address + 1, address + instr.n_slots)))
        return
    for offset in range(1, instr.n_slots + 1):
        if slot_owner[address + offset] is not None:
            report(_error(address, "slot-region",
                          "slot region overlaps the region of the branch "
                          "at %d" % slot_owner[address + offset]))
            break
        slot_owner[address + offset] = address


def _check_slot_prefix(instructions, address, instr, report):
    """The Forward Semantic invariant: the ``consumed = target -
    orig_target`` instructions after a slotted branch are faithful
    copies of the target-path prefix they replace."""
    orig = instr.orig_target
    if not isinstance(orig, int) or not 0 <= orig < len(instructions):
        report(_error(address, "slot-region",
                      "slotted branch has no valid original target (%r)"
                      % (orig,)))
        return
    consumed = instr.target - orig
    if not 0 <= consumed <= instr.n_slots:
        report(_error(address, "slot-region",
                      "adjusted target consumes %d instructions but only "
                      "%d slot%s reserved"
                      % (consumed, instr.n_slots,
                        " is" if instr.n_slots == 1 else "s are")))
        return
    for offset in range(consumed):
        copy = instructions[address + 1 + offset]
        original = instructions[orig + offset]
        if not copy.semantically_equal(original):
            report(_error(address, "slot-region",
                          "slot %d (%r) is not a copy of the target-path "
                          "instruction at %d (%r)"
                          % (offset, copy, orig + offset, original)))


def _check_function_regions(graph, entries, entry_address, report):
    """Flood each function's flow region; flag overlaps and a RET
    reachable with an empty call stack."""
    cfg = graph.cfg
    owner = {}
    for entry, name in sorted(entries.items()):
        seen = set()
        stack = [graph.index_of(cfg.block_of(entry).start)]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            leader = cfg.blocks[index].start
            if leader in owner and owner[leader] != name:
                report(_error(leader, "cross-function",
                              "block %d is reachable from both %s and %s "
                              "without a call"
                              % (leader, owner[leader], name)))
                continue
            owner[leader] = name
            if index in graph.fallback_indirect:
                continue  # unresolved JIND: do not guess across regions
            stack.extend(graph.successors[index])

        if entry == entry_address:
            for index in seen:
                block = cfg.blocks[index]
                if cfg.program.instructions[block.end - 1].op is Opcode.RET:
                    report(_error(block.end - 1, "ret-in-entry",
                                  "RET reachable in entry function %s, "
                                  "where the call stack is empty" % name))


def assert_valid(program, context="program"):
    """Raise :class:`VerificationError` when verification finds errors.

    Returns the full finding list (infos included) otherwise.
    """
    findings = verify_program(program)
    errors = [finding for finding in findings if finding.is_error]
    if errors:
        raise VerificationError(context, errors)
    return findings
