"""Trace layout: reorder blocks so likely paths fall through.

Traces are placed in decreasing weight order.  Inside the new order,
each block's terminator is rewritten so that:

* a conditional branch whose old fall-through block comes next is kept;
* a conditional branch whose *taken* block comes next is inverted (the
  old fall-through becomes the taken target);
* a conditional branch with neither successor adjacent keeps its taken
  target and gains an explicit JUMP to the old fall-through;
* a trailing JUMP to the block that now follows is deleted;
* a block that used to fall through to a now non-adjacent block gains
  an explicit JUMP.

After layout every conditional branch receives its "likely-taken" bit
from the profile (direction-adjusted when the branch was inverted).
The result is the paper's property that conditional branches predicted
taken sit at the ends of traces, ready for forward-slot filling.

Every layout is checked against its input by a translation validator,
whatever ``verify`` says: each laid-out instruction is its old one with
its targets remapped (an inverted conditional with its two successors
swapped), each fall-through, whether direct or through an inserted
JUMP, continues where the old one did (so a deleted JUMP targeted the
block that now follows it), and the jump tables, functions and data
carry over.  The laid-out program therefore computes what the base
program computes on every input whose indirect jumps go through jump
tables.

Its runs also follow the base program's runs block for block, so
:meth:`LayoutResult.derive_traces` maps a base run's
:class:`~repro.vm.compiled.BlockPath` onto the laid-out program and
derives the laid-out run's trace from it without running it.
"""

import numpy as np

from repro.analysis.findings import ERROR, Finding
from repro.analysis.verify import VerificationError, assert_valid
from repro.cfg import ControlFlowGraph, compute_leaders
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, invert_branch
from repro.isa.program import Program
from repro.traceopt.trace_selection import select_traces
from repro.vm.machine import MachineError
from repro.vm.tracing import BranchClass


class LayoutResult:
    """Outcome of the layout pass.

    Attributes:
        program: the laid-out program (resolved, validated), with the
            ``likely`` bit set on every conditional branch.
        leader_map: old leader address -> new address.
        old_address_of: new address -> old instruction address (None
            for JUMP instructions inserted by the pass).
        traces: the selected traces (old leader addresses), in layout
            order.
        trace_spans: [(new_start, new_end)] per trace, same order.
        base: the program that was laid out.
    """

    def __init__(self, program, leader_map, old_address_of, traces,
                 trace_spans, base):
        self.program = program
        self.leader_map = leader_map
        self.old_address_of = old_address_of
        self.traces = traces
        self.trace_spans = trace_spans
        self.base = base

    def derive_traces(self, paths, max_instructions=None):
        """The :class:`~repro.vm.tracing.BranchTrace` of the laid-out
        program on each input whose run of :attr:`base` followed a
        :class:`~repro.vm.compiled.BlockPath` in ``paths``, column for
        column what running it would record.

        The paths must be those of compiled runs cut at the base
        program's leaders, as every profiling and plain run is.
        ``paths`` is emptied as it goes, so each path is freed once its
        trace exists.

        Raises :class:`~repro.vm.machine.MachineError` when a base run
        took an indirect jump to a pc that is no jump-table entry
        (layout does not remap such a target), and
        :class:`~repro.vm.machine.ExecutionLimitExceeded` when a
        laid-out run, which may execute extra JUMPs, would exceed
        ``max_instructions``.
        """
        path_map = _PathMap(self)
        paths.reverse()
        traces = []
        while paths:
            traces.append(path_map.trace(paths.pop(), max_instructions))
        return traces

    @property
    def likely_sites(self):
        """Map of conditional-branch address -> likely bit."""
        return {
            address: instr.likely
            for address, instr in enumerate(self.program.instructions)
            if instr.is_conditional
        }


def lay_out_traces(program, cfg, profile, traces, verify=True):
    """Apply trace layout; returns a :class:`LayoutResult`.

    ``program`` must be the resolved program ``cfg`` and ``profile``
    were computed from; it is not modified.  The translation validator
    always runs; with ``verify=True`` the laid-out program is also run
    through the IR verifier (:func:`repro.analysis.verify.assert_valid`)
    before returning.  Both raise
    :class:`~repro.analysis.verify.VerificationError`.
    """
    ordered_traces = sorted(
        traces, key=lambda trace: (-trace.weight, trace.blocks[0]))
    for trace in ordered_traces:
        _rotate_cyclic_trace(trace, cfg)

    block_order = []
    for trace in ordered_traces:
        block_order.extend(trace.blocks)
    if len(block_order) != len(cfg.blocks):
        raise ValueError("traces do not cover the CFG exactly")

    next_leader = {}
    for position, leader in enumerate(block_order):
        following = (block_order[position + 1]
                     if position + 1 < len(block_order) else None)
        next_leader[leader] = following

    # Pass 1: rewrite each block's instruction list.
    rewritten = {leader: _rewrite_block(cfg, cfg.block_at(leader),
                                        next_leader[leader], profile)
                 for leader in block_order}

    # Pass 2: place blocks, assigning new addresses.
    new_program = Program(program.name)
    new_program.globals_size = program.globals_size
    new_program.data_init = dict(program.data_init)
    leader_map = {}
    old_address_of = []
    trace_spans = []
    position = 0
    for trace in ordered_traces:
        span_start = len(new_program.instructions)
        for leader in trace.blocks:
            instructions, old_addresses = rewritten[leader]
            leader_map[leader] = len(new_program.instructions)
            new_program.instructions.extend(instructions)
            old_address_of.extend(old_addresses)
        trace_spans.append((span_start, len(new_program.instructions)))
        position += 1

    # Carry the source-line table across the reordering so laid-out
    # addresses (the sites of the evaluation trace) still map to Minic
    # source lines.  Inserted JUMPs have no old address and no line.
    if program.lines:
        new_program.lines = {
            new_address: program.lines[old_address]
            for new_address, old_address in enumerate(old_address_of)
            if old_address is not None and old_address in program.lines
        }

    _remap(program, new_program, leader_map)
    new_program.resolved = True
    new_program.validate()
    _check_translation(program, new_program, leader_map, old_address_of)
    if verify:
        assert_valid(new_program, context="trace layout")
    return LayoutResult(new_program, leader_map, old_address_of,
                        ordered_traces, trace_spans, program)


def _rewrite_block(cfg, block, following, profile):
    """The laid-out instructions of ``block`` when the block at leader
    ``following`` (or None) comes next, with their old addresses (None
    for an inserted JUMP)."""
    instructions = [instr.copy() for instr in cfg.instructions_of(block)]
    old_addresses = list(range(block.start, block.end))
    terminator = instructions[-1]

    if terminator.is_conditional:
        taken_target = terminator.target
        fall_through = block.fall_through
        inverted = False
        if fall_through == following:
            pass
        elif taken_target == following and fall_through is not None:
            terminator.op = invert_branch(terminator.op)
            terminator.target = fall_through
            inverted = True
        elif fall_through is not None:
            instructions.append(Instruction(Opcode.JUMP,
                                            target=fall_through))
            old_addresses.append(None)
        _set_likely(terminator, profile, block.end - 1, inverted)
    elif terminator.op is Opcode.JUMP:
        if terminator.target == following:
            instructions.pop()
            old_addresses.pop()
    elif terminator.op not in (Opcode.RET, Opcode.JIND, Opcode.HALT):
        # Plain fall-through block.
        if block.fall_through is not None and block.fall_through != following:
            instructions.append(Instruction(Opcode.JUMP,
                                            target=block.fall_through))
            old_addresses.append(None)
    return instructions, old_addresses


def _remap(program, new_program, leader_map):
    """Pass 3: remap branch targets, jump tables, and function labels."""
    for instr in new_program.instructions:
        if instr.is_branch and isinstance(instr.target, int):
            instr.target = leader_map[instr.target]
    for table in program.jump_tables:
        duplicate = table.copy()
        duplicate.entries = [leader_map[entry] for entry in duplicate.entries]
        new_program.jump_tables.append(duplicate)
    for name, label in program.functions.items():
        new_address = leader_map[program.labels[label]]
        new_program.labels[label] = new_address
        new_program.functions[name] = label


_NO_FALL_THROUGH = (Opcode.JUMP, Opcode.RET, Opcode.JIND, Opcode.HALT)


def _check_translation(program, new_program, leader_map, old_address_of):
    """The translation validator: raise :class:`VerificationError`
    unless ``new_program`` runs exactly as ``program`` does.

    ``where(o)`` is the new pc that continues as old pc ``o`` does: its
    image, or for a deleted JUMP, where its target continues.  Every
    laid-out instruction must equal its old one with each target ``t``
    replaced by ``where(t)``, and falling through it (directly or
    through an inserted JUMP) must reach ``where`` of the old
    fall-through; an inverted conditional swaps the two.  Jump-table
    entries, function entries and ``leader_map`` must agree with
    ``where``, and the data must carry over.
    """
    old = program.instructions
    new = new_program.instructions
    errors = []

    def fail(address, message, *args):
        errors.append(Finding("layout-translation", ERROR, message % args,
                              address))

    image = {}
    for address, source in enumerate(old_address_of):
        if source is None:
            if (new[address].op is not Opcode.JUMP or address == 0
                    or old_address_of[address - 1] is None
                    or new[address - 1].op in _NO_FALL_THROUGH):
                fail(address, "inserted %s does not follow a kept "
                     "instruction that falls through", new[address].op.value)
        elif source in image or not 0 <= source < len(old):
            fail(address, "old address %r placed twice or out of range",
                 source)
        else:
            image[source] = address
    for address, instr in enumerate(old):
        if address not in image and instr.op is not Opcode.JUMP:
            fail(None, "old %s at %d is missing", instr.op.value, address)

    def where(address):
        for _ in range(len(old) + 1):
            if address in image:
                return image[address]
            if not (isinstance(address, int) and 0 <= address < len(old)
                    and old[address].op is Opcode.JUMP):
                return None
            address = old[address].target
        return None

    def after(address):
        following = address + 1
        if following < len(new) and old_address_of[following] is None:
            return new[following].target
        return following

    for address, source in enumerate(old_address_of):
        if source is None:
            continue
        before, instr = old[source], new[address]
        target = before.target
        if before.is_branch and isinstance(target, int):
            target = where(target)
        fall_through = (where(source + 1)
                        if before.op not in _NO_FALL_THROUGH else None)
        if before.is_conditional and instr.op is not before.op:
            if instr.op is not invert_branch(before.op):
                fail(address, "%s became %s", before.op.value,
                     instr.op.value)
            target, fall_through = fall_through, target
        elif instr.op is not before.op:
            fail(address, "%s became %s", before.op.value, instr.op.value)
        if ((instr.dest, instr.a, instr.b, instr.imm, instr.n_slots)
                != (before.dest, before.a, before.b, before.imm,
                    before.n_slots)):
            fail(address, "operands of old %d changed", source)
        if instr.target != target:
            fail(address, "target %r, expected %r (old %d)", instr.target,
                 target, source)
        if fall_through is not None and after(address) != fall_through:
            fail(address, "falls through to %r, expected %r (old %d)",
                 after(address), fall_through, source)

    if len(new_program.jump_tables) != len(program.jump_tables):
        fail(None, "%d jump tables, expected %d",
             len(new_program.jump_tables), len(program.jump_tables))
    for table, duplicate in zip(program.jump_tables,
                                new_program.jump_tables):
        expected = [where(entry) for entry in table.entries]
        if duplicate.entries != expected:
            fail(None, "jump table %s is %r, expected %r", table.name,
                 duplicate.entries, expected)
    if new_program.functions != program.functions:
        fail(None, "functions changed")
    for name, label in program.functions.items():
        entry = new_program.labels.get(label)
        if entry != where(program.labels[label]):
            fail(None, "function %s enters at %r, expected %r", name,
                 entry, where(program.labels[label]))
    for leader, address in leader_map.items():
        if address != where(leader):
            fail(address, "leader %d maps to %d, expected %r", leader,
                 address, where(leader))
    if (new_program.data_init != program.data_init
            or new_program.globals_size != program.globals_size):
        fail(None, "global data changed")
    if errors:
        raise VerificationError("trace layout translation", errors)


class _PathMap:
    """Per-pc tables that carry a base run's block path over to the
    laid-out program, built once per layout.

    Indexed by the old pc a base block was entered at: ``image`` (its
    new pc, -1 for a deleted JUMP, which runs nothing) and ``flags``,
    which mark the few entries the mapping must look at twice.  Indexed
    by an old conditional: ``jumps`` (the JUMP appended after it, -1
    for none), ``inverted`` and ``ambiguous`` (its new taken pc is its
    new fall-through).  ``return_jumps`` holds the JUMP appended after
    the CALL just before a return point.  The laid-out program's
    tables cut it at the new pcs of the base leaders, so each mapped
    entry starts a block there.
    """

    CONDITIONAL = 1     # ends in a conditional with an appended JUMP
                        # or an ambiguous direction
    INDIRECT = 2        # ends in a JIND
    RETURN_JUMP = 4     # a return point whose CALL gained a JUMP
    DELETED = 8         # a deleted JUMP

    def __init__(self, layout):
        # Imported here, so importing layout does not load the compiled
        # VM: only a cold run derives traces.
        from repro.vm.compiled import block_tables

        base = layout.base
        old = base.instructions
        new = layout.program.instructions
        size = len(old)
        image = np.full(size, -1, dtype=np.intp)
        appended = {}
        for address, source in enumerate(layout.old_address_of):
            if source is None:
                appended[layout.old_address_of[address - 1]] = address
            else:
                image[source] = address
        # Base blocks are entered at leaders and at return points.
        leaders = compute_leaders(base)
        self.base = block_tables(base, leaders)
        self.tables = block_tables(
            layout.program, {int(image[leader]) for leader in leaders
                             if image[leader] >= 0})
        entries = set(leaders)
        entries.update(address + 1 for address, instr in enumerate(old)
                       if instr.op is Opcode.CALL and address + 1 < size)

        flags = np.zeros(size, dtype=np.int8)
        jumps = np.full(size, -1, dtype=np.intp)
        inverted = np.zeros(size, dtype=bool)
        ambiguous = np.zeros(size, dtype=bool)
        return_jumps = np.full(size, -1, dtype=np.intp)
        for entry in entries:
            end = int(self.base.ends[entry])
            kind = self.base.kinds[end]
            if kind == BranchClass.CONDITIONAL:
                site = int(image[end])
                jumps[end] = appended.get(end, -1)
                inverted[end] = new[site].op is not old[end].op
                ambiguous[end] = self.tables.ambiguous[site]
                if (jumps[end] >= 0 or ambiguous[end]
                        or self.base.ambiguous[end]):
                    flags[entry] |= self.CONDITIONAL
            elif kind == BranchClass.UNCONDITIONAL_UNKNOWN:
                flags[entry] |= self.INDIRECT
            if (entry > 0 and old[entry - 1].op is Opcode.CALL
                    and entry - 1 in appended):
                flags[entry] |= self.RETURN_JUMP
                return_jumps[entry] = appended[entry - 1]
            if image[entry] < 0:
                flags[entry] |= self.DELETED
        self.image = image
        self.flags = flags
        self.marked = flags != 0
        self.jumps = jumps
        self.inverted = inverted
        self.ambiguous = ambiguous
        self.return_jumps = return_jumps
        self.table_entries = np.zeros(size, dtype=bool)
        for table in base.jump_tables:
            self.table_entries[table.entries] = True

    def trace(self, path, budget):
        """The laid-out run's trace (see
        :meth:`LayoutResult.derive_traces`)."""
        starts = path.starts.astype(np.intp)
        marked = np.flatnonzero(self.marked[starts])
        marks = self.flags[starts[marked]]

        indirect = marked[(marks & self.INDIRECT) != 0]
        stray = indirect[~self.table_entries[starts[indirect + 1]]]
        if len(stray):
            raise MachineError(
                "indirect jump at pc %d went to %d, which is no "
                "jump-table entry: layout cannot remap it"
                % (self.base.ends[starts[stray[0]]], starts[stray[0] + 1]))

        # A conditional's new direction (and so whether it runs its
        # appended JUMP) follows from its old one.
        conditional = marked[(marks & self.CONDITIONAL) != 0]
        sites = self.base.ends[starts[conditional]]
        taken = starts[conditional + 1] == self.base.taken_pcs[sites]
        taken[self.base.ambiguous[sites]] = path.directions
        directions = (taken ^ self.inverted[sites])[self.ambiguous[sites]]
        jumps = self.jumps[sites]
        fell = (jumps >= 0) & ~taken

        # A RET into a CALL's appended JUMP runs that JUMP first.
        returns = marked[(marks & self.RETURN_JUMP) != 0]
        returns = returns[returns > 0]
        returns = returns[self.base.kinds[starts[returns - 1]]
                          == BranchClass.RETURN]

        mapped = self.image[starts]
        before = np.concatenate((conditional[fell] + 1, returns))
        if len(before):
            mapped = np.insert(mapped, before, np.concatenate(
                (jumps[fell], self.return_jumps[starts[returns]])))
        if (marks & self.DELETED).any():
            mapped = mapped[mapped >= 0]
        return self.tables.trace(mapped, directions, budget)


def _rotate_cyclic_trace(trace, cfg):
    """Rotate a cyclic trace so a conditional branch closes the loop.

    Trace growth often returns the loop header first (it is the
    heaviest block), which would close the loop with an inserted JUMP
    and leave no likely-taken conditional for forward slots.  When the
    trace is a cycle (its last block has an edge back to its first) and
    some in-trace chain edge is the *taken* edge of a conditional
    branch, rotating the trace to start just past that edge turns it
    into the trace-closing branch — the natural bottom-tested loop
    shape with a likely-taken backward conditional, exactly the code
    the paper's Forward Semantic expects.
    """
    blocks = trace.blocks
    if len(blocks) < 2:
        return
    last = cfg.block_at(blocks[-1])
    if blocks[0] not in last.successors():
        return  # not a cycle: rotation would break the chain
    for pivot in range(1, len(blocks)):
        previous = cfg.block_at(blocks[pivot - 1])
        is_conditional = (previous.taken_target is not None
                          and previous.fall_through is not None)
        if is_conditional and previous.taken_target == blocks[pivot]:
            trace.blocks = blocks[pivot:] + blocks[:pivot]
            return


def _set_likely(terminator, profile, old_site, inverted):
    """Assign the likely-taken bit from the profiled taken fraction."""
    fraction = profile.taken_fraction(old_site)
    if fraction is None:
        terminator.likely = False  # never profiled: predict not-taken
        return
    if inverted:
        fraction = 1.0 - fraction
    terminator.likely = fraction > 0.5


def build_fs_program(program, profile, verify=True):
    """Convenience pipeline: CFG -> trace selection -> layout.

    Returns the :class:`LayoutResult` for ``program`` under
    ``profile``.
    """
    cfg = ControlFlowGraph.from_program(program)
    traces = select_traces(cfg, profile)
    return lay_out_traces(program, cfg, profile, traces, verify=verify)
