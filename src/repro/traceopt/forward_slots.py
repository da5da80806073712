"""Forward-slot filling: the paper's code-expansion algorithm.

For every conditional branch predicted taken (the likely bit set by the
layout pass), ``n_slots`` = k + l locations are reserved directly after
the branch and filled with copies of the first instructions of the
branch's target path; the branch target is advanced past the copied
prefix.  When the target path runs out early the remaining slots are
filled with NO-OPs, exactly as in the paper's algorithm.

Absorption rules (which instructions may be copied into slots):

* ordinary instructions, including TABLE and I/O, are copied verbatim;
* *unlikely* conditional branches are absorbed with their original
  targets unaltered (the paper's Figure 2 example); when one fires
  inside the slots it redirects fetch and cancels the alternate PC,
  matching the original path;
* an unconditional JUMP / RET / JIND / HALT is absorbed and ends the
  copy (everything after it on the target path is unreachable from the
  slots);
* the copy stops *before* a likely-taken conditional branch (its own
  slots live in the target trace and are not duplicated), before a
  JUMP under the ``fill_unconditional`` ablation (likewise: it owns
  slots of its own) and before a CALL (a call would return into the
  middle of the slot region).

The transformation preserves semantics: `tests/test_fs_semantics.py`
executes every benchmark in both ``direct`` and ``execute`` slot modes
and compares outputs byte for byte.
"""

from repro.analysis.verify import assert_valid
from repro.isa.opcodes import Opcode
from repro.isa.instruction import Instruction
from repro.isa.program import Program


class ExpansionReport:
    """Static code-size accounting for Table 5."""

    __slots__ = ("original_size", "expanded_size", "likely_branches",
                 "copied_instructions", "padding_nops", "n_slots")

    def __init__(self, original_size, expanded_size, likely_branches,
                 copied_instructions, padding_nops, n_slots):
        self.original_size = original_size
        self.expanded_size = expanded_size
        self.likely_branches = likely_branches
        self.copied_instructions = copied_instructions
        self.padding_nops = padding_nops
        self.n_slots = n_slots

    @property
    def expansion_fraction(self):
        """Relative code-size increase (the Table 5 metric)."""
        if self.original_size == 0:
            return 0.0
        return (self.expanded_size - self.original_size) / self.original_size

    def __repr__(self):
        return ("ExpansionReport(%d -> %d instructions, %d likely branches, "
                "+%.2f%%)" % (self.original_size, self.expanded_size,
                              self.likely_branches,
                              100.0 * self.expansion_fraction))


_COPY_ENDERS = frozenset({Opcode.JUMP, Opcode.RET, Opcode.JIND, Opcode.HALT})


def _owns_slots(instr, fill_unconditional):
    """True when slot filling reserves slots after ``instr``."""
    return (instr.is_conditional and instr.likely) or (
        fill_unconditional and instr.op is Opcode.JUMP)


def _collect_slot_copies(instructions, target, n_slots, absorb_branches,
                         fill_unconditional):
    """Choose the target-path prefix to copy into the slots.

    Returns (copies, consumed): ``copies`` are instruction copies (at
    most ``n_slots``), ``consumed`` is how far the copied prefix
    advances along the target path.  The copy stops before any
    instruction that owns slots itself, so the copied prefix stays
    contiguous in the expanded text and the adjusted target lands
    exactly ``consumed`` past the original one.

    With ``absorb_branches=False`` the copy stops before ANY control
    transfer — the restriction of the "Delayed Branch with Squashing"
    scheme the paper contrasts against, where "no branch instructions
    could be absorbed into the delay slots".
    """
    copies = []
    size = len(instructions)
    while len(copies) < n_slots:
        address = target + len(copies)
        if address >= size:
            break
        candidate = instructions[address]
        if _owns_slots(candidate, fill_unconditional):
            break
        if candidate.op is Opcode.CALL:
            break
        if not absorb_branches and candidate.is_branch:
            break
        copies.append(candidate.copy())
        if candidate.op in _COPY_ENDERS:
            break
    return copies, len(copies)


def fill_forward_slots(program, n_slots, fill_unconditional=False,
                       absorb_branches=True, verify=True):
    """Apply forward-slot filling to a laid-out program.

    Args:
        program: resolved program whose conditional branches carry
            likely bits (output of the layout pass).
        n_slots: slots reserved per likely-taken branch (k + l in the
            paper); 0 returns an unmodified copy.
        fill_unconditional: also reserve slots after direct JUMPs (an
            ablation; the paper's Table 5 accounts only predicted-taken
            conditional branches).
        absorb_branches: allow unlikely branches / jumps / returns in
            the slots (the Forward Semantic's advantage); False models
            the Delayed-Branch-with-Squashing restriction and pads with
            NO-OPs instead.
        verify: run the IR verifier on the expanded program (checks,
            among the rest, the slot-region invariant: the copies must
            be a faithful target-path prefix and nothing may jump into
            the middle of a slot region).

    Returns:
        (new_program, :class:`ExpansionReport`)
    """
    if n_slots < 0:
        raise ValueError("n_slots must be non-negative")
    old_instructions = program.instructions
    original_size = len(old_instructions)

    new_program = Program(program.name)
    new_program.globals_size = program.globals_size
    new_program.data_init = dict(program.data_init)
    new_instructions = new_program.instructions

    address_map = {}
    slotted = []  # (new index of branch, old target, consumed)
    likely_branches = 0
    copied_total = 0
    padding_total = 0

    for old_address, instr in enumerate(old_instructions):
        address_map[old_address] = len(new_instructions)
        duplicate = instr.copy()
        new_instructions.append(duplicate)
        if n_slots == 0:
            continue

        if not _owns_slots(duplicate, fill_unconditional):
            continue

        likely_branches += 1
        copies, consumed = _collect_slot_copies(
            old_instructions, duplicate.target, n_slots, absorb_branches,
            fill_unconditional)
        copied_total += len(copies)
        padding = n_slots - len(copies)
        padding_total += padding
        duplicate.n_slots = n_slots
        slotted.append((len(new_instructions) - 1, duplicate.target, consumed))
        new_instructions.extend(copies)
        new_instructions.extend(
            Instruction(Opcode.NOP) for _ in range(padding))

    # Remap branch targets.  Slotted branches get their original target
    # recorded and their architectural target advanced past the copied
    # prefix; everything else maps straight through.
    slotted_info = {index: (target, consumed)
                    for index, target, consumed in slotted}
    for index, instr in enumerate(new_instructions):
        if not (instr.is_branch and isinstance(instr.target, int)):
            continue
        if index in slotted_info:
            old_target, consumed = slotted_info[index]
            instr.orig_target = address_map[old_target]
            landing = old_target + consumed
            if instr.op is Opcode.JUMP:
                # Ablation only: slots after a JUMP are dead padding for
                # size accounting; the jump keeps its real target.
                instr.target = address_map[old_target]
            elif landing < original_size:
                instr.target = address_map[landing]
            else:
                # The copied prefix ended in a control transfer at the
                # end of the program; the adjusted target is unreachable.
                instr.target = address_map[old_target]
        else:
            instr.target = address_map[instr.target]

    for table in program.jump_tables:
        duplicate = table.copy()
        duplicate.entries = [address_map[entry] for entry in duplicate.entries]
        new_program.jump_tables.append(duplicate)
    for name, label in program.functions.items():
        new_program.labels[label] = address_map[program.labels[label]]
        new_program.functions[name] = label
    if program.lines:
        # Slot copies keep no line of their own; original instructions
        # carry theirs to the expanded addresses.
        new_program.lines = {
            address_map[old_address]: line
            for old_address, line in program.lines.items()
        }

    new_program.resolved = True
    new_program.validate()
    if verify:
        assert_valid(new_program, context="forward-slot filling")
    report = ExpansionReport(original_size, len(new_instructions),
                             likely_branches, copied_total, padding_total,
                             n_slots)
    return new_program, report
