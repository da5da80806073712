"""Dead-code elimination: unreachable blocks and dead register writes.

Two independent reductions share this module:

* :func:`remove_dead_code` marks every instruction reachable from the
  program entry by following fall-through, branch targets, call
  targets, jump-table entries, and call-return continuations, then
  drops the rest.  Function entries not reachable from the entry
  point are dropped along with their bodies (their ``functions``
  entries are removed too).
* :func:`remove_dead_writes` deletes pure register writes whose
  destination the liveness analysis (:mod:`repro.analysis.registers`)
  proves is never read afterwards — typically ``LI`` sources left
  behind by constant folding.  Writes with side effects or possible
  faults (``LOAD``, ``DIV``, ``GETC``, ...) are never touched, nor is
  anything inside a forward-slot region.
"""

from repro.analysis.dataflow import FlowGraph
from repro.analysis.registers import dead_register_writes
from repro.isa.opcodes import Opcode
from repro.opt.rewrite import rebuild

_NO_FALL_THROUGH = frozenset({Opcode.JUMP, Opcode.RET, Opcode.JIND,
                              Opcode.HALT})


def _reachable(program):
    instructions = program.instructions
    size = len(instructions)
    reachable = [False] * size
    worklist = [program.entry]
    table_entries = [entry for table in program.jump_tables
                     for entry in table.entries]

    while worklist:
        address = worklist.pop()
        while 0 <= address < size and not reachable[address]:
            reachable[address] = True
            instr = instructions[address]
            op = instr.op
            if instr.is_branch and isinstance(instr.target, int):
                if not reachable[instr.target]:
                    worklist.append(instr.target)
            if op is Opcode.JIND:
                # Conservatively: any jump-table entry is a successor.
                for entry in table_entries:
                    if not reachable[entry]:
                        worklist.append(entry)
            if op in _NO_FALL_THROUGH:
                break
            # Forward slots belong to their branch: keep them (their
            # own control flow is covered by the branch targets).
            for offset in range(1, instr.n_slots + 1):
                if address + offset < size:
                    reachable[address + offset] = True
            # CALL and conditional branches fall through, past any
            # slots the instruction owns.
            address += 1 + instr.n_slots
    return reachable


def remove_dead_code(program):
    """Return (new_program, instructions removed)."""
    reachable = _reachable(program)
    removed = reachable.count(False)
    if removed == 0:
        return program.copy(), 0

    new_program = rebuild(program, reachable)
    # Drop function symbols whose entry died.
    dead_functions = [
        name for name, label in program.functions.items()
        if not reachable[program.labels[label]]
    ]
    for name in dead_functions:
        label = new_program.functions.pop(name)
        new_program.labels.pop(label, None)
    new_program.validate()
    return new_program, removed


def remove_dead_writes(program):
    """Delete pure writes to dead registers.

    Returns (new_program, instructions removed).  ``rebuild`` forwards
    branch targets pointing at a deleted write to the next kept
    instruction, which is exactly the deleted write's behaviour (its
    only effect was reaching the next instruction once its destination
    is dead).
    """
    dead = dead_register_writes(FlowGraph.from_program(program))
    if not dead:
        return program.copy(), 0
    keep = [True] * len(program.instructions)
    for address in dead:
        keep[address] = False
    return rebuild(program, keep), len(dead)
