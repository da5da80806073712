"""Register facts over the flow graph: liveness and defined registers.

Both analyses use integer bitmasks over register numbers and the ∪
join, and both read the same two per-block masks: the registers a
block reads before writing them (its upward-exposed *uses*) and the
registers it *writes*.

* **Liveness** (backward): a register is live at a point when some
  path from that point reads it before writing it.  ``RET`` and
  ``HALT`` exits have nothing live (the frame dies with the activation
  — frames are private, see :mod:`repro.analysis.effects`).  Its
  payoff query is :func:`dead_register_writes`: pure writes the
  optimizer may delete.
* **Defined registers** (forward, the mirror of liveness): a register
  is defined at a point when some path from the function entry writes
  it.  Transfer is ``in | writes``; each function entry starts with
  its argument registers ``r0..rK`` (the machine seeds a callee frame
  from the staged ``ARG`` values;
  :func:`~repro.analysis.effects.function_argument_counts` bounds K).
  Its query is :func:`use_before_def`.

The defined set is exactly the set of registers with at least one
reaching definition: a block kills a register's reaching definitions
only when it writes that register again, and its own write then
reaches instead, so a register never loses its last reaching
definition.
"""

from repro.analysis.dataflow import Analysis, solve
from repro.analysis.effects import (
    function_argument_counts,
    is_pure_write,
    register_written,
    registers_read,
)


def _block_masks(graph):
    """Per block index: (upward-exposed use mask, write mask)."""
    instructions = graph.cfg.program.instructions
    uses = []
    writes = []
    for block in graph.cfg.blocks:
        use = write = 0
        for instr in instructions[block.start:block.end]:
            for register in registers_read(instr):
                if not write >> register & 1:
                    use |= 1 << register
            written = register_written(instr)
            if written is not None:
                write |= 1 << written
        uses.append(use)
        writes.append(write)
    return uses, writes


class _LivenessAnalysis(Analysis):
    direction = "backward"

    def __init__(self, graph):
        self.use, self.write = _block_masks(graph)

    def initial(self, graph, index):
        return 0

    def join(self, left, right):
        return left | right

    def transfer(self, graph, index, live_out):
        return self.use[index] | (live_out & ~self.write[index])


class _DefinedAnalysis(Analysis):
    direction = "forward"

    def __init__(self, graph, writes):
        self.write = writes
        program = graph.cfg.program
        self.entry_masks = {
            graph.index_of(entry): (1 << count) - 1
            for entry, count in function_argument_counts(program).items()}

    def initial(self, graph, index):
        return 0

    def boundary(self, graph, index):
        return self.entry_masks.get(index)

    def join(self, left, right):
        return left | right

    def transfer(self, graph, index, defined_in):
        return defined_in | self.write[index]


class Liveness:
    """Fixed-point liveness of a program.

    Attributes:
        live_in: {leader address: bitmask live at block entry}.
        live_out: {leader address: bitmask live at block exit}.
    """

    def __init__(self, live_in, live_out):
        self.live_in = live_in
        self.live_out = live_out

    def is_live_in(self, leader, register):
        return bool(self.live_in[leader] >> register & 1)


def compute_liveness(graph):
    """Solve liveness over a :class:`FlowGraph`; returns :class:`Liveness`."""
    result = solve(graph, _LivenessAnalysis(graph))
    leaders = [block.start for block in graph.cfg.blocks]
    # Backward analysis: solver "inputs" are block-end values.
    return Liveness(dict(zip(leaders, result.outputs)),
                    dict(zip(leaders, result.inputs)))


def dead_register_writes(graph):
    """Addresses of removable dead writes.

    An address qualifies when its instruction is a pure register write
    (:func:`~repro.analysis.effects.is_pure_write`) whose destination
    is dead afterwards, and it does not sit inside a forward-slot
    region (slot regions must keep their exact length).

    The dead set is computed as if all qualifying writes are deleted
    together: while walking a block backwards, a dead write's own
    reads do not keep its sources live, so chains like
    ``li r1; mov r2, r1`` with ``r2`` dead are caught in one pass.
    """
    liveness = compute_liveness(graph)
    instructions = graph.cfg.program.instructions

    protected = [False] * len(instructions)
    for address, instr in enumerate(instructions):
        for offset in range(1, instr.n_slots + 1):
            if address + offset < len(instructions):
                protected[address + offset] = True

    dead = []
    for block in graph.cfg.blocks:
        live = liveness.live_out[block.start]
        for address in range(block.end - 1, block.start - 1, -1):
            instr = instructions[address]
            written = register_written(instr)
            removable = (
                written is not None
                and not live >> written & 1
                and is_pure_write(instr)
                and not protected[address]
            )
            if removable:
                dead.append(address)
                continue  # deleted: no effect on liveness
            if written is not None:
                live &= ~(1 << written)
            for register in registers_read(instr):
                live |= 1 << register
    dead.reverse()
    return dead


def use_before_def(graph, blocks=None):
    """Reads of registers that no path from the function entry writes.

    Executing such a read would fault in the VM (a ``KeyError`` on the
    register file).  It is a may-analysis, so it never flags a read
    that some path does define.

    Args:
        graph: the program's :class:`FlowGraph`.
        blocks: optional iterable of block leaders to restrict the
            scan to (typically the reachable blocks — unreachable code
            has no paths from any entry and would flag every read).

    Returns a list of (address, register) pairs in address order.
    """
    uses, writes = _block_masks(graph)
    defined = solve(graph, _DefinedAnalysis(graph, writes)).inputs
    instructions = graph.cfg.program.instructions
    wanted = None if blocks is None else set(blocks)

    faults = []
    for index, block in enumerate(graph.cfg.blocks):
        # Only a use the block does not write first can miss a
        # definition, so most blocks need no scan.
        if not uses[index] & ~defined[index] or (
                wanted is not None and block.start not in wanted):
            continue
        mask = defined[index]
        for address in range(block.start, block.end):
            instr = instructions[address]
            for register in registers_read(instr):
                if not mask >> register & 1:
                    faults.append((address, register))
            written = register_written(instr)
            if written is not None:
                mask |= 1 << written
    return faults
