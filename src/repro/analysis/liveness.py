"""Register liveness (backward, may, union join).

A register is *live* at a point when some path from that point reads
it before writing it.  Values are integer bitmasks over register
numbers; ``RET`` and ``HALT`` exits have nothing live (the frame dies
with the activation — frames are private, see
:mod:`repro.analysis.effects`).

The payoff query is :func:`dead_register_writes`: addresses whose
instruction writes a register that is never subsequently read and has
no other effect, i.e. instructions the optimizer may delete.
"""

from repro.analysis.dataflow import Analysis, FlowGraph, solve
from repro.analysis.effects import (
    is_pure_write,
    register_written,
    registers_read,
)
from repro.cfg import ControlFlowGraph


class _LivenessAnalysis(Analysis):
    direction = "backward"

    def __init__(self, graph):
        self.use = []
        self.define = []
        program = graph.cfg.program
        for block in graph.cfg.blocks:
            use_mask = 0
            define_mask = 0
            for address in range(block.end - 1, block.start - 1, -1):
                instr = program.instructions[address]
                written = register_written(instr)
                if written is not None:
                    bit = 1 << written
                    define_mask |= bit
                    use_mask &= ~bit
                for register in registers_read(instr):
                    use_mask |= 1 << register
            self.use.append(use_mask)
            self.define.append(define_mask)

    def initial(self, graph, index):
        return 0

    def boundary(self, graph, index):
        # Exit blocks (RET/HALT/off-the-end) have empty live-out; a
        # block with no flow successors contributes None edges anyway,
        # so the empty default suffices.
        return None

    def join(self, left, right):
        return left | right

    def transfer(self, graph, index, live_out):
        return self.use[index] | (live_out & ~self.define[index])


class Liveness:
    """Fixed-point liveness of a program.

    Attributes:
        graph: the :class:`~repro.analysis.dataflow.FlowGraph` used.
        live_in: {leader address: bitmask live at block entry}.
        live_out: {leader address: bitmask live at block exit}.
    """

    def __init__(self, graph, live_in, live_out):
        self.graph = graph
        self.live_in = live_in
        self.live_out = live_out

    def is_live_in(self, leader, register):
        return bool(self.live_in[leader] >> register & 1)


def compute_liveness(program, cfg=None, graph=None):
    """Solve liveness for a resolved program; returns :class:`Liveness`."""
    if graph is None:
        graph = FlowGraph(cfg or ControlFlowGraph.from_program(program))
    result = solve(graph, _LivenessAnalysis(graph))
    live_in = {}
    live_out = {}
    for index, block in enumerate(graph.cfg.blocks):
        # Backward analysis: solver "inputs" are block-end values.
        live_out[block.start] = result.inputs[index]
        live_in[block.start] = result.outputs[index]
    return Liveness(graph, live_in, live_out)


def dead_register_writes(program, cfg=None, liveness=None):
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
    if liveness is None:
        if cfg is None:
            cfg = ControlFlowGraph.from_program(program)
        liveness = compute_liveness(program, cfg=cfg)
    graph = liveness.graph
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
