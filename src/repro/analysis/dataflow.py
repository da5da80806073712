"""Generic worklist dataflow solver over control-flow graphs.

Two pieces:

* :class:`FlowGraph` refines the *layout* successors of
  :class:`~repro.cfg.ControlFlowGraph` into *flow* successors suitable
  for dataflow: a ``JIND`` terminator gets edges to its jump-table
  entries (the table is recovered from the ``TABLE`` instruction that
  feeds the jump's register when possible, conservatively all tables
  otherwise), while ``RET``/``HALT`` remain exits.  ``CALL`` is an
  ordinary mid-block instruction — register frames are private per
  activation, so no flow edge crosses a function boundary.

* :func:`solve` runs any :class:`Analysis` to a fixed point with a
  worklist seeded in reverse post-order (forward) or post-order
  (backward).  Lattice values are opaque to the solver; analyses
  supply ``join`` and ``transfer`` and may use whatever value
  representation they like (the concrete analyses here use integer
  bitmasks).
"""

from repro.cfg import ControlFlowGraph
from repro.isa.opcodes import Opcode


class FlowGraph:
    """Flow successor/predecessor structure over a CFG's blocks.

    Every analysis takes one; ``graph.cfg`` and ``graph.cfg.program``
    reach the blocks and the program it was built from.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        blocks = cfg.blocks
        index_of = {block.start: position
                    for position, block in enumerate(blocks)}
        successors = []
        # Blocks whose JIND could not be tied to a specific table and
        # got the all-entries fallback; the verifier's function-region
        # flood must not follow those edges (they may cross functions).
        self.fallback_indirect = set()
        for position, block in enumerate(blocks):
            terminator = cfg.program.instructions[block.end - 1]
            if terminator.op is Opcode.JIND:
                targets, resolved = _indirect_targets(
                    cfg.program, block, terminator)
                if not resolved:
                    self.fallback_indirect.add(position)
            elif terminator.is_conditional and terminator.n_slots:
                targets = _slotted_targets(cfg.program, block, terminator)
            else:
                targets = block.successors()
            successors.append(sorted({index_of[target] for target in targets
                                      if target in index_of}))
        predecessors = [[] for _ in blocks]
        for position, targets in enumerate(successors):
            for target in targets:
                predecessors[target].append(position)
        self._index_of = index_of
        self.successors = successors
        self.predecessors = predecessors

    @classmethod
    def from_program(cls, program):
        """The flow graph of a resolved program."""
        return cls(ControlFlowGraph.from_program(program))

    def index_of(self, leader):
        """Block index of a leader address."""
        return self._index_of[leader]

    def __len__(self):
        return len(self.successors)


def _indirect_targets(program, block, terminator):
    """(targets, resolved) for a JIND terminator.

    Walks the block backwards looking for the ``TABLE`` instruction
    that last defined the jump register; falls back to every entry of
    every table (``resolved=False``) when the feeding table cannot be
    identified.
    """
    register = terminator.a
    for address in range(block.end - 2, block.start - 1, -1):
        instr = program.instructions[address]
        if instr.dest != register:
            continue
        if instr.op is Opcode.TABLE \
                and 0 <= instr.imm < len(program.jump_tables):
            return program.jump_tables[instr.imm].entries, True
        break  # redefined by something other than a TABLE: give up
    return [entry for table in program.jump_tables
            for entry in table.entries], False


_UNCONDITIONAL_ENDERS = frozenset({Opcode.JUMP, Opcode.RET, Opcode.JIND,
                                   Opcode.HALT})


def _slotted_targets(program, block, terminator):
    """Taken-edge successors of a forward-slot-filled branch.

    The architectural target of a slotted branch is advanced past the
    copied prefix (``consumed = target - orig_target``).  When the
    copy ended by absorbing an unconditional transfer, the alternate-PC
    countdown is always cancelled before it expires, so the adjusted
    target is a *phantom*: no execution reaches it from this branch —
    and after trace interleaving it may not even belong to the same
    function.  Taken control then flows where the absorbed transfer
    goes (covered by the fall-through edge into the slot copies), and
    direct mode jumps to the original target, so the edge set is
    {orig_target, fall-through} instead of {target, fall-through}.
    """
    target = terminator.target
    orig = terminator.orig_target
    if isinstance(orig, int):
        consumed = target - orig
        if 0 < consumed <= terminator.n_slots:
            last_copy = program.instructions[block.end - 1 + consumed]
            if last_copy.op in _UNCONDITIONAL_ENDERS:
                target = orig
    targets = [target]
    if block.fall_through is not None and block.fall_through != target:
        targets.append(block.fall_through)
    return targets


class Analysis:
    """Base class for dataflow analyses.

    Subclasses set ``direction`` to ``"forward"`` or ``"backward"``
    and implement the lattice hooks.  ``boundary`` may return ``None``
    for blocks that carry no boundary value (everything except entry /
    exit blocks, typically).
    """

    direction = "forward"

    def initial(self, graph, index):
        """The optimistic starting value (lattice top) for a block."""
        raise NotImplementedError

    def boundary(self, graph, index):
        """Boundary value joined into a block's input, or None."""
        return None

    def join(self, left, right):
        """Combine two lattice values at a control-flow merge."""
        raise NotImplementedError

    def transfer(self, graph, index, value):
        """Push a value through a block; returns the output value."""
        raise NotImplementedError


class DataflowResult:
    """Per-block fixed-point values, keyed by block index or leader."""

    __slots__ = ("graph", "inputs", "outputs")

    def __init__(self, graph, inputs, outputs):
        self.graph = graph
        self.inputs = inputs
        self.outputs = outputs


def postorder(graph, roots=None):
    """Post-order block indices from ``roots`` (default: all blocks
    without predecessors, plus any block left unvisited — so every
    block appears exactly once even in unreachable cycles)."""
    count = len(graph)
    if roots is None:
        roots = [index for index in range(count)
                 if not graph.predecessors[index]]
    visited = [False] * count
    order = []

    def visit(start):
        stack = [(start, iter(graph.successors[start]))]
        visited[start] = True
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if not visited[successor]:
                    visited[successor] = True
                    stack.append(
                        (successor, iter(graph.successors[successor])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    for root in roots:
        if not visited[root]:
            visit(root)
    for index in range(count):
        if not visited[index]:
            visit(index)
    return order


def solve(graph, analysis):
    """Run ``analysis`` over ``graph`` to a fixed point.

    Returns a :class:`DataflowResult` whose ``inputs``/``outputs`` are
    the values flowing into and out of each block *in the direction of
    the analysis* (for a backward analysis, ``inputs`` holds the
    value at the block's end).
    """
    count = len(graph)
    forward = analysis.direction == "forward"
    order = postorder(graph)
    if forward:
        order = order[::-1]  # reverse post-order converges fastest
        incoming_edges = graph.predecessors
        outgoing_edges = graph.successors
    else:
        incoming_edges = graph.successors
        outgoing_edges = graph.predecessors

    position_in_order = {index: position
                         for position, index in enumerate(order)}
    inputs = [None] * count
    outputs = [None] * count
    for index in range(count):
        inputs[index] = analysis.initial(graph, index)
        outputs[index] = analysis.transfer(graph, index, inputs[index])

    pending = set(range(count))
    worklist = list(order)
    while worklist:
        next_round = []
        for index in worklist:
            if index not in pending:
                continue
            pending.discard(index)
            value = analysis.boundary(graph, index)
            for edge in incoming_edges[index]:
                contribution = outputs[edge]
                value = (contribution if value is None
                         else analysis.join(value, contribution))
            if value is None:
                value = analysis.initial(graph, index)
            inputs[index] = value
            result = analysis.transfer(graph, index, value)
            if result != outputs[index]:
                outputs[index] = result
                for edge in outgoing_edges[index]:
                    if edge not in pending:
                        pending.add(edge)
                        next_round.append(edge)
        worklist = sorted(set(next_round) | pending,
                          key=position_in_order.__getitem__)
    return DataflowResult(graph, inputs, outputs)
