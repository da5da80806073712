"""Profile-free branch prediction: Ball-Larus heuristics over the IR.

Each conditional branch gets an estimated probability of being taken,
derived purely from program structure — no profiling run.  The
heuristics are the classic Ball-Larus set adapted to this ISA, with
the Wu-Larus refinement that each heuristic carries a *confidence*
(its published dynamic hit rate) and multiple applicable heuristics
are combined by Dempster-Shafer evidence combination instead of
first-match.

Heuristics (name — vote — confidence):

``loop``         the taken (resp. fall-through) edge is a loop back
                 edge: vote taken (resp. not-taken).  0.88
``loop-exit``    the branch is inside a loop and exactly one successor
                 leaves it: vote for the side that stays.  0.80
``loop-header``  exactly one successor is the header of a loop not
                 containing the branch (i.e. it enters a loop): vote
                 for it.  0.75
``opcode``       equality rarely holds (BEQ not-taken, BNE taken);
                 comparisons against a block-local constant zero are
                 rarely negative (BLT/BLE vs 0 not-taken, BGT/BGE vs 0
                 taken).  0.84
``call``         exactly one successor block contains a CALL: vote the
                 other side.  0.78
``return``       exactly one successor block ends the function (RET):
                 vote the other side.  0.72
``store``        exactly one successor block contains a STORE: vote
                 the other side (weak evidence).  0.55
``degenerate``   both operands are the same register or block-local
                 constants, so the outcome is a compile-time constant:
                 certainty 1.0 (also surfaced by the
                 ``degenerate-branch`` diagnostics rule).

A branch no heuristic fires on keeps probability 0.5 — downstream
consumers treat that as "predict not-taken", matching the layout
pass's behaviour for never-profiled branches.
"""

from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import FlowGraph
from repro.analysis.effects import function_entry_addresses
from repro.analysis.staticpred.loops import LoopNest, find_loops
from repro.cfg import BasicBlock
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: Confidence (probability the vote direction is correct) per
#: heuristic, from Wu & Larus's measured hit rates.
HEURISTIC_CONFIDENCE: Dict[str, float] = {
    "loop": 0.88,
    "loop-exit": 0.80,
    "loop-header": 0.75,
    "opcode": 0.84,
    "call": 0.78,
    "return": 0.72,
    "store": 0.55,
    "degenerate": 1.0,
}

#: Deterministic evaluation/report order of the heuristics.
HEURISTIC_ORDER: Tuple[str, ...] = (
    "degenerate", "loop", "loop-exit", "loop-header", "opcode",
    "call", "return", "store",
)


class BranchEstimate:
    """The static prediction for one conditional branch site.

    Attributes:
        site: instruction address of the branch.
        block: leader address of the branch's basic block.
        taken_probability: estimated probability the branch is taken.
        votes: ``(heuristic name, predicts-taken)`` pairs that fired.
    """

    __slots__ = ("site", "block", "taken_probability", "votes")

    def __init__(self, site: int, block: int, taken_probability: float,
                 votes: Tuple[Tuple[str, bool], ...]) -> None:
        self.site = site
        self.block = block
        self.taken_probability = taken_probability
        self.votes = votes

    @property
    def predicts_taken(self) -> bool:
        """The predicted direction (ties break to not-taken)."""
        return self.taken_probability > 0.5

    def __repr__(self) -> str:
        return "BranchEstimate(site=%d, p_taken=%.3f, votes=%r)" % (
            self.site, self.taken_probability, self.votes)


def combine_votes(votes: List[Tuple[str, bool]]) -> float:
    """Dempster-Shafer combination of heuristic votes into P(taken)."""
    probability = 0.5
    for name, taken in votes:
        confidence = HEURISTIC_CONFIDENCE[name]
        vote = confidence if taken else 1.0 - confidence
        denominator = (probability * vote
                       + (1.0 - probability) * (1.0 - vote))
        if denominator <= 0.0:
            # Two contradicting certainties; keep the running value.
            continue
        probability = probability * vote / denominator
    return probability


def predict_branches(graph: FlowGraph) -> Dict[int, BranchEstimate]:
    """Estimate P(taken) for every conditional branch site.

    Returns {branch address: :class:`BranchEstimate`} covering every
    conditional branch of the program, including branches unreachable
    from any function entry (those get the no-evidence 0.5).
    """
    cfg = graph.cfg
    program = cfg.program
    roots = dict(function_entry_addresses(program))
    entry_leader = cfg.block_of(program.entry).start
    roots.setdefault(entry_leader, "<entry>")

    estimates: Dict[int, BranchEstimate] = {}
    claimed: set = set()
    for root in sorted(roots):
        root_index = graph.index_of(cfg.block_of(root).start)
        nest = find_loops(graph, root_index)
        for index in sorted(nest.reachable):
            if index in claimed:
                continue
            claimed.add(index)
            block = cfg.blocks[index]
            estimate = _estimate_block(graph, nest, block)
            if estimate is not None:
                estimates[estimate.site] = estimate

    # Conditional branches in unreachable code still get an estimate so
    # StaticProfile stays total over the text.
    for address, instr in enumerate(program.instructions):
        if instr.is_conditional and address not in estimates:
            leader = cfg.block_of(address).start
            estimates[address] = BranchEstimate(address, leader, 0.5, ())
    return estimates


def _estimate_block(graph: FlowGraph, nest: LoopNest,
                    block: BasicBlock) -> Optional[BranchEstimate]:
    cfg = graph.cfg
    program = cfg.program
    site = block.end - 1
    terminator = program.instructions[site]
    if not terminator.is_conditional:
        return None
    taken = block.taken_target
    fall = block.fall_through
    if taken is None or fall is None or taken == fall:
        # Degenerate flow (branch to the next instruction): direction
        # does not matter, keep the no-evidence estimate.
        return BranchEstimate(site, block.start, 0.5, ())

    constant = _constant_outcome(program, block, terminator)
    if constant is not None:
        return BranchEstimate(site, block.start,
                              1.0 if constant else 0.0,
                              (("degenerate", constant),))

    index = graph.index_of(block.start)
    taken_index = graph.index_of(taken)
    fall_index = graph.index_of(fall)
    votes: List[Tuple[str, bool]] = []

    # loop: a back edge is virtually always followed.
    taken_back = (index, taken_index) in nest.back_edges
    fall_back = (index, fall_index) in nest.back_edges
    if taken_back != fall_back:
        votes.append(("loop", taken_back))

    # loop-exit: stay in the loop.
    loop = nest.innermost(index)
    if loop is not None and not (taken_back or fall_back):
        taken_exits = taken_index not in loop
        fall_exits = fall_index not in loop
        if taken_exits != fall_exits:
            votes.append(("loop-exit", fall_exits))

    # loop-header: branches entering a loop are usually followed.
    taken_enters = _enters_loop(nest, index, taken_index)
    fall_enters = _enters_loop(nest, index, fall_index)
    if taken_enters != fall_enters:
        votes.append(("loop-header", taken_enters))

    opcode_vote = _opcode_vote(program, block, terminator)
    if opcode_vote is not None:
        votes.append(("opcode", opcode_vote))

    for name, predicate in (("call", _contains_call),
                            ("return", _ends_in_return),
                            ("store", _contains_store)):
        on_taken = predicate(program, cfg.block_at(taken))
        on_fall = predicate(program, cfg.block_at(fall))
        if on_taken != on_fall:
            votes.append((name, on_fall))

    votes.sort(key=lambda vote: HEURISTIC_ORDER.index(vote[0]))
    return BranchEstimate(site, block.start, combine_votes(votes),
                          tuple(votes))


def _enters_loop(nest: LoopNest, source: int, target: int) -> bool:
    """True when the edge enters a loop the source is not part of."""
    for loop in nest.loops:
        if loop.header == target and source not in loop:
            return True
    return False


def _contains_call(program: Program, block: BasicBlock) -> bool:
    return any(instr.op is Opcode.CALL
               for instr in program.instructions[block.start:block.end])


def _contains_store(program: Program, block: BasicBlock) -> bool:
    return any(instr.op is Opcode.STORE
               for instr in program.instructions[block.start:block.end])


def _ends_in_return(program: Program, block: BasicBlock) -> bool:
    return program.instructions[block.end - 1].op is Opcode.RET


def _local_constant(program: Program, block: BasicBlock, site: int,
                    register: Optional[int]) -> Optional[int]:
    """The constant value of ``register`` at ``site``, if the last
    definition inside the block is an ``LI``; None otherwise."""
    if register is None:
        return None
    for address in range(site - 1, block.start - 1, -1):
        instr = program.instructions[address]
        if instr.dest != register:
            continue
        if instr.op is Opcode.LI and isinstance(instr.imm, int):
            return instr.imm
        return None  # redefined by something non-constant
    return None


_NEGATED = {Opcode.BEQ: False, Opcode.BNE: True}

#: taken-vote for ``a OP 0`` comparisons: counts and sizes are rarely
#: negative, so < 0 / <= 0 fail and >= 0 / > 0 hold.
_ZERO_COMPARE_VOTE = {
    Opcode.BLT: False,
    Opcode.BLE: False,
    Opcode.BGT: True,
    Opcode.BGE: True,
}

_MIRRORED = {
    Opcode.BLT: Opcode.BGT, Opcode.BGT: Opcode.BLT,
    Opcode.BLE: Opcode.BGE, Opcode.BGE: Opcode.BLE,
    Opcode.BEQ: Opcode.BEQ, Opcode.BNE: Opcode.BNE,
}


def _opcode_vote(program: Program, block: BasicBlock,
                 terminator: Instruction) -> Optional[bool]:
    """The Ball-Larus opcode heuristic vote, or None."""
    op = terminator.op
    if op in _NEGATED:
        return _NEGATED[op]
    site = block.end - 1
    right = _local_constant(program, block, site, terminator.b)
    if right == 0:
        return _ZERO_COMPARE_VOTE.get(op)
    left = _local_constant(program, block, site, terminator.a)
    if left == 0:
        # 0 OP b  ==  b OP' 0 with the comparison mirrored.
        return _ZERO_COMPARE_VOTE.get(_MIRRORED[op])
    return None


_COMPARATORS = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BLE: lambda a, b: a <= b,
    Opcode.BGT: lambda a, b: a > b,
    Opcode.BGE: lambda a, b: a >= b,
}


def _constant_outcome(program: Program, block: BasicBlock,
                      terminator: Instruction) -> Optional[bool]:
    """The branch outcome when it is statically determined.

    Covers the same-register compare (``beq r1, r1``) and both
    operands being block-local ``LI`` constants.  Returns None when
    the outcome depends on runtime values.
    """
    compare = _COMPARATORS[terminator.op]
    if terminator.a is not None and terminator.a == terminator.b:
        return bool(compare(0, 0))
    site = block.end - 1
    left = _local_constant(program, block, site, terminator.a)
    right = _local_constant(program, block, site, terminator.b)
    if left is None or right is None:
        return None
    return bool(compare(left, right))
