"""Wu-Larus static frequency propagation.

Turns per-branch taken probabilities into expected block and edge
execution frequencies, with loops handled in closed form: each loop's
*cyclic probability* (the chance an iteration feeds back into the
header) is computed innermost-first, and the header frequency is the
incoming frequency times ``1 / (1 - cyclic probability)`` — the
geometric-series sum, capped at 0.99 cyclic probability so the
multiplier never exceeds 100 even for heuristically "infinite" loops.

Propagation is intraprocedural (one pass per function region, exactly
like the dataflow analyses), followed by a call-graph pass that scales
each function's local frequencies by the expected number of calls it
receives; recursion is resolved by bounded fixpoint iteration with a
clamp, so the result is total on any input.

Irreducible regions have no recognised back edge; their retreating
edges are treated as forward edges, which can leave blocks whose
frequency could not be computed in dependency order.  A cleanup pass
in reverse post-order then computes them from whatever predecessors
are known — an approximation, but a total and terminating one (the
property tests drive irreducible and self-loop graphs through this).
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow import FlowGraph, postorder
from repro.analysis.effects import function_entry_addresses
from repro.analysis.staticpred.heuristics import (
    BranchEstimate,
    predict_branches,
)
from repro.analysis.staticpred.loops import find_loops
from repro.isa.opcodes import Opcode

#: Cap on a single loop's cyclic probability (Wu-Larus use the same
#: constant): a heuristically never-exiting loop still terminates with
#: multiplier 1 / (1 - 0.99) = 100.
MAX_CYCLIC_PROBABILITY = 0.99

#: Clamp on any frequency value, so unbounded recursion (a cycle of
#: calls with expected fan-out >= 1) cannot diverge.
FREQUENCY_CLAMP = 1e12

_Edge = Tuple[int, int]


class StaticFrequencies:
    """Estimated execution frequencies, entry function = one run.

    Attributes:
        block_freq: leader address -> expected executions per run.
        edge_freq: (source leader, target leader) -> expected
            traversals per run.
        function_freq: function entry address -> expected invocations
            per run (the entry function has 1.0).
    """

    __slots__ = ("block_freq", "edge_freq", "function_freq")

    def __init__(self, block_freq: Dict[int, float],
                 edge_freq: Dict[_Edge, float],
                 function_freq: Dict[int, float]) -> None:
        self.block_freq = block_freq
        self.edge_freq = edge_freq
        self.function_freq = function_freq

    def __repr__(self) -> str:
        return "StaticFrequencies(%d blocks, %d edges, %d functions)" % (
            len(self.block_freq), len(self.edge_freq),
            len(self.function_freq))


def edge_probabilities(graph: FlowGraph,
                       estimates: Dict[int, BranchEstimate]
                       ) -> Dict[_Edge, float]:
    """Outgoing probability of every flow edge, in block indices.

    Conditional terminators split per the branch estimate; an indirect
    jump splits uniformly over its flow successors; a single successor
    gets probability 1.
    """
    program = graph.cfg.program
    probabilities: Dict[_Edge, float] = {}
    for index, successors in enumerate(graph.successors):
        if not successors:
            continue
        block = graph.cfg.blocks[index]
        terminator = program.instructions[block.end - 1]
        if len(successors) == 1:
            probabilities[(index, successors[0])] = 1.0
            continue
        if terminator.is_conditional and block.fall_through is not None:
            estimate = estimates.get(block.end - 1)
            taken_p = (estimate.taken_probability
                       if estimate is not None else 0.5)
            taken_index = graph.index_of(block.taken_target)
            fall_index = graph.index_of(block.fall_through)
            probabilities[(index, taken_index)] = taken_p
            probabilities[(index, fall_index)] = 1.0 - taken_p
            continue
        share = 1.0 / len(successors)
        for successor in successors:
            probabilities[(index, successor)] = share
    return probabilities


def local_frequencies(graph: FlowGraph, root_index: int,
                      probabilities: Dict[_Edge, float]
                      ) -> Tuple[Dict[int, float], Dict[_Edge, float]]:
    """Per-block / per-edge frequencies of one region, root = 1.0.

    Implements the Wu-Larus propagation: loops innermost-first to
    collect cyclic probabilities, then one pass from the root; the
    cleanup pass makes the result total on irreducible regions.
    """
    nest = find_loops(graph, root_index)
    back_edges = nest.back_edges
    # back_edge_prob starts at the static edge probability and is
    # rewritten by each loop's pass to the loop's cyclic contribution.
    back_edge_prob: Dict[_Edge, float] = {
        edge: probabilities.get(edge, 0.0) for edge in back_edges}

    block_freq: Dict[int, float] = {}
    edge_freq: Dict[_Edge, float] = {}

    def one_pass(head: int) -> None:
        visited: Set[int] = set()
        stack: List[int] = [head]
        while stack:
            index = stack.pop()
            if index in visited or index not in nest.reachable:
                continue
            if index == head:
                frequency = 1.0
            else:
                ready = all(
                    predecessor in visited
                    or (predecessor, index) in back_edges
                    or predecessor not in nest.reachable
                    for predecessor in graph.predecessors[index])
                if not ready:
                    # Re-pushed when its remaining predecessors finish.
                    continue
                frequency = _block_frequency(
                    graph, index, visited, back_edges, back_edge_prob,
                    edge_freq)
            visited.add(index)
            block_freq[index] = frequency
            for successor in graph.successors[index]:
                edge = (index, successor)
                edge_freq[edge] = (probabilities.get(edge, 0.0)
                                   * frequency)
                if edge in back_edges and successor == head:
                    back_edge_prob[edge] = edge_freq[edge]
                if successor not in visited:
                    stack.append(successor)
        _cleanup(graph, nest.reachable, visited, head, back_edges,
                 back_edge_prob, probabilities, block_freq, edge_freq)

    for loop in nest.loops:  # innermost-first
        one_pass(loop.header)
    one_pass(root_index)
    return block_freq, edge_freq


def _block_frequency(graph: FlowGraph, index: int, visited: Set[int],
                     back_edges: frozenset, back_edge_prob: Dict[_Edge, float],
                     edge_freq: Dict[_Edge, float]) -> float:
    """Incoming frequency of a block, with the closed-form loop term."""
    frequency = 0.0
    cyclic = 0.0
    for predecessor in graph.predecessors[index]:
        edge = (predecessor, index)
        if edge in back_edges:
            cyclic += back_edge_prob.get(edge, 0.0)
        elif predecessor in visited:
            frequency += edge_freq.get(edge, 0.0)
    cyclic = min(cyclic, MAX_CYCLIC_PROBABILITY)
    return min(frequency / (1.0 - cyclic), FREQUENCY_CLAMP)


def _cleanup(graph: FlowGraph, reachable: frozenset, visited: Set[int],
             head: int, back_edges: frozenset,
             back_edge_prob: Dict[_Edge, float],
             probabilities: Dict[_Edge, float],
             block_freq: Dict[int, float],
             edge_freq: Dict[_Edge, float]) -> None:
    """Give dependency-cycled (irreducible) blocks a best-effort value.

    Reverse post-order guarantees each leftover block sees as many
    finished predecessors as possible; contributions from blocks that
    are still unfinished count as zero.
    """
    order = [index for index in reversed(postorder(graph))
             if index in reachable and index not in visited]
    for index in order:
        if not _reaches(graph, head, index, reachable):
            continue
        frequency = _block_frequency(graph, index, visited, back_edges,
                                     back_edge_prob, edge_freq)
        visited.add(index)
        block_freq[index] = frequency
        for successor in graph.successors[index]:
            edge = (index, successor)
            edge_freq[edge] = probabilities.get(edge, 0.0) * frequency


def _reaches(graph: FlowGraph, source: int, target: int,
             universe: frozenset) -> bool:
    seen = {source}
    stack = [source]
    while stack:
        index = stack.pop()
        if index == target:
            return True
        for successor in graph.successors[index]:
            if successor not in seen and successor in universe:
                seen.add(successor)
                stack.append(successor)
    return False


def program_frequencies(graph: FlowGraph,
                        estimates: Optional[Dict[int, BranchEstimate]] = None
                        ) -> StaticFrequencies:
    """Whole-program frequencies: local propagation + call-graph scaling.

    Every function region is propagated with its entry at 1.0, the
    call graph then assigns each function its expected invocation
    count per run of the program (the entry function runs once), and
    local values are scaled through.  Recursive call cycles are
    iterated to a bounded fixpoint and clamped.
    """
    cfg = graph.cfg
    program = cfg.program
    if estimates is None:
        estimates = predict_branches(graph)
    probabilities = edge_probabilities(graph, estimates)

    entries = dict(function_entry_addresses(program))
    entry_address = program.entry
    entry_leader = cfg.block_of(entry_address).start
    roots = sorted(set(entries) | {entry_address})

    local_blocks: Dict[int, Dict[int, float]] = {}
    local_edges: Dict[int, Dict[_Edge, float]] = {}
    call_sites: Dict[int, List[Tuple[int, float]]] = {root: []
                                                     for root in roots}
    claimed: Set[int] = set()
    for root in roots:
        root_index = graph.index_of(cfg.block_of(root).start)
        block_freq, edge_freq = local_frequencies(graph, root_index,
                                                  probabilities)
        local_blocks[root] = block_freq
        local_edges[root] = edge_freq
        for index, frequency in block_freq.items():
            if index in claimed:
                continue
            claimed.add(index)
            block = cfg.blocks[index]
            for instr in program.instructions[block.start:block.end]:
                if instr.op is Opcode.CALL \
                        and isinstance(instr.target, int):
                    call_sites[root].append((instr.target, frequency))

    function_freq = {root: 0.0 for root in roots}
    entry_root = (entry_address if entry_address in function_freq
                  else entry_leader)
    function_freq[entry_root] = 1.0
    for _ in range(100):
        updated = {root: (1.0 if root == entry_root else 0.0)
                   for root in roots}
        for caller in roots:
            scale = function_freq[caller]
            if scale == 0.0:
                continue
            for callee, weight in call_sites[caller]:
                if callee in updated:
                    updated[callee] = min(
                        updated[callee] + scale * weight,
                        FREQUENCY_CLAMP)
        delta = max(abs(updated[root] - function_freq[root])
                    for root in roots)
        function_freq = updated
        if delta < 1e-9:
            break

    block_freq_out: Dict[int, float] = {}
    edge_freq_out: Dict[_Edge, float] = {}
    seen_blocks: Set[int] = set()
    for root in roots:
        scale = function_freq[root]
        for index, frequency in local_blocks[root].items():
            if index in seen_blocks:
                continue
            seen_blocks.add(index)
            leader = cfg.blocks[index].start
            block_freq_out[leader] = min(scale * frequency,
                                         FREQUENCY_CLAMP)
        for (source, target), frequency in local_edges[root].items():
            key = (cfg.blocks[source].start, cfg.blocks[target].start)
            if key not in edge_freq_out:
                edge_freq_out[key] = min(scale * frequency,
                                         FREQUENCY_CLAMP)
    return StaticFrequencies(block_freq_out, edge_freq_out,
                             function_freq)
