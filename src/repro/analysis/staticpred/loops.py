"""Natural-loop discovery on the flow graph.

Back edges are found with the existing dominator analysis: a flow edge
``tail -> head`` is a back edge exactly when ``head`` dominates
``tail``.  Each back edge induces a natural loop (the reverse flood
from the tail that stops at the header); loops sharing a header are
merged, and the loop forest is nested by body inclusion.

Irreducible regions — cycles entered at two places, so neither entry
dominates the other — simply contribute *no* back edge here.  The
branch heuristics then see no loop at those branches and the frequency
propagation treats the retreating edges as forward edges (see
:mod:`.frequency`), which is the standard conservative handling; the
analyses stay total on such graphs, they just estimate them less
sharply.  Self-loops (a block branching to its own leader) are
ordinary back edges: the block dominates itself.
"""

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow import FlowGraph
from repro.analysis.dominators import dominator_sets, reachable_from


class Loop:
    """One natural loop, in block indices of a :class:`FlowGraph`.

    Attributes:
        header: block index of the loop header.
        body: block indices of the loop (header included).
        back_edges: the ``(tail, header)`` edges that close the loop.
        parent: the immediately enclosing :class:`Loop`, or None.
        depth: nesting depth (outermost loops have depth 1).
    """

    __slots__ = ("header", "body", "back_edges", "parent", "depth")

    def __init__(self, header: int, body: Set[int],
                 back_edges: List[Tuple[int, int]]) -> None:
        self.header = header
        self.body = body
        self.back_edges = back_edges
        self.parent: Optional["Loop"] = None
        self.depth = 1

    def __contains__(self, index: int) -> bool:
        return index in self.body

    def __repr__(self) -> str:
        return "Loop(header=%d, %d blocks, depth=%d)" % (
            self.header, len(self.body), self.depth)


class LoopNest:
    """The loop forest of one single-entry flow region.

    Attributes:
        loops: loops sorted innermost-first (by body size, then header).
        back_edges: every back edge of the region as a set of
            ``(tail, head)`` index pairs.
        reachable: block indices reachable from the region root.
    """

    __slots__ = ("loops", "back_edges", "reachable", "_innermost")

    def __init__(self, loops: List[Loop],
                 back_edges: FrozenSet[Tuple[int, int]],
                 reachable: FrozenSet[int]) -> None:
        self.loops = loops
        self.back_edges = back_edges
        self.reachable = reachable
        self._innermost: Dict[int, Loop] = {}
        # loops is innermost-first, so the first loop claiming a block
        # is its innermost enclosing loop.
        for loop in loops:
            for index in loop.body:
                self._innermost.setdefault(index, loop)

    def innermost(self, index: int) -> Optional[Loop]:
        """The innermost loop containing block ``index``, or None."""
        return self._innermost.get(index)


def find_loops(graph: FlowGraph, root_index: int) -> LoopNest:
    """Discover the natural loops of the region rooted at a block.

    ``root_index`` is the flow-graph index of the region's entry block
    (the program entry or a function entry).  Only blocks reachable
    from the root participate.
    """
    reachable = reachable_from(graph, root_index)
    dominators = dominator_sets(graph,
                                root=graph.cfg.blocks[root_index].start)
    dom_indices: Dict[int, FrozenSet[int]] = {}
    index_of = graph.index_of
    for leader, dominating in dominators.items():
        dom_indices[index_of(leader)] = frozenset(
            index_of(other) for other in dominating)

    back_edges: Set[Tuple[int, int]] = set()
    for tail in reachable:
        for head in graph.successors[tail]:
            if head in reachable and head in dom_indices.get(tail, ()):
                back_edges.add((tail, head))

    by_header: Dict[int, Loop] = {}
    for tail, head in sorted(back_edges):
        body = _natural_loop_body(graph, tail, head, reachable)
        loop = by_header.get(head)
        if loop is None:
            by_header[head] = Loop(head, body, [(tail, head)])
        else:
            loop.body |= body
            loop.back_edges.append((tail, head))

    loops = sorted(by_header.values(),
                   key=lambda loop: (len(loop.body), loop.header))
    for inner in loops:
        # The innermost strict superset is the parent (loops either
        # nest or are disjoint; sorted order scans candidates
        # innermost-first).
        for outer in loops:
            if outer is inner or len(outer.body) <= len(inner.body):
                continue
            if inner.body <= outer.body and outer.header != inner.header:
                inner.parent = outer
                break
    # Parents have strictly larger bodies, so descending size order
    # computes every parent's depth before its children's.
    for loop in reversed(loops):
        loop.depth = 1 + (loop.parent.depth if loop.parent else 0)
    return LoopNest(loops, frozenset(back_edges), frozenset(reachable))


def _natural_loop_body(graph: FlowGraph, tail: int, head: int,
                       reachable: Set[int]) -> Set[int]:
    """Reverse flood from the back edge's tail, stopping at the head."""
    body = {head, tail}
    stack = [tail] if tail != head else []
    while stack:
        for predecessor in graph.predecessors[stack.pop()]:
            if predecessor in body or predecessor not in reachable:
                continue
            body.add(predecessor)
            stack.append(predecessor)
    return body
