"""Dominators (forward, must, intersection join).

Block A *dominates* block B when every path from the root to B passes
through A.  Because register frames are private and ``CALL`` is not a
flow edge, each function is its own single-entry flow region, so the
computation runs per root: the program entry by default, or any
function entry.

Values are integer bitmasks over block indices; the lattice top is
the full-universe mask, the intersection join shrinks it to the true
dominator sets, and unreachable blocks keep the (meaningless) full
mask and are excluded from the returned maps.
"""

from repro.analysis.dataflow import Analysis, solve


class _DominatorAnalysis(Analysis):
    direction = "forward"

    def __init__(self, graph, root_index):
        self.root_index = root_index
        self.universe = (1 << len(graph)) - 1

    def initial(self, graph, index):
        return self.universe

    def boundary(self, graph, index):
        # The root is dominated only by itself, even when a loop edge
        # re-enters it; modelled as an empty boundary contribution so
        # the transfer's self-bit is its whole set.
        if index == self.root_index:
            return 0
        return None

    def join(self, left, right):
        return left & right

    def transfer(self, graph, index, incoming):
        if index == self.root_index:
            return 1 << index
        return incoming | 1 << index


def dominator_sets(graph, root=None):
    """{leader: frozenset of dominating leaders}, reachable from root.

    ``root`` is a leader address (default: the program entry's block).
    Blocks unreachable from the root are omitted.
    """
    if root is None:
        root = graph.cfg.block_of(graph.cfg.program.entry).start
    root_index = graph.index_of(root)
    result = solve(graph, _DominatorAnalysis(graph, root_index))

    reachable = reachable_from(graph, root_index)
    blocks = graph.cfg.blocks
    return {blocks[index].start: frozenset(
                blocks[position].start
                for position in _bits(result.outputs[index])
                if position in reachable)
            for index in reachable}


def immediate_dominators(graph, root=None):
    """{leader: immediate dominator leader}; the root maps to None."""
    sets = dominator_sets(graph, root=root)
    idom = {}
    for leader, dominators in sets.items():
        strict = dominators - {leader}
        if not strict:
            idom[leader] = None
            continue
        # The immediate dominator is the strict dominator dominated by
        # every other strict dominator.
        idom[leader] = max(strict, key=lambda d: len(sets[d]))
    return idom


def reachable_from(graph, root_index):
    """Block indices a flow-edge flood from ``root_index`` reaches."""
    seen = {root_index}
    stack = [root_index]
    while stack:
        for successor in graph.successors[stack.pop()]:
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


def _bits(mask):
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1
