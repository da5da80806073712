"""Unreachable-code detection at basic-block granularity.

A block is *reachable* when some chain of flow edges, ``CALL``
targets, or jump-table entries connects the program entry to it —
the same closure :mod:`repro.opt.dead_code` uses to delete dead
blocks, expressed over the CFG instead of raw addresses.
"""

from repro.isa.opcodes import Opcode


def reachable_blocks(graph):
    """Set of leader addresses reachable from the program entry."""
    cfg = graph.cfg
    program = cfg.program
    entry_index = graph.index_of(cfg.block_of(program.entry).start)

    seen = {entry_index}
    stack = [entry_index]
    while stack:
        index = stack.pop()
        block = cfg.blocks[index]
        targets = list(graph.successors[index])
        # CALL is mid-block (frames are private, it is not a flow
        # edge) but it does make the callee's code reachable.
        for address in range(block.start, block.end):
            instr = program.instructions[address]
            if instr.op is Opcode.CALL and isinstance(instr.target, int):
                targets.append(graph.index_of(
                    cfg.block_of(instr.target).start))
        for target in targets:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return {cfg.blocks[index].start for index in seen}


def unreachable_blocks(graph):
    """Blocks no execution can reach, in address order."""
    reachable = reachable_blocks(graph)
    return [block for block in graph.cfg.blocks
            if block.start not in reachable]
