"""Unit tests for the dataflow framework and the concrete analyses."""

from repro.analysis import (
    FlowGraph,
    compute_liveness,
    dead_register_writes,
    dominator_sets,
    immediate_dominators,
    postorder,
    reachable_blocks,
    unreachable_blocks,
    use_before_def,
)
from repro.cfg import ControlFlowGraph
from repro.isa import assemble
from repro.opt import remove_dead_writes
from repro.vm import run_program

LOOP_SOURCE = """
func main:
    li r1, 0
    li r2, 5
loop:
    add r1, r1, r2
    li r3, 1
    sub r2, r2, r3
    bgt r2, r3, loop
    puti r1
    halt
"""

DIAMOND_SOURCE = """
func main:
    li r1, 1
    li r2, 2
    beq r1, r2, other
    puti r1
    jump join
other:
    puti r2
join:
    halt
"""

SWITCH_SOURCE = """
.table t0 case0 case1
func main:
    li r1, 1
    table r2, t0, r1
    jind r2
case0:
    puti r1
    halt
case1:
    li r3, 7
    puti r3
    halt
"""


def graph_of(source):
    program = assemble(source)
    cfg = ControlFlowGraph.from_program(program)
    return program, cfg, FlowGraph(cfg)


# -- FlowGraph ---------------------------------------------------------------

def test_conditional_block_has_two_flow_successors():
    program, cfg, graph = graph_of(LOOP_SOURCE)
    loop_index = graph.index_of(program.labels["loop"])
    successors = graph.successors[loop_index]
    assert len(successors) == 2
    assert loop_index in successors  # the back edge


def test_halt_block_has_no_successors():
    program, cfg, graph = graph_of(LOOP_SOURCE)
    last_index = len(graph) - 1
    assert graph.successors[last_index] == []


def test_jind_successors_come_from_the_feeding_table():
    program, cfg, graph = graph_of(SWITCH_SOURCE)
    jind_block = cfg.block_of(2)  # the block ending in JIND
    index = graph.index_of(jind_block.start)
    expected = {graph.index_of(entry)
                for entry in program.jump_tables[0].entries}
    assert set(graph.successors[index]) == expected
    assert index not in graph.fallback_indirect


def test_predecessors_invert_successors():
    program, cfg, graph = graph_of(DIAMOND_SOURCE)
    for index, successors in enumerate(graph.successors):
        for successor in successors:
            assert index in graph.predecessors[successor]


def test_postorder_visits_every_block_once():
    program, cfg, graph = graph_of(LOOP_SOURCE)
    order = postorder(graph)
    assert sorted(order) == list(range(len(graph)))


# -- liveness ----------------------------------------------------------------

def test_loop_carried_registers_are_live_at_the_header():
    program, cfg, graph = graph_of(LOOP_SOURCE)
    liveness = compute_liveness(graph)
    header = program.labels["loop"]
    assert liveness.is_live_in(header, 1)  # accumulator
    assert liveness.is_live_in(header, 2)  # counter
    assert not liveness.is_live_in(header, 3)  # defined before its use


def test_nothing_is_live_out_of_a_halt_block():
    program, cfg, graph = graph_of(LOOP_SOURCE)
    liveness = compute_liveness(graph)
    last_leader = cfg.blocks[-1].start
    assert liveness.live_out[last_leader] == 0


def test_overwritten_constant_is_a_dead_write():
    program = assemble("""
func main:
    li r1, 1
    li r1, 2
    puti r1
    halt
""")
    assert dead_register_writes(FlowGraph.from_program(program)) == [0]


def test_dead_write_chains_die_together():
    # r2 is never read; deleting the mov alone would leave the li alive.
    program = assemble("""
func main:
    li r1, 9
    mov r2, r1
    li r3, 4
    puti r3
    halt
""")
    assert dead_register_writes(FlowGraph.from_program(program)) == [0, 1]


def test_load_is_never_a_dead_write():
    # LOAD can fault; a dead destination does not make it removable.
    program = assemble("""
.globals 1
func main:
    li r1, 0
    load r2, r1, 0
    puti r1
    halt
""")
    assert dead_register_writes(FlowGraph.from_program(program)) == []


def test_remove_dead_writes_preserves_output():
    program = assemble("""
func main:
    li r1, 9
    mov r2, r1
    li r3, 4
    puti r3
    halt
""")
    slim, removed = remove_dead_writes(program)
    assert removed == 2
    assert len(slim.instructions) == len(program.instructions) - 2
    assert run_program(slim).output == run_program(program).output


# -- defined registers -------------------------------------------------------

def test_defs_from_both_diamond_arms_reach_the_join():
    # r1 is written on both arms, r3 on one arm only, r4 on neither:
    # only the read of r4 has no definition on any path to the join.
    program = assemble("""
func main:
    li r2, 0
    beq r2, r2, other
    li r1, 1
    li r3, 3
    jump join
other:
    li r1, 2
join:
    puti r1
    puti r3
    puti r4
    halt
""")
    join = program.labels["join"]
    assert use_before_def(FlowGraph.from_program(program)) \
        == [(join + 2, 4)]


def test_clean_program_has_no_use_before_def():
    program, cfg, graph = graph_of(LOOP_SOURCE)
    assert use_before_def(graph) == []


def test_never_written_register_is_flagged():
    program = assemble("""
func main:
    li r1, 1
    add r2, r1, r7
    puti r2
    halt
""")
    assert use_before_def(FlowGraph.from_program(program)) == [(1, 7)]


def test_function_arguments_count_as_definitions():
    program = assemble("""
func callee:
    retv r0
    ret
func main:
    li r1, 5
    arg 0, r1
    call callee
    result r2
    puti r2
    halt
""")
    assert use_before_def(FlowGraph.from_program(program)) == []


# -- dominators --------------------------------------------------------------

def test_diamond_dominators():
    program, cfg, graph = graph_of(DIAMOND_SOURCE)
    sets = dominator_sets(graph)
    entry = cfg.block_of(program.entry).start
    join = program.labels["join"]
    other = program.labels["other"]
    assert sets[join] == frozenset({entry, join})
    assert other not in sets[join]
    idom = immediate_dominators(graph)
    assert idom[entry] is None
    assert idom[join] == entry
    assert idom[other] == entry


def test_loop_header_dominates_its_body():
    program, cfg, graph = graph_of(LOOP_SOURCE)
    sets = dominator_sets(graph)
    header = program.labels["loop"]
    exit_leader = cfg.blocks[-1].start
    assert header in sets[exit_leader]


# -- unreachable code --------------------------------------------------------

def test_code_after_an_unconditional_jump_is_unreachable():
    program, cfg, graph = graph_of("""
func main:
    jump end
    li r1, 1
    puti r1
end:
    halt
""")
    dead = unreachable_blocks(graph)
    assert [block.start for block in dead] == [1]
    assert 1 not in reachable_blocks(graph)


def test_callee_bodies_are_reachable_through_calls():
    program, cfg, graph = graph_of("""
func callee:
    retv r0
    ret
func main:
    li r1, 5
    arg 0, r1
    call callee
    result r2
    puti r2
    halt
""")
    assert unreachable_blocks(graph) == []
