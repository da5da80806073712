"""The laid-out program's trace, derived from the base run's block path.

``LayoutResult.derive_traces`` maps a base run's
:class:`~repro.vm.compiled.BlockPath` through the layout and must give,
column for column, the trace that running the laid-out program on the
same input records.  Every test here runs both and compares them: on
the benchmarks, on generated Minic programs, and on hand-laid-out
assembly that reaches the control flow layout rewrites (a RET into the
JUMP appended after its CALL, a return point that is a deleted JUMP,
a branch to its own fall-through, a JIND through a table).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.benchmarksuite import (
    ALL_BENCHMARK_NAMES,
    compile_benchmark,
    get_benchmark,
)
from repro.cfg import ControlFlowGraph
from repro.isa import assemble
from repro.isa.opcodes import Opcode
from repro.lang import compile_source
from repro.opt import optimize
from repro.profiling import Profile, profile_program
from repro.traceopt import Trace, build_fs_program, lay_out_traces
from repro.vm import ExecutionLimitExceeded, MachineError, run_program
from repro.vm.compiled import block_tables
from tests.test_fuzz_fs_pipeline import programs

_COLUMNS = ("sites", "classes", "takens", "targets", "gaps")


def _columns(trace):
    return ([(getattr(trace, column).dtype.str,
              getattr(trace, column).tolist()) for column in _COLUMNS],
            trace.total_instructions)


def assert_derived_equals_executed(program, suite, layout=None,
                                   max_instructions=4_000_000):
    """Profile ``program`` over ``suite``, lay it out (unless ``layout``
    is given), and require every derived trace to equal the executed
    one; returns the layout."""
    paths = [run_program(program, inputs=streams,
                         max_instructions=max_instructions).block_path
             for streams in suite]
    if layout is None:
        layout = build_fs_program(program,
                                  Profile.from_paths(program, paths))
    derived = layout.derive_traces(paths, max_instructions)
    assert not paths
    assert len(derived) == len(suite)
    for streams, trace in zip(suite, derived):
        executed = run_program(layout.program, inputs=streams, trace=True,
                               max_instructions=max_instructions).trace
        assert _columns(trace) == _columns(executed)
    return layout


def _check_benchmark(name, scale):
    assert_derived_equals_executed(
        compile_benchmark(name),
        get_benchmark(name).input_suite(scale=scale),
        max_instructions=500_000_000)


# -- the benchmarks ----------------------------------------------------------


@pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
def test_derived_trace_matches_executed_on_benchmarks(name):
    _check_benchmark(name, 0.02)


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
def test_derived_trace_battery(name):
    _check_benchmark(name, 0.1)


# -- generated programs ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(programs())
def test_derived_trace_matches_executed_on_generated_programs(source):
    program, _ = optimize(compile_source(source, "fuzz"))
    assert_derived_equals_executed(program, [[]])


# -- hand-laid-out control flow ------------------------------------------------


def _lay_out(program, order):
    """Lay ``program`` out with its blocks in ``order``, the labels of
    all its leaders."""
    cfg = ControlFlowGraph.from_program(program)
    leaders = [program.labels[label] for label in order]
    assert sorted(leaders) == cfg.leaders
    profile, _ = profile_program(program, [[]])
    traces = [Trace([leader], weight=len(leaders) - position)
              for position, leader in enumerate(leaders)]
    return lay_out_traces(program, cfg, profile, traces)


def _inserted_after(layout, opcode):
    """New pcs of the JUMPs layout appended after an ``opcode``."""
    instructions = layout.program.instructions
    return [address for address, old in enumerate(layout.old_address_of)
            if old is None and instructions[address - 1].op is opcode]


def _deleted(layout):
    kept = set(layout.old_address_of)
    return [address for address in range(len(layout.base))
            if address not in kept]


RETURN_INTO_APPENDED_JUMP = """
func main:
    li r1, 0
    li r3, 3
    beq r1, r3, back
again:
    call f
back:
    puti r1
    li r2, 1
    add r1, r1, r2
    blt r1, r3, again
done:
    halt
func f:
    ret
"""


def test_a_ret_into_the_jump_appended_after_its_call():
    program = assemble(RETURN_INTO_APPENDED_JUMP)
    layout = _lay_out(program, ["main", "again", "f", "back", "done"])
    assert _inserted_after(layout, Opcode.CALL)
    assert_derived_equals_executed(program, [[]], layout)


RETURN_POINT_DELETED = {
    # [call f, jump next] is one block, so the return point is a JUMP
    # in the middle of it, deleted because next follows.
    "inside a block": ("""
func main:
    li r1, 0
    li r3, 3
loop:
    call f
    jump next
other:
    halt
next:
    li r2, 1
    add r1, r1, r2
    blt r1, r3, loop
last:
    jump other
func f:
    ret
""", ["main", "loop", "next", "last", "other", "f"], []),
    # The return point is a block of its own, deleted because next
    # follows it; its CALL is not followed by it, so it gains a JUMP
    # that goes where the deleted block would.
    "a block of its own": ("""
func main:
    li r1, 0
    li r3, 3
    beq r1, r3, point
loop:
    call f
point:
    jump next
next:
    li r2, 1
    add r1, r1, r2
    blt r1, r3, loop
done:
    halt
func f:
    ret
""", ["main", "loop", "f", "point", "next", "done"], [Opcode.CALL]),
}


@pytest.mark.parametrize("case", sorted(RETURN_POINT_DELETED))
def test_a_return_point_that_is_a_deleted_jump(case):
    source, order, appended = RETURN_POINT_DELETED[case]
    program = assemble(source)
    layout = _lay_out(program, order)
    return_points = [address + 1 for address, instr
                     in enumerate(program.instructions)
                     if instr.op is Opcode.CALL]
    assert set(return_points) & set(_deleted(layout))
    for opcode in appended:
        assert _inserted_after(layout, opcode)
    assert_derived_equals_executed(program, [[]], layout)


OWN_FALL_THROUGH = """
func main:
    li r1, 0
    li r2, 2
    li r4, 4
loop:
    beq r1, r2, next
next:
    li r3, 1
    add r1, r1, r3
    blt r1, r4, loop
done:
    halt
"""

BECOMES_OWN_FALL_THROUGH = """
func main:
    li r1, 0
    li r2, 2
    li r4, 4
loop:
    bne r1, r2, skip
after:
    li r3, 1
    add r1, r1, r3
    blt r1, r4, loop
done:
    halt
skip:
    jump after
"""


@pytest.mark.parametrize("source, order, appended", [
    # The taken pc equals the fall-through, and the block stays put.
    (OWN_FALL_THROUGH, ["main", "loop", "next", "done"], False),
    # The same branch, no longer followed by its block: it gains a
    # JUMP, and its direction decides whether the JUMP runs.
    (OWN_FALL_THROUGH, ["main", "loop", "done", "next"], True),
    # Inverted towards a deleted JUMP to its old fall-through: the
    # laid-out branch goes to its own fall-through, the base one not.
    (BECOMES_OWN_FALL_THROUGH, ["main", "loop", "skip", "after", "done"],
     False),
])
def test_a_branch_to_its_own_fall_through(source, order, appended):
    program = assemble(source)
    layout = _lay_out(program, order)
    assert bool(_inserted_after(layout, Opcode.BEQ)) == appended
    assert appended or any(
        instr.is_conditional and instr.target == address + 1
        for address, instr in enumerate(layout.program.instructions))
    assert_derived_equals_executed(program, [[]], layout)


JUMP_TABLE = """
.table cases c0 c1 c2
func main:
    li r1, 0
    li r5, 5
    li r6, 3
loop:
    rem r7, r1, r6
    table r2, cases, r7
    jind r2
c0:
    puti r1
    jump join
c1:
    li r4, 1
    puti r4
    jump join
c2:
    jump join
join:
    li r3, 1
    add r1, r1, r3
    blt r1, r5, loop
done:
    halt
"""


def test_an_indirect_jump_through_a_table():
    program = assemble(JUMP_TABLE)
    layout = _lay_out(program,
                      ["main", "loop", "c2", "join", "done", "c1", "c0"])
    assert_derived_equals_executed(program, [[]], layout)
    assert_derived_equals_executed(program, [[]])


# -- the dynamic checks --------------------------------------------------------


def test_an_indirect_jump_off_the_tables_raises():
    # pc 3 is a leader but no jump-table entry, so layout cannot remap
    # the JIND's computed target.
    program = assemble("""
func main:
    li r1, 3
    jind r1
    halt
    li r2, 7
    puti r2
    halt
""")
    paths = [run_program(program).block_path]
    layout = build_fs_program(program, Profile.from_paths(program, paths))
    with pytest.raises(MachineError, match="no jump-table entry"):
        layout.derive_traces(paths)


def test_the_budget_counts_the_laid_out_program():
    # The laid-out run executes three appended JUMPs the base run does
    # not, so budgets between the two counts fit only the base run.
    program = assemble(RETURN_INTO_APPENDED_JUMP)
    layout = _lay_out(program, ["main", "again", "f", "back", "done"])
    base_run = run_program(program)
    path, base = base_run.block_path, base_run.instructions
    laid_out = run_program(layout.program).instructions
    assert laid_out == base + 3
    for budget in range(base - 1, laid_out + 1):
        try:
            run_program(layout.program, trace=True,
                        max_instructions=budget)
        except ExecutionLimitExceeded as error:
            with pytest.raises(ExecutionLimitExceeded) as derived:
                layout.derive_traces([path], budget)
            assert str(derived.value) == str(error)
        else:
            assert budget == laid_out
            trace, = layout.derive_traces([path], budget)
            assert trace.total_instructions == laid_out


def test_every_compiled_run_carries_its_block_path():
    program = compile_benchmark("wc")
    result = run_program(program, inputs=[b"ab cd\nef\n"])
    path = result.block_path
    assert path.starts.dtype == np.int32
    assert path.directions.dtype == bool
    tables = block_tables(program,
                          ControlFlowGraph.from_program(program).leaders)
    assert tables.count(path.starts) == result.instructions
