"""Compiled-block dispatch against the reference interpreter.

``Machine.run`` executes direct-mode runs as compiled blocks
(:mod:`repro.vm.compiled`); ``Machine._run`` is the reference.  Every
test here runs both on the same machine and requires identical
results: output, instruction count, exit value, probe counts and the
five trace arrays with their dtypes, or the same exception type and
message.
"""

import gc
import sys
import threading
import weakref

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
from repro.lang import compile_source
from repro.opt import optimize
from repro.profiling import profile_program
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.vm import Machine, compiled
from tests.test_fuzz_fs_pipeline import programs

_COLUMNS = ("sites", "classes", "takens", "targets", "gaps")


def _outcome(run):
    """``run()``'s result as comparable values, or its exception."""
    try:
        result = run()
    except Exception as error:
        return ("raised", type(error), str(error))
    trace = None
    if result.trace is not None:
        trace = [(getattr(result.trace, column).dtype.str,
                  getattr(result.trace, column).tolist())
                 for column in _COLUMNS]
        trace.append(result.trace.total_instructions)
    return (result.output, result.instructions, result.exit_value,
            result.probe_counts, trace)


def assert_same(program, **kwargs):
    """Both paths agree on ``Machine(program, **kwargs)``; returns the
    outcome."""
    machine = Machine(program, **kwargs)
    outcome = _outcome(machine.run)
    assert outcome == _outcome(machine._run)
    return outcome


def _three_programs(name, scale=0.02):
    """The base program with leader probes, its FS layout, and the
    layout with three forward slots, over ``name``'s input suite."""
    program = compile_benchmark(name)
    suite = get_benchmark(name).input_suite(scale=scale)
    cfg = ControlFlowGraph.from_program(program)
    profile, _ = profile_program(program, suite)
    layout = build_fs_program(program, profile)
    slotted, _ = fill_forward_slots(layout.program, 3)
    return suite, ((program, cfg.leaders), (layout.program, None),
                   (slotted, None))


def _check_benchmark(name):
    suite, runs = _three_programs(name)
    for streams in suite:
        for program, probes in runs:
            outcome = assert_same(program, inputs=streams, trace=True,
                                  probe_addresses=probes)
            assert outcome[0] != "raised"


# -- the benchmarks ----------------------------------------------------------


@pytest.mark.parametrize("name", ["wc", "cmp"])
def test_compiled_matches_reference_on_small_benchmarks(name):
    _check_benchmark(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
def test_compiled_matches_reference_battery(name):
    _check_benchmark(name)


def test_trace_arrays_keep_their_dtypes():
    suite, runs = _three_programs("wc")
    trace = Machine(runs[1][0], inputs=suite[0], trace=True).run().trace
    assert [getattr(trace, column).dtype for column in _COLUMNS] == [
        np.int64, np.int8, bool, np.int64, np.int64]


# -- generated programs ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(programs())
def test_compiled_matches_reference_on_generated_programs(source):
    program, _ = optimize(compile_source(source, "fuzz"))
    cfg = ControlFlowGraph.from_program(program)
    assert_same(program, trace=True, probe_addresses=cfg.leaders,
                max_instructions=2_000_000)
    profile, _ = profile_program(program, [[]],
                                 max_instructions=2_000_000)
    layout = build_fs_program(program, profile)
    slotted, _ = fill_forward_slots(layout.program, 3)
    for laid_out in (layout.program, slotted):
        assert_same(laid_out, trace=True, max_instructions=4_000_000)


# -- control flow the benchmarks rarely reach -------------------------------


def test_branch_to_its_own_fall_through():
    # The taken pc equals the fall-through, so the direction comes from
    # the side list, not from the next block start.
    program = assemble("""
func main:
    li r1, 0
    li r2, 3
loop:
    beq r1, r2, next
next:
    bne r1, r2, after
after:
    li r3, 1
    add r1, r1, r3
    blt r1, r2, loop
    halt
""")
    outcome = assert_same(program, trace=True)
    sites, takens = outcome[4][0][1], outcome[4][2][1]
    assert takens[:2] == [False, True]
    assert sites[:2] == [2, 3]


def test_indirect_jump_into_the_middle_of_a_block():
    program = assemble("""
func main:
    li r1, 4
    jind r1
    li r2, 7
    puti r2
    li r2, 9
    puti r2
    halt
""")
    outcome = assert_same(program, trace=True,
                          probe_addresses=range(len(program)))
    assert outcome[0] == b"9"


def test_probes_outside_the_code_count_zero():
    program = assemble("func main:\n    halt\n")
    outcome = assert_same(program, probe_addresses=[0, 5, -1])
    assert outcome[3] == {0: 1, 5: 0, -1: 0}


def test_calls_args_results_and_tables():
    cases = "\n".join("case %d: r = r + %d; break;" % (i, i * 3)
                      for i in range(6))
    program = compile_source("""
        int f(int x, int y) { return x * y - 1; }
        int main() {
            int c; int r = 0;
            c = getc(0);
            while (c >= 0) {
                switch (c & 7) { %s }
                r = r + f(c, 3) / 2 %% 5;
                c = getc(0);
            }
            puti(r);
            return r;
        }
    """ % cases, "t")
    outcome = assert_same(program, inputs=[bytes(range(40))], trace=True)
    assert outcome[2] != 0


# -- faults and budgets ----------------------------------------------------

_FAULTS = {
    "load out of range": (".globals 2\nfunc main:\n    li r1, 100\n"
                          "    load r2, r1, 0\n    halt\n", ()),
    "store out of range": (".globals 2\nfunc main:\n    li r1, -1\n"
                           "    li r2, 5\n    store r2, r1, 0\n    halt\n",
                           ()),
    "division by zero": ("func main:\n    li r1, 5\n    li r2, 0\n"
                         "    div r3, r1, r2\n    halt\n", ()),
    "remainder by zero": ("func main:\n    li r1, 5\n    li r2, 0\n"
                          "    rem r3, r1, r2\n    halt\n", ()),
    "ret on an empty stack": ("func main:\n    ret\n", ()),
    "jind out of range": ("func main:\n    li r1, 999\n    jind r1\n"
                          "    halt\n", ()),
    "missing input stream": ("func main:\n    getc r1, 3\n    halt\n",
                             (b"x",)),
    "table index out of range": (
        ".table t a a\nfunc main:\n    li r1, 5\n    table r2, t, r1\n"
        "    jind r2\na:\n    halt\n", ()),
    "unset register": ("func main:\n    li r1, 1\n    add r3, r1, r2\n"
                       "    halt\n", ()),
}


@pytest.mark.parametrize("name", sorted(_FAULTS))
def test_fault_parity(name):
    source, inputs = _FAULTS[name]
    outcome = assert_same(assemble(source), inputs=inputs, trace=True)
    assert outcome[0] == "raised"


def test_budget_sweep_over_a_benchmark_run():
    program = compile_benchmark("wc")
    inputs = [b"ab cd\nef\n"]
    total = Machine(program, inputs=inputs).run().instructions
    for budget in range(-1, total + 2):
        outcome = assert_same(program, inputs=inputs, trace=True,
                              max_instructions=budget)
        assert (outcome[0] == "raised") == (budget < total)


def test_a_fault_before_the_budget_point_wins():
    # One block: the load faults at its second instruction, so every
    # budget that lets it run reports the fault, not the budget.
    program = assemble("""
.globals 2
func main:
    li r1, 100
    load r2, r1, 0
    li r3, 1
    li r4, 2
    halt
""")
    outcomes = [assert_same(program, max_instructions=budget)
                for budget in range(1, 6)]
    assert outcomes[0][2] == "exceeded 1 instructions (pc=1)"
    assert {outcome[2] for outcome in outcomes[1:]} == {
        "load out of range: address 100 at pc 1"}


def test_the_budget_point_inside_a_run_of_nops():
    program = assemble("func main:\n    nop\n    nop\n    nop\n"
                       "    li r1, 1\n    halt\n")
    for budget in range(1, 7):
        assert_same(program, max_instructions=budget)


# -- the cache -------------------------------------------------------------


def test_a_mutated_program_never_reuses_stale_code():
    program = assemble("func main:\n    li r1, 4\n    puti r1\n    halt\n")
    assert Machine(program).run().output == b"4"
    program.instructions[0].imm = 5
    assert Machine(program).run().output == b"5"


def test_the_cache_does_not_keep_programs_alive():
    program = assemble("func main:\n    li r1, 4\n    puti r1\n    halt\n")
    Machine(program, trace=True).run()
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None
    assert compiled._CACHE


def test_concurrent_runs_of_one_program_do_not_share_state():
    program = compile_benchmark("wc")
    inputs = [[bytes([65 + index]) * (50 + index) + b" x\n"]
              for index in range(6)]
    expected = [Machine(program, inputs=streams)._run().output
                for streams in inputs]
    outputs = {}

    def work(index):
        for _ in range(20):
            result = Machine(program, inputs=inputs[index]).run()
            outputs.setdefault(index, set()).add(result.output)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outputs == {index: {output}
                       for index, output in enumerate(expected)}


def test_the_path_follows_slot_mode_and_address_trace(monkeypatch):
    calls = []
    monkeypatch.setattr(compiled, "run_compiled",
                        lambda machine: calls.append(machine) or "compiled")
    program = assemble("func main:\n    halt\n")
    assert Machine(program).run() == "compiled"
    assert Machine(program, slot_mode="execute").run() != "compiled"
    assert Machine(program, address_trace=True).run() != "compiled"
    assert len(calls) == 1
