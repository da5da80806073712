"""Compiled functions against the reference interpreter.

``Machine.run`` executes direct-mode runs as one generated Python
function per program function (:mod:`repro.vm.compiled`);
``Machine._run`` is the reference.  Every test here runs both on the
same machine and requires identical results: output, instruction
count, exit value and the five trace arrays with their dtypes, or the
same exception type and message.  Probe runs, and runs the compiled
code cannot finish, run on the reference; the tests below count them.
"""

import gc
import random
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
from repro.telemetry.core import TELEMETRY
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
    return (result.output, result.instructions, result.exit_value, trace)


def assert_same(program, **kwargs):
    """Both paths agree on ``Machine(program, **kwargs)``; returns the
    outcome."""
    machine = Machine(program, **kwargs)
    outcome = _outcome(machine.run)
    assert outcome == _outcome(machine._run)
    return outcome


def _three_programs(name, scale=0.02):
    """The base program, its FS layout, and the layout with three
    forward slots, over ``name``'s input suite."""
    program = compile_benchmark(name)
    suite = get_benchmark(name).input_suite(scale=scale)
    profile, _ = profile_program(program, suite)
    layout = build_fs_program(program, profile)
    slotted, _ = fill_forward_slots(layout.program, 3)
    return suite, (program, layout.program, slotted)


def _check_benchmark(name):
    suite, versions = _three_programs(name)
    for streams in suite:
        for program in versions:
            outcome = assert_same(program, inputs=streams, trace=True)
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
    """Both paths hand over narrow traces: int8 classes, bool takens,
    and sites, targets and gaps in the narrowest signed dtype of their
    range."""
    suite, versions = _three_programs("wc")
    machine = Machine(versions[1], inputs=suite[0], trace=True)
    for trace in (machine.run().trace, machine._run().trace):
        assert (trace.classes.dtype, trace.takens.dtype) == (np.int8, bool)
        for column in ("sites", "targets", "gaps"):
            values = getattr(trace, column)
            narrowest = next(
                dtype for dtype in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(dtype).min <= values.min()
                and values.max() <= np.iinfo(dtype).max)
            assert values.dtype == narrowest, column


# -- generated programs ------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(programs())
def test_compiled_matches_reference_on_generated_programs(source):
    program, _ = optimize(compile_source(source, "fuzz"))
    assert_same(program, trace=True, max_instructions=2_000_000)
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
    sites, takens = outcome[3][0][1], outcome[3][2][1]
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
    outcome = assert_same(program, trace=True)
    assert outcome[0] == b"9"


def test_probes_outside_the_code_count_zero():
    program = assemble("func main:\n    halt\n")
    result = Machine(program, probe_addresses=[0, 5, -1]).run()
    assert result.probe_counts == {0: 1, 5: 0, -1: 0}


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


def _random_assembly(rng):
    """A random assembly program: branches, jumps, calls and indirect
    jumps to any label, so control crosses functions, calls land
    mid-function and jumps land mid-block; registers start set or
    unset."""
    names = ["main", "g1", "g2"]
    labels = 6
    operand = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr",
               "div", "rem"]
    lines = [".globals 8", ".table t L0 L1 L2"]
    for name in names:
        lines.append("func %s:" % name)
        lines += ["    li r%d, %d" % (k, rng.randint(-1, 4))
                  for k in range(5) if rng.random() < 0.7]
        for _ in range(rng.randint(2, 12)):
            if rng.random() < 0.3:
                lines.append("L%d:" % rng.randrange(labels))
            reg = ["r%d" % rng.randint(0, 4) for _ in range(3)]
            label = "L%d" % rng.randrange(labels)
            lines.append("    " + rng.choice([
                "li %s, %d" % (reg[0], rng.randint(-3, 9)),
                "%s %s, %s, %s" % (rng.choice(operand), *reg),
                "%s %s, %s, %s" % (rng.choice(
                    ["beq", "bne", "blt", "ble", "bgt", "bge"]),
                    reg[0], reg[1], label),
                "jump " + label,
                "arg %d, %s" % (rng.randint(0, 2), reg[0]),
                "call " + rng.choice(names + [label]),
                "result " + reg[0],
                "retv " + reg[0],
                "ret",
                "jind " + reg[0],
                "table %s, t, %s" % (reg[0], reg[1]),
                "load %s, %s, %d" % (reg[0], reg[1], rng.randint(-1, 3)),
                "store %s, %s, %d" % (reg[0], reg[1], rng.randint(-1, 3)),
                "getc %s, %d" % (reg[0], rng.randint(0, 1)),
                "puti " + reg[0],
                "halt"]))
        lines.append("    halt" if name == "main" else "    ret")
    # Every label is defined exactly once, the missing ones at the end.
    defined = set()
    for index, line in enumerate(lines):
        if line.endswith(":") and line.startswith("L"):
            if line in defined:
                lines[index] = "    nop"
            defined.add(line)
    lines += ["L%d:" % k for k in range(labels)
              if "L%d:" % k not in defined]
    lines.append("    halt")
    return assemble("\n".join(lines) + "\n")


def _random_machines(seed):
    """The runs of ``seed``: five random programs, each under a small
    random budget and under 5000 instructions."""
    rng = random.Random(seed)
    for _ in range(5):
        program = _random_assembly(rng)
        for budget in (rng.randint(0, 60), 5000):
            yield Machine(program, inputs=[bytes([rng.randrange(256)] * 5)],
                          trace=True, max_instructions=budget)


@pytest.mark.parametrize("seed", range(40))
def test_compiled_matches_reference_on_random_assembly(seed):
    for machine in _random_machines(seed):
        assert _outcome(machine.run) == _outcome(machine._run)


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


@pytest.fixture
def counters():
    """The counters of the test's runs whose names start with a
    prefix (default ``vm.``)."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    yield lambda prefix="vm.": {
        name: value for name, value
        in TELEMETRY.snapshot()["counters"].items()
        if name.startswith(prefix)}
    TELEMETRY.disable().reset()


def test_the_random_assembly_ledger_counts_every_run(counters):
    """Over the runs of the 40 random-assembly seeds, each run counts
    once in ``vm.runs``: the completed ones, and the ones that raised,
    which count in ``vm.faults`` too; no more runs leave the fast path
    than ran."""
    completed = 0
    for seed in range(40):
        for machine in _random_machines(seed):
            completed += _outcome(machine.run)[0] != "raised"
    ledger = counters()
    assert completed and ledger["vm.faults"]
    assert ledger["vm.runs"] == completed + ledger["vm.faults"]
    assert ledger["vm.fast_path_exits"] <= ledger["vm.runs"]


@pytest.fixture
def exits(counters):
    """The ``vm.fast_path_exits`` counters of the test's runs."""
    return lambda: counters("vm.fast_path_exits")


def _chain(depth):
    """A recursive call chain ``depth`` frames deep that prints its
    depth back."""
    return assemble("""
func main:
    li r1, %d
    arg 0, r1
    call f
    result r2
    puti r2
    halt
func f:
    li r1, 0
    beq r0, r1, done
    li r2, 1
    sub r3, r0, r2
    arg 0, r3
    call f
    result r4
    add r4, r4, r2
    retv r4
    ret
done:
    retv r1
    ret
""" % depth)


def test_a_call_chain_deeper_than_the_recursion_limit(exits):
    depth = sys.getrecursionlimit() + 4000
    program = _chain(depth)
    machine = Machine(program, trace=True)
    outcome = assert_same(program, trace=True)
    assert outcome[0] == b"%d" % depth
    # The path itself: one block per call, one per return, and
    # main's three blocks.
    assert len(machine.run().block_path.starts) == 3 + 3 * depth + 1
    assert exits() == {"vm.fast_path_exits": 2,
                       "vm.fast_path_exits.depth": 2}


def test_a_call_chain_deeper_than_the_recursion_limit_overruns():
    depth = sys.getrecursionlimit() + 4000
    program = _chain(depth)
    total = Machine(program).run().instructions
    # Budget points while the chain grows, at its deepest frame, and
    # while it unwinds.
    for budget in (50, 10 * 900 + 3, 10 * depth + 1, total - 7, total - 1):
        outcome = assert_same(program, trace=True, max_instructions=budget)
        assert outcome[:2] == ("raised", compiled.ExecutionLimitExceeded)


def test_a_fault_three_frames_deep_after_output(exits):
    program = assemble("""
func main:
    li r1, 7
    puti r1
    call f
    halt
func f:
    call g
    ret
func g:
    li r1, 8
    puti r1
    call h
    ret
func h:
    li r1, 9
    puti r1
    li r2, 0
    div r3, r1, r2
    ret
""")
    outcome = assert_same(program, trace=True)
    assert outcome[1:] == (compiled.MachineError, "division by zero")
    assert exits()["vm.fast_path_exits.fault"] == 1


def test_an_unset_register_read_in_a_callee_given_too_few_arguments(exits):
    program = assemble("""
func main:
    li r1, 3
    arg 0, r1
    call add2
    result r2
    puti r2
    halt
func add2:
    add r2, r0, r1
    retv r2
    ret
""")
    outcome = assert_same(program, trace=True)
    assert outcome[1:] == (KeyError, "1")
    assert exits()["vm.fast_path_exits.fault"] == 1


def test_an_indirect_jump_into_the_middle_of_another_functions_block(
        counters):
    source = """
func main:
    li r1, {target}
    jind r1
    halt
func other:
    li r2, 7
    puti r2
    li r2, 9
    puti r2
    halt
"""
    target = assemble(source.format(target=0)).labels["other"] + 2
    program = assemble(source.format(target=target))
    outcome = assert_same(program, trace=True)
    assert outcome[0] == b"9"
    # Every run of it re-runs on the reference: the compiled program
    # is never rebuilt, and the result has no block path.
    machine = Machine(program, trace=True)
    assert machine.run().block_path is None
    assert counters() == {"vm.runs": 2, "vm.compiled_runs": 2,
                          "vm.instructions": 2 * outcome[1],
                          "vm.fast_path_exits": 2,
                          "vm.fast_path_exits.jind": 2}


def test_a_probe_run_runs_on_the_reference(counters, monkeypatch):
    monkeypatch.setattr(compiled, "_CACHE", {})
    program = compile_benchmark("wc")
    leaders = ControlFlowGraph.from_program(program).leaders
    machine = Machine(program, inputs=[b"ab cd\nef\n"], trace=True,
                      probe_addresses=leaders)
    result = machine.run()
    assert _outcome(lambda: result) == _outcome(machine._run)
    assert result.probe_counts == machine._run().probe_counts
    assert sum(result.probe_counts.values()) > 0
    assert result.block_path is None
    assert counters() == {"vm.runs": 1,
                          "vm.instructions": result.instructions}
    assert not compiled._CACHE


def test_the_cache_holds_one_entry_per_program(monkeypatch):
    monkeypatch.setattr(compiled, "_CACHE", {})
    program = _chain(3)
    for probes in (None, [0], range(len(program)), None):
        assert_same(program, trace=True, probe_addresses=probes)
    entry, = compiled._CACHE.values()
    # A JIND miss leaves its program's entry as it was built.
    jumper = assemble("func main:\n    li r1, 4\n    jind r1\n"
                      "    li r2, 7\n    puti r2\n    li r2, 9\n"
                      "    puti r2\n    halt\n")
    assert_same(jumper, trace=True)
    built = dict(compiled._CACHE)
    assert_same(jumper, trace=True)
    assert compiled._CACHE == built
    assert len(built) == 2 and entry in built.values()


def test_an_endless_loop_stops_at_its_budget():
    program = assemble("""
func main:
    li r1, 0
    li r2, 1
loop:
    add r1, r1, r2
    jump loop
""")
    for budget in (0, 1, 2, 3, 1000, 1001):
        outcome = assert_same(program, trace=True, max_instructions=budget)
        assert outcome[:2] == ("raised", compiled.ExecutionLimitExceeded)


def test_the_budget_point_inside_an_inner_loop():
    program = assemble("""
func main:
    li r1, 0
    li r5, 1
    li r6, 3
outer:
    li r2, 0
inner:
    add r2, r2, r5
    puti r2
    blt r2, r6, inner
    add r1, r1, r5
    blt r1, r6, outer
    halt
""")
    total = Machine(program).run().instructions
    for budget in range(total + 2):
        outcome = assert_same(program, trace=True, max_instructions=budget)
        assert (outcome[0] == "raised") == (budget < total)


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
