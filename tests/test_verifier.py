"""Tests for the IR verifier: deliberate corruptions and clean passes.

Each mutation test takes a known-good program, breaks exactly one
invariant, and asserts the verifier reports the expected rule.  The
clean-pass tests run the verifier over every benchmark at every
pipeline stage and expect zero errors.
"""

import pytest

from repro.analysis import (
    VerificationError,
    assert_valid,
    verify_program,
)
from repro.benchmarksuite import ALL_BENCHMARK_NAMES, get_benchmark
from repro.isa import Opcode, assemble
from repro.isa.instruction import Instruction
from repro.lang import compile_source
from repro.opt import optimize
from repro.traceopt import fill_forward_slots

# helper comes first so that removing its RET falls through into main.
BASE_SOURCE = """
func helper:
    li r5, 1
    add r5, r0, r5
    retv r5
    ret
func main:
    li r1, 0
    li r2, 5
loop:
    add r1, r1, r2
    li r3, 1
    sub r2, r2, r3
    bgt r2, r3, loop
    arg 0, r1
    call helper
    result r1
    puti r1
    halt
"""

HELPER_RET = 3
MAIN_ENTRY = 4
LOOP_ADD = 6
BGT = 9
ARG = 10
CALL = 11
PUTI = 13
HALT = 14


def base_program():
    return assemble(BASE_SOURCE)


def slotted_program(n_slots=2):
    """The base program with a likely bit on the loop branch and
    forward slots filled — the Forward Semantic shape."""
    program = base_program()
    program.instructions[BGT].likely = True
    slotted, _ = fill_forward_slots(program, n_slots)
    return slotted


def error_rules(program):
    return {finding.rule for finding in verify_program(program)
            if finding.is_error}


# -- clean passes ------------------------------------------------------------

def test_base_and_slotted_fodder_are_clean():
    assert error_rules(base_program()) == set()
    assert error_rules(slotted_program()) == set()


@pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
def test_every_benchmark_verifies_clean(name):
    program = compile_source(get_benchmark(name).source, name=name)
    assert_valid(program, context=name)
    optimized, _ = optimize(program)  # verifies after every pass
    assert_valid(optimized, context=name + " (optimized)")


# -- mutations: text-level rules ---------------------------------------------

def test_branch_target_outside_text():
    program = base_program()
    program.instructions[BGT].target = 999
    assert "branch-target" in error_rules(program)


def test_call_target_not_a_function_entry():
    program = base_program()
    program.instructions[CALL].target = HELPER_RET
    assert "call-target" in error_rules(program)


def test_likely_bit_on_non_conditional():
    program = base_program()
    program.instructions[ARG].likely = True
    assert "likely-flag" in error_rules(program)


def test_fall_off_the_end_of_the_text():
    program = base_program()
    program.instructions[HALT] = Instruction(Opcode.PUTI, a=1)
    assert "fall-off-end" in error_rules(program)


def test_corrupt_jump_table_entry():
    program = assemble("""
.table t0 case0 case1
func main:
    li r1, 1
    table r2, t0, r1
    jind r2
case0:
    puti r1
    halt
case1:
    halt
""")
    assert error_rules(program) == set()
    program.jump_tables[0].entries[0] = 999
    assert "table-entry" in error_rules(program)


def test_table_instruction_names_missing_table():
    program = assemble("""
.table t0 case0 case0
func main:
    li r1, 1
    table r2, t0, r1
    jind r2
case0:
    puti r1
    halt
""")
    program.instructions[1].imm = 5
    assert "table-entry" in error_rules(program)


# -- mutations: forward-slot rules -------------------------------------------

def test_slots_on_a_branch_not_predicted_taken():
    program = slotted_program()
    branch = next(instr for instr in program.instructions if instr.n_slots)
    branch.likely = False
    assert "slots-likely" in error_rules(program)


def test_truncated_slot_region():
    program = slotted_program()
    branch = next(instr for instr in program.instructions if instr.n_slots)
    branch.n_slots -= 1  # adjusted target now consumes more than reserved
    assert "slot-region" in error_rules(program)


def test_slot_copy_diverging_from_target_path():
    program = slotted_program()
    address = next(address
                   for address, instr in enumerate(program.instructions)
                   if instr.n_slots)
    program.instructions[address + 1] = Instruction(Opcode.LI, dest=9,
                                                    imm=42)
    assert "slot-region" in error_rules(program)


def test_branch_targeting_the_middle_of_a_slot_region():
    program = slotted_program()
    address = next(address
                   for address, instr in enumerate(program.instructions)
                   if instr.n_slots)
    program.instructions[address].target = address + 1
    assert "target-into-slots" in error_rules(program)


# -- mutations: CFG-level rules ----------------------------------------------

def test_dropped_ret_falls_into_the_next_function():
    program = base_program()
    program.instructions[HELPER_RET] = Instruction(Opcode.LI, dest=9, imm=0)
    assert "cross-function" in error_rules(program)


def test_ret_reachable_in_the_entry_function():
    program = base_program()
    program.instructions[PUTI] = Instruction(Opcode.RET)
    assert "ret-in-entry" in error_rules(program)


def test_read_of_a_never_written_register():
    program = base_program()
    program.instructions[LOOP_ADD].a = 9
    rules = error_rules(program)
    assert "use-before-def" in rules


def test_unreachable_block_is_info_not_an_error():
    program = assemble("""
func main:
    jump end
    li r1, 1
    puti r1
end:
    halt
""")
    findings = verify_program(program)
    assert [(finding.rule, finding.severity) for finding in findings] \
        == [("unreachable", "info")]
    assert_valid(program)  # infos alone must not raise


# -- reporting ---------------------------------------------------------------

def test_assert_valid_names_the_context_and_rule():
    program = base_program()
    program.instructions[BGT].target = 999
    with pytest.raises(VerificationError) as caught:
        assert_valid(program, context="mutation test")
    message = str(caught.value)
    assert "mutation test" in message
    assert "branch-target" in message
    assert caught.value.context == "mutation test"
    assert all(finding.is_error for finding in caught.value.findings)


def test_optimizer_pipeline_blames_the_broken_pass(monkeypatch):
    import repro.opt.pipeline as pipeline

    def broken_thread_jumps(program):
        corrupted = program.copy()
        for instr in corrupted.instructions:
            if instr.is_conditional:
                instr.target = len(corrupted.instructions) + 7
                break
        return corrupted, 1

    monkeypatch.setattr(pipeline, "thread_jumps", broken_thread_jumps)
    with pytest.raises(VerificationError) as caught:
        optimize(base_program())
    assert "jump threading" in str(caught.value)


def test_optimize_verify_off_skips_the_checks(monkeypatch):
    import repro.opt.pipeline as pipeline

    def broken_thread_jumps(program):
        corrupted = program.copy()
        for instr in corrupted.instructions:
            if instr.is_conditional:
                instr.target = 0  # wrong but structurally valid
                break
        return corrupted, 0  # report no change so the loop converges

    monkeypatch.setattr(pipeline, "thread_jumps", broken_thread_jumps)
    optimize(base_program(), verify=False)  # must not raise
