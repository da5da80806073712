"""Tests for the trace-layout pass."""

import pytest

from repro.analysis.verify import VerificationError
from repro.cfg import ControlFlowGraph
from repro.isa.opcodes import Opcode
from repro.lang import compile_source
from repro.profiling import profile_program
from repro.traceopt import build_fs_program
from repro.traceopt import layout as layout_module
from repro.vm import run_program

BRANCHY = """
int hist[32];
int main() {
    int i; int t = 0; int c;
    for (i = 0; i < 60; i = i + 1) {
        if (i % 10 == 0) t = t + 100;
        else t = t + 1;
        if (i > 55) t = t * 2;
    }
    c = getc(0);
    while (c != -1) {
        hist[c % 32] = hist[c % 32] + 1;
        c = getc(0);
    }
    puti(t); putc(' '); puti(hist[3]);
    return 0;
}
"""

INPUTS = [[b"some text with letters"], [b""], [b"aaa bbb ccc"]]


def layout_for(source=BRANCHY, inputs=INPUTS):
    program = compile_source(source, "t")
    profile, outputs = profile_program(program, inputs)
    return program, profile, build_fs_program(program, profile), outputs


def test_layout_preserves_outputs():
    program, _, layout, outputs = layout_for()
    for streams, expected in zip(INPUTS, outputs):
        assert run_program(layout.program, inputs=streams).output == expected


def test_layout_preserves_outputs_on_unseen_input():
    program, _, layout, _ = layout_for()
    unseen = [b"completely new input 123!"]
    assert (run_program(layout.program, inputs=unseen).output
            == run_program(program, inputs=unseen).output)


def test_layout_is_a_permutation_plus_glue():
    program, _, layout, _ = layout_for()
    # Every original instruction appears exactly once (tracked by
    # old_address_of); extra instructions are inserted JUMPs.
    mapped = [address for address in layout.old_address_of
              if address is not None]
    assert sorted(mapped) == sorted(set(mapped))
    inserted = [new for new, old in enumerate(layout.old_address_of)
                if old is None]
    for new in inserted:
        assert layout.program.instructions[new].op is Opcode.JUMP


def test_layout_validates():
    _, _, layout, _ = layout_for()
    layout.program.validate()
    cfg = ControlFlowGraph.from_program(layout.program)
    cfg.validate()


def test_every_conditional_gets_a_likely_bit():
    _, _, layout, _ = layout_for()
    sites = layout.likely_sites
    conditionals = [address for address, instr
                    in layout.program.branch_addresses()
                    if instr.is_conditional]
    assert sorted(sites) == sorted(conditionals)


def test_likely_bits_match_dynamic_majority():
    """A branch marked likely must actually be taken more than half the
    time when the laid-out program runs."""
    _, _, layout, _ = layout_for()
    from collections import defaultdict
    execs = defaultdict(int)
    taken = defaultdict(int)
    for streams in INPUTS:
        trace = run_program(layout.program, inputs=streams,
                            trace=True).trace
        for site, branch_class, was_taken, _, _ in trace.records():
            if branch_class == 0:
                execs[site] += 1
                taken[site] += was_taken
    for site, bit in layout.likely_sites.items():
        if execs[site] == 0:
            continue
        fraction = taken[site] / execs[site]
        if bit:
            assert fraction > 0.5, (site, fraction)
        else:
            assert fraction <= 0.5 + 1e-9, (site, fraction)


def test_loop_rotation_produces_likely_taken_backward_branch():
    source = """
    int main() {
        int i; int t = 0;
        for (i = 0; i < 100; i = i + 1) t = t + i;
        puti(t);
        return 0;
    }
    """
    program = compile_source(source, "t")
    profile, _ = profile_program(program, [[]])
    layout = build_fs_program(program, profile)
    likely_backward = [
        address for address, instr in layout.program.branch_addresses()
        if instr.is_conditional and instr.likely and instr.target <= address
    ]
    assert likely_backward, "rotation should leave a likely backward branch"


def test_functions_survive_layout():
    program, _, layout, _ = layout_for()
    assert set(layout.program.functions) == set(program.functions)
    assert layout.program.entry == layout.leader_map[program.entry]


SWITCH = """
int main() {
    int v = getc(0);
    switch (v) {
        case 0: return 1; case 1: return 2; case 2: return 3;
        case 3: return 4; case 4: return 5; case 5: return 6;
        default: return 0;
    }
}
"""


def test_jump_tables_remapped():
    program = compile_source(SWITCH, "t")
    profile, _ = profile_program(program, [[bytes([2])], [bytes([5])]])
    layout = build_fs_program(program, profile)
    for value in range(6):
        assert (run_program(layout.program, inputs=[bytes([value])]).exit_value
                == value + 1)
    assert run_program(layout.program, inputs=[bytes([99])]).exit_value == 0


def test_hot_trace_placed_first():
    _, profile, layout, _ = layout_for()
    weights = [trace.weight for trace in layout.traces]
    assert weights == sorted(weights, reverse=True)


# -- the translation validator ----------------------------------------------
#
# Each test breaks one step of the pass and lays out with verify=False,
# so only the translation validator stands between the broken layout
# and its caller.


def _broken_layout(monkeypatch, helper, breaker, source=BRANCHY,
                   inputs=INPUTS):
    """Lay ``source`` out with ``breaker`` applied to the result of the
    layout helper ``helper``; returns how often it broke something."""
    program = compile_source(source, "t")
    profile, _ = profile_program(program, inputs)
    original = getattr(layout_module, helper)
    broken = []

    def wrapper(*args):
        result = original(*args)
        broken.extend(breaker(args, result))
        return result

    monkeypatch.setattr(layout_module, helper, wrapper)
    with pytest.raises(VerificationError, match="layout translation"):
        build_fs_program(program, profile, verify=False)
    return len(broken)


def test_validator_catches_a_wrong_remapped_target(monkeypatch):
    def breaker(args, result):
        _, new_program, leader_map = args
        instructions = new_program.instructions
        for address, instr in enumerate(instructions):
            if instr.op is Opcode.JUMP or instr.is_conditional:
                wrong = [leader for leader in sorted(leader_map.values())
                         if leader != instr.target]
                instr.target = wrong[0]
                return [address]
        return []

    assert _broken_layout(monkeypatch, "_remap", breaker)


def test_validator_catches_an_inversion_that_keeps_its_target(monkeypatch):
    def breaker(args, result):
        cfg, block = args[:2]
        terminator = result[0][-1]
        old = cfg.program.instructions[block.end - 1]
        if terminator.is_conditional and terminator.op is not old.op:
            terminator.target = old.target
            return [block.start]
        return []

    assert _broken_layout(monkeypatch, "_rewrite_block", breaker)


def test_validator_catches_an_inserted_jump_to_the_wrong_block(monkeypatch):
    def breaker(args, result):
        _, block = args[:2]
        instructions, old_addresses = result
        if old_addresses[-1] is None:
            instructions[-1].target = block.start
            return [block.start]
        return []

    assert _broken_layout(monkeypatch, "_rewrite_block", breaker)


def test_validator_catches_an_unmapped_jump_table_entry(monkeypatch):
    def breaker(args, result):
        program, new_program, leader_map = args
        table = new_program.jump_tables[0]
        for index, entry in enumerate(program.jump_tables[0].entries):
            if leader_map[entry] != entry:
                table.entries[index] = entry
                return [index]
        return []

    assert _broken_layout(monkeypatch, "_remap", breaker, source=SWITCH,
                          inputs=[[bytes([2])], [bytes([5])]])

