"""Property-based fuzzing of the whole compiler + FS pipeline.

Hypothesis generates random (bounded, always-terminating) Minic
programs; each is compiled, optimized, profiled, trace-laid-out, and
slot-expanded, and every stage must preserve the program's output
byte for byte — including literal forward-slot execution.

The generator only emits bounded ``for`` loops with dedicated index
variables and guards divisions, so every generated program terminates.

The same programs, laid out and slot-filled, also check
``use_before_def`` against a brute-force reference.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    FlowGraph,
    function_argument_counts,
    register_written,
    registers_read,
    use_before_def,
)
from repro.analysis.staticpred import estimate_profile
from repro.isa import Instruction, Opcode
from repro.lang import compile_source
from repro.opt import optimize
from repro.profiling import profile_program
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.vm import run_program

_VARS = ["a", "b", "c", "d"]
_BINOPS = ["+", "-", "*", "&", "|", "^"]
_COMPARES = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def expressions(draw, depth=0):
    kind = draw(st.integers(min_value=0, max_value=7 if depth < 3 else 2))
    if kind == 0:
        return str(draw(st.integers(min_value=-50, max_value=50)))
    if kind == 1:
        return draw(st.sampled_from(_VARS))
    if kind == 2:
        index = draw(expressions(depth=depth + 1)) if depth < 3 else "a"
        return "mem[(%s) & 63]" % index
    if kind == 3:
        op = draw(st.sampled_from(_BINOPS))
        return "(%s %s %s)" % (draw(expressions(depth=depth + 1)), op,
                               draw(expressions(depth=depth + 1)))
    if kind == 4:
        # Guarded division: the divisor is always 1..8.
        return "(%s / ((%s & 7) + 1))" % (
            draw(expressions(depth=depth + 1)),
            draw(expressions(depth=depth + 1)))
    if kind == 5:
        op = draw(st.sampled_from(_COMPARES))
        return "(%s %s %s)" % (draw(expressions(depth=depth + 1)), op,
                               draw(expressions(depth=depth + 1)))
    if kind == 6:
        op = draw(st.sampled_from(["&&", "||"]))
        return "(%s %s %s)" % (draw(expressions(depth=depth + 1)), op,
                               draw(expressions(depth=depth + 1)))
    # Spaced so a following negative literal does not lex as `--`
    # (exactly as in C).
    return "(- %s)" % draw(expressions(depth=depth + 1))


@st.composite
def statements(draw, depth, loop_depth):
    kind = draw(st.integers(min_value=0, max_value=5 if depth < 3 else 2))
    indent = "    " * (depth + 1)
    if kind == 0:
        return "%s%s = %s;" % (indent, draw(st.sampled_from(_VARS)),
                               draw(expressions()))
    if kind == 1:
        return "%smem[(%s) & 63] = %s;" % (indent, draw(expressions()),
                                           draw(expressions()))
    if kind == 2:
        target = draw(st.sampled_from(["puti(%s);", "putc((%s & 63) + 32);"]))
        return indent + target % draw(expressions())
    if kind == 3:
        body = draw(statements(depth=depth + 1, loop_depth=loop_depth))
        condition = draw(expressions())
        if draw(st.booleans()):
            other = draw(statements(depth=depth + 1, loop_depth=loop_depth))
            return "%sif (%s) {\n%s\n%s} else {\n%s\n%s}" % (
                indent, condition, body, indent, other, indent)
        return "%sif (%s) {\n%s\n%s}" % (indent, condition, body, indent)
    if kind == 4 and loop_depth < 2:
        index = "i%d" % loop_depth
        bound = draw(st.integers(min_value=1, max_value=6))
        body = draw(statements(depth=depth + 1, loop_depth=loop_depth + 1))
        return ("%sfor (%s = 0; %s < %d; %s = %s + 1) {\n%s\n%s}"
                % (indent, index, index, bound, index, index, body, indent))
    # Fallback: a compound of two simple statements.
    first = "%s%s = %s;" % (indent, draw(st.sampled_from(_VARS)),
                            draw(expressions()))
    second = "%sputi(%s);" % (indent, draw(st.sampled_from(_VARS)))
    return first + "\n" + second


@st.composite
def programs(draw):
    body = [draw(statements(depth=0, loop_depth=0))
            for _ in range(draw(st.integers(min_value=1, max_value=5)))]
    return (
        "int mem[64];\n"
        "int main() {\n"
        "    int a = 1; int b = 2; int c = 3; int d = 4;\n"
        "    int i0; int i1;\n"
        + "\n".join(body) + "\n"
        "    puti(a); puti(b); puti(c); puti(d);\n"
        "    puti(mem[0]); puti(mem[63]);\n"
        "    return 0;\n"
        "}\n"
    )


@settings(max_examples=40, deadline=None)
@given(programs())
def test_every_stage_preserves_output(source):
    program = compile_source(source, "fuzz")
    baseline = run_program(program, max_instructions=2_000_000)

    optimized, _ = optimize(program)
    assert run_program(optimized,
                       max_instructions=2_000_000).output == baseline.output

    profile, outputs = profile_program(optimized, [[]],
                                       max_instructions=2_000_000)
    assert outputs[0] == baseline.output

    layout = build_fs_program(optimized, profile)
    assert run_program(layout.program,
                       max_instructions=2_000_000).output == baseline.output

    for n_slots in (1, 3):
        expanded, _ = fill_forward_slots(layout.program, n_slots)
        for mode in ("direct", "execute"):
            result = run_program(expanded, slot_mode=mode,
                                 max_instructions=4_000_000)
            assert result.output == baseline.output, (mode, n_slots)


_ENDERS = (Opcode.JUMP, Opcode.RET, Opcode.JIND, Opcode.HALT)


def reference_use_before_def(program):
    """Reads no path from a function entry defines, from a fixed point
    over per-instruction register sets (no flow graph, no solver)."""
    instructions = program.instructions
    size = len(instructions)

    def successors(pc):
        instr = instructions[pc]
        if instr.op in (Opcode.RET, Opcode.HALT):
            return []
        if instr.op is Opcode.JUMP:
            return [instr.target]
        if instr.op is Opcode.JIND:
            return [entry for table in program.jump_tables
                    for entry in table.entries]
        following = [pc + 1] if pc + 1 < size else []
        if not instr.is_conditional:
            return following
        target = instr.target
        if instr.n_slots:
            # A copy that absorbed an unconditional transfer always
            # leaves the slots through it: the adjusted target is
            # never reached, the original one is (in direct mode).
            consumed = target - instr.orig_target
            if 0 < consumed <= instr.n_slots \
                    and instructions[pc + consumed].op in _ENDERS:
                target = instr.orig_target
        return [target] + following

    defined = [0] * size
    for entry, count in function_argument_counts(program).items():
        defined[entry] = (1 << count) - 1
    changed = True
    while changed:
        changed = False
        for pc, instr in enumerate(instructions):
            written = register_written(instr)
            out = defined[pc] | (0 if written is None else 1 << written)
            for successor in successors(pc):
                if out & ~defined[successor]:
                    defined[successor] |= out
                    changed = True
    return [(pc, register) for pc, instr in enumerate(instructions)
            for register in registers_read(instr)
            if not defined[pc] >> register & 1]


def _drop_a_write(program, choice):
    """A copy with one register write replaced by a NOP, so some reads
    lose their definition on some or all paths."""
    writes = [address for address, instr in enumerate(program.instructions)
              if register_written(instr) is not None]
    mutant = program.copy()
    if writes:
        mutant.instructions[writes[choice % len(writes)]] = \
            Instruction(Opcode.NOP)
    return mutant


@settings(max_examples=40, deadline=None)
@given(programs(), st.integers(min_value=0, max_value=1000))
def test_use_before_def_matches_a_brute_force_reference(source, choice):
    program = compile_source(source, "fuzz")
    layout = build_fs_program(program, estimate_profile(program))
    stages = [program, layout.program]
    stages.extend(fill_forward_slots(layout.program, n_slots)[0]
                  for n_slots in (1, 2, 4, 8))
    for stage in stages:
        for candidate in (stage, _drop_a_write(stage, choice)):
            assert use_before_def(FlowGraph.from_program(candidate)) \
                == reference_use_before_def(candidate)
