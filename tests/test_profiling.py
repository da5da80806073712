"""Tests for the block-count profiler.

``Profile.from_paths`` folds block counts and branch directions from
the block paths of compiled runs.  The migration tests below hold it to
the paper's probe profiler as the reference interpreter still runs it:
``Machine._run`` with block probes at every CFG leader and a branch
trace, folded one record at a time.
"""

import json

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
from repro.profiling import Profile, profile_program
from repro.vm import Machine, run_program
from repro.vm.tracing import BranchClass
from tests.test_fuzz_fs_pipeline import programs

COUNTER = """
int main() {
    int i; int t = 0;
    for (i = 0; i < 10; i = i + 1) {
        if (i == 3) t = t + 100;
        t = t + 1;
    }
    puti(t);
    return 0;
}
"""


def test_profile_block_counts_match_execution():
    program = compile_source(COUNTER, "t")
    profile, outputs = profile_program(program, [[]])
    assert outputs == [run_program(program).output]
    # The loop body block runs 10 times.
    assert max(profile.block_counts.values()) >= 10


def test_profile_taken_fractions():
    program = compile_source(COUNTER, "t")
    profile, _ = profile_program(program, [[]])
    fractions = [profile.taken_fraction(site)
                 for site in profile.branch_execs]
    assert all(0.0 <= fraction <= 1.0 for fraction in fractions)
    # The `i == 3` test: compiled as BNE to skip the then-clause, so it
    # is taken 9 of 10 times — some branch must show 0.9.
    assert any(abs(fraction - 0.9) < 1e-9 for fraction in fractions)


def test_profile_accumulates_runs():
    program = compile_source("""
        int main() {
            int c; int n = 0;
            c = getc(0);
            while (c != -1) { n = n + 1; c = getc(0); }
            puti(n);
            return 0;
        }
    """, "t")
    profile, outputs = profile_program(program, [[b"abc"], [b"defgh"], [b""]])
    assert outputs == [b"3", b"5", b"0"]
    # The entry block runs once per run.
    assert profile.block_counts[program.entry] == 3
    # The loop branch executed 3 + 5 + 0 taken iterations in total.
    total_execs = sum(profile.branch_execs.values())
    assert total_execs >= 8


def test_taken_fraction_unprofiled_site_is_none():
    profile = Profile()
    assert profile.taken_fraction(123) is None


def test_profile_serialisation_roundtrip():
    program = compile_source(COUNTER, "t")
    profile, _ = profile_program(program, [[]])
    rebuilt = Profile.from_dict(profile.to_dict())
    assert rebuilt.block_counts == profile.block_counts
    assert rebuilt.branch_execs == profile.branch_execs
    assert rebuilt.branch_taken == profile.branch_taken


def test_serialised_profile_is_jsonable():
    program = compile_source(COUNTER, "t")
    profile, _ = profile_program(program, [[]])
    text = json.dumps(profile.to_dict())
    rebuilt = Profile.from_dict(json.loads(text))
    assert rebuilt.branch_execs == profile.branch_execs


def test_profile_trace_branch_only():
    # Branch statistics cover conditionals only: the CALL, RET and
    # JUMP that run here leave no entry, while their blocks count.
    program = assemble("""
func main:
    call f
    jump done
done:
    halt
func f:
    ret
""")
    profile, _ = profile_program(program, [[], []])
    assert profile.branch_execs == profile.branch_taken == {}
    assert profile.block_counts == {0: 2, 2: 2, 3: 2}


def test_block_counts_only_at_leaders():
    program = compile_source(COUNTER, "t")
    cfg = ControlFlowGraph.from_program(program)
    profile, _ = profile_program(program, [[]])
    assert set(profile.block_counts) == set(cfg.leaders)


def test_a_run_without_a_block_path_names_the_program():
    # The JIND lands inside another function's block, so the run
    # leaves the compiled VM and records no block path.
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
    program = assemble(source.format(target=target), name="jumper")
    assert run_program(program).block_path is None
    with pytest.raises(RuntimeError, match="jumper: input 1 of 2 ran on "
                       "the reference interpreter"):
        profile_program(program, [[], []])


# -- the fold against the probe profiler -------------------------------------


def reference_profile(program, suite, max_instructions=200_000_000):
    """(block counts, branch executions, taken counts) of the probe
    profiler: the reference interpreter with probes at the CFG leaders
    and a branch trace, folded one record at a time."""
    leaders = ControlFlowGraph.from_program(program).leaders
    blocks = dict.fromkeys(leaders, 0)
    execs, taken_counts = {}, {}
    for streams in suite:
        result = Machine(program, inputs=streams, trace=True,
                         probe_addresses=leaders,
                         max_instructions=max_instructions)._run()
        for leader, count in result.probe_counts.items():
            blocks[leader] += count
        for site, branch_class, taken, _, _ in result.trace.records():
            if branch_class == BranchClass.CONDITIONAL:
                execs[site] = execs.get(site, 0) + 1
                if taken:
                    taken_counts[site] = taken_counts.get(site, 0) + 1
    return blocks, execs, taken_counts


def assert_fold_matches_reference(program, suite,
                                  max_instructions=200_000_000):
    """``profile_program``'s fold equals the probe profiler's counts,
    serialises, and passes its own CFG check; returns the profile."""
    profile, _ = profile_program(program, suite,
                                 max_instructions=max_instructions)
    assert (profile.block_counts, profile.branch_execs,
            profile.branch_taken) == reference_profile(
                program, suite, max_instructions)
    # Python ints throughout: NumPy scalars would not serialise.
    json.dumps(profile.to_dict())
    profile.check(program)
    return profile


def _check_benchmark(name, scale):
    assert_fold_matches_reference(
        compile_benchmark(name),
        get_benchmark(name).input_suite(scale=scale),
        max_instructions=500_000_000)


# The name is kept from the trace fold this test first covered, so the
# test ids stay stable.
@pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
def test_add_trace_matches_per_record_fold(name):
    _check_benchmark(name, 0.02)


@pytest.mark.slow
@pytest.mark.parametrize("name", ALL_BENCHMARK_NAMES)
def test_profile_fold_battery(name):
    _check_benchmark(name, 0.1)


@settings(max_examples=25, deadline=None)
@given(programs())
def test_fold_matches_reference_on_generated_programs(source):
    program, _ = optimize(compile_source(source, "fuzz"))
    assert_fold_matches_reference(program, [[]],
                                  max_instructions=2_000_000)


def test_fold_of_a_branch_to_its_own_fall_through():
    # The BLT at pc 3 goes to pc 4 either way, so its direction comes
    # from the side list; the block at `dead` never runs and keeps its
    # 0 count, and its conditional gets no entry.
    program = assemble("""
func main:
    li r1, 0
    li r2, 3
    li r4, 2
loop:
    blt r1, r4, next
next:
    li r3, 1
    add r1, r1, r3
    blt r1, r2, loop
    halt
dead:
    bne r1, r2, loop
    halt
""")
    profile = assert_fold_matches_reference(program, [[], []])
    assert (profile.branch_execs[3], profile.branch_taken[3]) == (6, 4)
    dead = program.labels["dead"]
    assert profile.block_counts[dead] == 0
    assert dead not in profile.branch_execs


# -- the profile check ----------------------------------------------------------


def test_check_rejects_counts_that_do_not_fit_the_cfg():
    program = compile_source(COUNTER, "t")
    profile, _ = profile_program(program, [[]])
    profile.check(program)
    site, execs = next(iter(profile.branch_execs.items()))
    for field, key, value in (("branch_execs", site, execs + 1),
                              ("branch_taken", site, execs + 1),
                              ("branch_taken", site, -1),
                              ("branch_execs", program.entry, 1),
                              ("branch_taken", program.entry, 1)):
        tampered = Profile.from_dict(profile.to_dict())
        getattr(tampered, field)[key] = value
        with pytest.raises(ValueError, match="branch site %d:" % key):
            tampered.check(program)
