"""Tests for the probe-based profiler."""

import json

import pytest

from repro.benchmarksuite import (
    BENCHMARK_NAMES,
    compile_benchmark,
    get_benchmark,
)
from repro.cfg import ControlFlowGraph
from repro.conformance.fuzz import TraceFuzzer
from repro.lang import compile_source
from repro.profiling import Profile, profile_program
from repro.vm import run_program
from repro.vm.tracing import BranchClass

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
    assert profile.runs == 1


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
    assert profile.runs == 3
    assert outputs == [b"3", b"5", b"0"]
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
    assert rebuilt.runs == profile.runs
    assert rebuilt.total_instructions == profile.total_instructions


def test_serialised_profile_is_jsonable():
    import json
    program = compile_source(COUNTER, "t")
    profile, _ = profile_program(program, [[]])
    text = json.dumps(profile.to_dict())
    rebuilt = Profile.from_dict(json.loads(text))
    assert rebuilt.branch_execs == profile.branch_execs


def test_profile_trace_branch_only():
    program = compile_source(COUNTER, "t")
    result = run_program(program, trace=True)
    profile = Profile()
    profile.add_trace(result.trace)
    assert profile.block_counts == {}
    assert profile.branch_execs
    assert profile.total_instructions == result.instructions


def test_block_counts_only_at_leaders():
    program = compile_source(COUNTER, "t")
    cfg = ControlFlowGraph.from_program(program)
    profile, _ = profile_program(program, [[]], cfg=cfg)
    assert set(profile.block_counts) <= set(cfg.leaders)


# -- the columnar fold against a per-record reference ----------------------


def _naive_fold(traces):
    """``Profile.add_trace`` written one record at a time."""
    execs, taken_counts = {}, {}
    for trace in traces:
        for site, branch_class, taken, _, _ in trace.records():
            if branch_class == BranchClass.CONDITIONAL:
                execs[site] = execs.get(site, 0) + 1
                if taken:
                    taken_counts[site] = taken_counts.get(site, 0) + 1
    return execs, taken_counts


def _assert_fold_matches(traces):
    profile = Profile()
    for trace in traces:
        profile.add_trace(trace)
    assert (profile.branch_execs, profile.branch_taken) \
        == _naive_fold(traces)
    assert profile.total_instructions == sum(
        trace.total_instructions for trace in traces)
    # Python ints throughout: NumPy scalars would not serialise.
    json.dumps(profile.to_dict())


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_add_trace_matches_per_record_fold(name):
    program = compile_benchmark(name)
    suite = get_benchmark(name).input_suite(scale=0.02, runs=2)
    _assert_fold_matches([
        run_program(program, inputs=streams, trace=True).trace
        for streams in suite])


def test_add_trace_matches_per_record_fold_on_fuzz_traces():
    traces = [TraceFuzzer(seed).trace() for seed in range(20)]
    classes = {int(c) for trace in traces for c in trace.classes}
    assert {BranchClass.RETURN,
            BranchClass.UNCONDITIONAL_UNKNOWN} <= classes
    _assert_fold_matches(traces)
