"""Tests for the trace-driven predictor simulator and its accounting."""

import pytest

from repro.lang import compile_source
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTakenForwardNotTaken,
    CounterBTB,
    ForwardSemanticPredictor,
    SimpleBTB,
    simulate,
)
from repro.profiling import profile_program
from repro.traceopt import build_fs_program
from repro.vm import run_program
from repro.vm.tracing import BranchClass, BranchTrace


def synthetic_trace():
    return BranchTrace.from_records(
        # Conditional at site 10: T N T T
        [(10, BranchClass.CONDITIONAL, taken, 50, 2)
         for taken in (True, False, True, True)]
        # Direct jump at 20, twice.
        + [(20, BranchClass.UNCONDITIONAL_KNOWN, True, 60, 1)] * 2
        # Return at 30.
        + [(30, BranchClass.RETURN, True, 21, 0)]
        # Indirect jump at 40 with changing targets.
        + [(40, BranchClass.UNCONDITIONAL_UNKNOWN, True, 70, 0),
           (40, BranchClass.UNCONDITIONAL_UNKNOWN, True, 80, 0)],
        total_instructions=30)


def test_returns_always_correct_and_no_buffer_access():
    stats = simulate(SimpleBTB(), synthetic_trace())
    assert stats.total == 9
    assert stats.class_accuracy(BranchClass.RETURN) == 1.0
    # 8 buffer accesses: everything except the return.
    assert stats.buffer_accesses == 8


def test_sbtb_on_synthetic_trace():
    stats = simulate(SimpleBTB(), synthetic_trace())
    # Conditional: miss(N->actually T, wrong), hit taken (actually N,
    # wrong, deletes), miss (T, wrong), miss->insert... let's check
    # via accuracy bounds rather than exact trace arithmetic:
    assert 0.0 < stats.accuracy < 1.0
    assert stats.miss_ratio > 0.0


def test_conditional_only_restriction():
    stats = simulate(AlwaysTaken(), synthetic_trace(), conditional_only=True)
    assert stats.total == 4
    assert stats.correct == 3  # three of four executions taken


def test_always_not_taken():
    stats = simulate(AlwaysNotTaken(), synthetic_trace(),
                     conditional_only=True)
    assert stats.correct == 1


def test_btfnt_uses_program_text():
    program = compile_source("""
        int main() {
            int i; int t = 0;
            for (i = 0; i < 50; i = i + 1) t = t + i;
            if (t == 1) t = 0;
            puti(t);
            return 0;
        }
    """, "t")
    trace = run_program(program, trace=True).trace
    stats = simulate(BackwardTakenForwardNotTaken(program), trace,
                     conditional_only=True)
    # The loop back edge dominates and is backward: BTFNT does well.
    assert stats.accuracy > 0.8


def test_btfnt_beats_always_taken_on_loop_code():
    # Loops give backward taken branches (both schemes right); the
    # always-true guard compiles to a forward branch that never fires
    # (BTFNT right, always-taken wrong).
    program = compile_source("""
        int main() {
            int i; int j; int t = 0;
            for (i = 0; i < 20; i = i + 1)
                for (j = 0; j < 20; j = j + 1)
                    if (i >= 0) t = t + 1;
            puti(t);
            return 0;
        }
    """, "t")
    trace = run_program(program, trace=True).trace
    btfnt = simulate(BackwardTakenForwardNotTaken(program), trace,
                     conditional_only=True)
    taken = simulate(AlwaysTaken(), trace, conditional_only=True)
    assert btfnt.accuracy > taken.accuracy


def test_fs_predictor_requires_exactly_one_source():
    with pytest.raises(ValueError):
        ForwardSemanticPredictor()
    with pytest.raises(ValueError):
        ForwardSemanticPredictor(program="x", likely_sites={})


def test_fs_predictor_from_likely_sites():
    predictor = ForwardSemanticPredictor(likely_sites={10: True})
    trace = synthetic_trace()
    stats = simulate(predictor, trace)
    # Conditional: predicted taken (any target) 4x -> correct on the
    # three taken records; jumps correct; return correct; JIND wrong.
    assert stats.class_accuracy(BranchClass.CONDITIONAL) == 0.75
    assert stats.class_accuracy(BranchClass.UNCONDITIONAL_KNOWN) == 1.0
    assert stats.class_accuracy(BranchClass.UNCONDITIONAL_UNKNOWN) == 0.0


def test_fs_predictor_flush_is_noop():
    """The paper's robustness claim: context switches cannot hurt the
    Forward Semantic because its state is in the program text."""
    predictor = ForwardSemanticPredictor(likely_sites={10: True})
    trace = synthetic_trace()
    base = simulate(predictor, trace)
    predictor.flush()
    flushed = simulate(predictor, trace, flush_interval=2)
    assert flushed.accuracy == base.accuracy


def test_flush_interval_degrades_btbs():
    program = compile_source("""
        int main() {
            int i; int t = 0;
            for (i = 0; i < 2000; i = i + 1) t = t + (i % 3);
            puti(t);
            return 0;
        }
    """, "t")
    trace = run_program(program, trace=True).trace
    base = simulate(SimpleBTB(), trace)
    flushed = simulate(SimpleBTB(), trace, flush_interval=50)
    assert flushed.accuracy <= base.accuracy
    cbase = simulate(CounterBTB(), trace)
    cflushed = simulate(CounterBTB(), trace, flush_interval=50)
    assert cflushed.accuracy <= cbase.accuracy


@pytest.mark.parametrize("interval", [0, -5])
def test_non_positive_flush_interval_is_rejected(interval):
    """A flush interval below one instruction used to run silently as
    a flush before every record."""
    from repro.predictors import simulate_scalar

    trace = synthetic_trace()
    for predictor in (SimpleBTB(16),
                      ForwardSemanticPredictor(likely_sites={10: True})):
        with pytest.raises(ValueError, match="flush_interval"):
            simulate(predictor, trace, flush_interval=interval)
        with pytest.raises(ValueError, match="flush_interval"):
            simulate_scalar(predictor, trace, flush_interval=interval)


def test_fs_end_to_end_accuracy_reasonable():
    source = """
    int main() {
        int i; int t = 0;
        for (i = 0; i < 500; i = i + 1) {
            if (i % 10 == 0) t = t + 5;
            t = t + 1;
        }
        puti(t);
        return 0;
    }
    """
    program = compile_source(source, "t")
    profile, _ = profile_program(program, [[]])
    layout = build_fs_program(program, profile)
    trace = run_program(layout.program, trace=True).trace
    stats = simulate(ForwardSemanticPredictor(program=layout.program), trace)
    assert stats.accuracy > 0.85


def test_stats_merge():
    a = simulate(SimpleBTB(), synthetic_trace())
    b = simulate(SimpleBTB(), synthetic_trace())
    total = a.total + b.total
    a.merge(b)
    assert a.total == total
    assert 0.0 <= a.accuracy <= 1.0


def test_class_accuracy_none_for_absent_class():
    stats = simulate(AlwaysNotTaken(), BranchTrace())
    assert stats.class_accuracy(BranchClass.CONDITIONAL) is None
    assert stats.accuracy == 0.0
    assert stats.miss_ratio == 0.0


def test_site_report_finds_the_hard_branch():
    from repro.predictors import site_report
    program = compile_source("""
        int main() {
            int i; int t = 0;
            for (i = 0; i < 400; i = i + 1) {
                if (i % 2 == 0) t = t + 1;     // alternates: hard
                if (i >= 0) t = t + 1;         // constant: easy
            }
            puti(t);
            return 0;
        }
    """, "t")
    trace = run_program(program, trace=True).trace
    rows = site_report(SimpleBTB(), trace, worst=3)
    assert rows
    worst_site, execs, accuracy = rows[0]
    assert execs >= 300
    assert accuracy < 0.7    # the alternating branch defeats the SBTB
    # Every row is well-formed.
    for site, n, a in rows:
        assert n > 0 and 0.0 <= a <= 1.0


def test_site_report_skips_returns():
    from repro.predictors import site_report
    from repro.vm.tracing import BranchClass, BranchTrace
    trace = BranchTrace.from_records([
        (1, BranchClass.RETURN, True, 9, 0),
        (2, BranchClass.CONDITIONAL, True, 9, 0),
    ])
    rows = site_report(SimpleBTB(), trace)
    assert [row[0] for row in rows] == [2]
