"""Cross-predictor property battery over random branch traces.

Every predictor in the package must satisfy the same structural
contract when driven by arbitrary (well-formed) traces: accuracies in
[0, 1], buffer accounting consistent, determinism, and flush/reset
sanity.  Hypothesis generates the traces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    SimpleBTB,
    Tournament,
    simulate,
)
from repro.vm.tracing import BranchClass, BranchTrace

_RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),      # site
        st.sampled_from([BranchClass.CONDITIONAL,
                         BranchClass.CONDITIONAL,
                         BranchClass.CONDITIONAL,
                         BranchClass.UNCONDITIONAL_KNOWN,
                         BranchClass.UNCONDITIONAL_UNKNOWN,
                         BranchClass.RETURN]),
        st.booleans(),                               # taken (cond only)
        st.integers(min_value=0, max_value=99),      # target
        st.integers(min_value=0, max_value=6),       # gap
    ),
    max_size=150,
)


def _trace_from(records):
    # Unconditional branches always transfer.
    return BranchTrace.from_records(
        (site, branch_class,
         taken or branch_class != BranchClass.CONDITIONAL, target, gap)
        for site, branch_class, taken, target, gap in records)


def _fresh_predictors():
    return [
        SimpleBTB(entries=16),
        CounterBTB(entries=16),
        ForwardSemanticPredictor(likely_sites={s: s % 2 == 0
                                               for s in range(41)}),
        AlwaysTaken(),
        AlwaysNotTaken(),
        GShare(history_bits=4, table_bits=6),
        Bimodal(table_bits=6, entries=16),
        Tournament(first=Bimodal(table_bits=6, entries=16),
                   second=GShare(history_bits=4, table_bits=6)),
    ]


@settings(max_examples=30, deadline=None)
@given(_RECORDS)
def test_structural_contract(records):
    trace = _trace_from(records)
    for predictor in _fresh_predictors():
        stats = simulate(predictor, trace)
        assert stats.total == len(trace)
        assert 0 <= stats.correct <= stats.total
        assert 0.0 <= stats.accuracy <= 1.0
        assert 0 <= stats.buffer_misses <= stats.buffer_accesses
        assert stats.buffer_accesses <= stats.total
        # Class counts partition the record count.
        assert sum(stats.by_class_total.values()) == stats.total
        # Returns are always covered by the shared mechanism.
        n_returns = sum(1 for c in trace.classes
                        if c == BranchClass.RETURN)
        if n_returns:
            assert stats.class_accuracy(BranchClass.RETURN) == 1.0


@settings(max_examples=20, deadline=None)
@given(_RECORDS)
def test_determinism(records):
    trace = _trace_from(records)
    for make in (lambda: SimpleBTB(entries=16),
                 lambda: CounterBTB(entries=16),
                 lambda: GShare(history_bits=4, table_bits=6),
                 lambda: Tournament()):
        first = simulate(make(), trace)
        second = simulate(make(), trace)
        assert first.correct == second.correct
        assert first.buffer_misses == second.buffer_misses


@settings(max_examples=20, deadline=None)
@given(_RECORDS)
def test_reset_restores_initial_behaviour(records):
    trace = _trace_from(records)
    for make in (lambda: SimpleBTB(entries=16),
                 lambda: CounterBTB(entries=16),
                 lambda: Bimodal(table_bits=6, entries=16),
                 lambda: GShare(history_bits=4, table_bits=6)):
        fresh = simulate(make(), trace)
        reused = make()
        simulate(reused, trace)
        reused.reset()
        again = simulate(reused, trace)
        assert again.correct == fresh.correct


@settings(max_examples=20, deadline=None)
@given(_RECORDS, st.integers(min_value=1, max_value=50))
def test_flushing_never_helps_buffered_schemes(records, interval):
    trace = _trace_from(records)
    for make in (lambda: SimpleBTB(entries=16),
                 lambda: CounterBTB(entries=16)):
        base = simulate(make(), trace)
        flushed = simulate(make(), trace, flush_interval=interval)
        # Not a strict theorem for adversarial traces, but holds with
        # slack: a flush can only forget, and forgetting rarely helps.
        assert flushed.correct <= base.correct + len(trace) // 4 + 2


@settings(max_examples=20, deadline=None)
@given(_RECORDS)
def test_conditional_only_subsets(records):
    trace = _trace_from(records)
    predictor_full = CounterBTB(entries=16)
    full = simulate(predictor_full, trace)
    conditional = simulate(CounterBTB(entries=16), trace,
                           conditional_only=True)
    n_conditionals = sum(1 for c in trace.classes
                         if c == BranchClass.CONDITIONAL)
    assert conditional.total == n_conditionals
    assert conditional.total <= full.total


def test_oracle_upper_bound():
    """No predictor beats an oracle that replays the trace."""
    from repro.predictors.base import Prediction, Predictor

    records = [(1, BranchClass.CONDITIONAL, i % 3 == 0, 9, 1)
               for i in range(60)]
    trace = _trace_from(records)

    class Oracle(Predictor):
        def __init__(self):
            self.queue = [bool(r[2]) for r in records]

        def predict(self, site, branch_class):
            return Prediction(self.queue[0], target=9)

        def update(self, *args):
            self.queue.pop(0)

    oracle = simulate(Oracle(), trace)
    assert oracle.accuracy == 1.0
    for predictor in _fresh_predictors():
        assert simulate(predictor, trace).accuracy <= 1.0


@pytest.mark.parametrize("flush_interval", [1, 7, 1000])
def test_fs_invariant_under_any_flush(flush_interval):
    records = [(s % 5, BranchClass.CONDITIONAL, s % 2 == 0, 3, 2)
               for s in range(80)]
    trace = _trace_from(records)
    predictor = ForwardSemanticPredictor(
        likely_sites={s: True for s in range(5)})
    base = simulate(predictor, trace)
    flushed = simulate(predictor, trace, flush_interval=flush_interval)
    assert base.correct == flushed.correct
