"""Differential equivalence: the vector kernels vs the scalar simulator.

The contract of :mod:`repro.kernels` is bit identity — for every
supported predictor and every trace, ``simulate_vector`` returns a
``PredictionStats`` equal field for field to ``simulate_scalar``'s.  This battery drives that claim three ways:

* seeded :class:`~repro.conformance.fuzz.TraceFuzzer` traces (loopy,
  biased, phase-changing — what real programs look like), over every
  predictor configuration including buffers small enough to evict
  constantly;
* Hypothesis-generated arbitrary traces, which find the adversarial
  corners the fuzzer's program model never emits;
* a deliberately broken kernel, proving the harness both detects a
  divergence and ddmin-shrinks it to a minimal reproducer.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.differential import (
    engine_divergence,
    shrink_trace,
)
from repro.conformance.fuzz import TraceFuzzer
from repro.kernels import simulate_vector
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTakenForwardNotTaken,
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    SimpleBTB,
    simulate_scalar,
)
from repro.vm.tracing import BranchClass, BranchTrace


class _Branch:
    is_conditional = True

    def __init__(self, target):
        self.target = target


class _StubProgram:
    """Just enough program for BTFNT: conditional branch targets."""

    def __init__(self, pairs):
        self._pairs = pairs

    def branch_addresses(self):
        return [(address, _Branch(target))
                for address, target in self._pairs]


def _btfnt_for(trace):
    conditional_sites = sorted({
        site for site, branch_class in zip(trace.sites, trace.classes)
        if branch_class == BranchClass.CONDITIONAL})
    pairs = [(site, site - 9 if site % 2 else site + 9)
             for site in conditional_sites]
    return BackwardTakenForwardNotTaken(_StubProgram(pairs))


def _configs(likely, trace):
    """Every kernel-backed predictor, including eviction-pressure ones.

    Four-entry buffers against two dozen fuzzed sites keep the
    associative tables evicting on nearly every set, so the per-set
    replay fallback is exercised as hard as the closed forms.
    """
    return [
        ("sbtb16", lambda: SimpleBTB(entries=16)),
        ("sbtb4", lambda: SimpleBTB(entries=4)),
        ("sbtb8x2", lambda: SimpleBTB(entries=8, associativity=2)),
        ("cbtb16", lambda: CounterBTB(entries=16)),
        ("cbtb4", lambda: CounterBTB(entries=4)),
        ("cbtb8x2", lambda: CounterBTB(entries=8, associativity=2,
                                       counter_bits=3, threshold=1)),
        ("gshare", lambda: GShare(history_bits=4, table_bits=6,
                                  entries=16)),
        ("gshare-h0", lambda: GShare(history_bits=0, table_bits=5,
                                     entries=8, associativity=2)),
        ("bimodal", lambda: Bimodal(table_bits=6, entries=16)),
        ("fs", lambda: ForwardSemanticPredictor(likely_sites=likely)),
        ("at", AlwaysTaken),
        ("ant", AlwaysNotTaken),
        ("btfnt", lambda: _btfnt_for(trace)),
    ]


def _assert_engines_agree(label, make_predictor, trace, **kwargs):
    scalar = simulate_scalar(make_predictor(), trace, **kwargs)
    vector = simulate_vector(make_predictor(), trace, **kwargs)
    if scalar == vector:
        return
    # Shrink before failing: the report carries a minimal reproducer.
    shrunk = shrink_trace(
        trace,
        lambda t: simulate_scalar(make_predictor(), t, **kwargs)
        != simulate_vector(make_predictor(), t, **kwargs))
    pytest.fail(
        "%s: engines diverged (%s)\n  scalar: %r\n  vector: %r\n"
        "  minimal reproducer (%d records): %r"
        % (label, kwargs or "default", scalar.as_dict(),
           vector.as_dict(), len(shrunk), list(shrunk.records())))


@pytest.mark.parametrize("seed", range(20))
def test_fuzzed_traces_all_configs(seed):
    fuzzer = TraceFuzzer(seed)
    trace = fuzzer.trace()
    likely = fuzzer.likely_sites()
    for label, make_predictor in _configs(likely, trace):
        _assert_engines_agree(label, make_predictor, trace)


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_traces_filtering_modes(seed):
    """The filtering rules must agree too, not just the default path."""
    fuzzer = TraceFuzzer(seed + 1000)
    trace = fuzzer.trace()
    likely = fuzzer.likely_sites()
    for label, make_predictor in _configs(likely, trace):
        _assert_engines_agree(label, make_predictor, trace,
                              ras_returns=False)
        _assert_engines_agree(label, make_predictor, trace,
                              conditional_only=True)


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
    max_size=120,
)


def _trace_from(records):
    # Unconditional branches always transfer.
    return BranchTrace.from_records(
        (site, branch_class,
         taken or branch_class != BranchClass.CONDITIONAL, target, gap)
        for site, branch_class, taken, target, gap in records)


@settings(max_examples=30, deadline=None)
@given(_RECORDS)
def test_hypothesis_traces_all_configs(records):
    trace = _trace_from(records)
    likely = {site: site % 2 == 0 for site in range(41)}
    for label, make_predictor in _configs(likely, trace):
        _assert_engines_agree(label, make_predictor, trace)


@settings(max_examples=15, deadline=None)
@given(_RECORDS)
def test_hypothesis_traces_pressure_and_modes(records):
    trace = _trace_from(records)
    pressure = [
        ("sbtb2", lambda: SimpleBTB(entries=2)),
        ("cbtb2", lambda: CounterBTB(entries=2)),
        ("gshare-tiny", lambda: GShare(history_bits=2, table_bits=2,
                                       entries=2)),
        ("bimodal-tiny", lambda: Bimodal(table_bits=2, entries=2)),
    ]
    for label, make_predictor in pressure:
        _assert_engines_agree(label, make_predictor, trace)
        _assert_engines_agree(label, make_predictor, trace,
                              ras_returns=False)


def test_broken_kernel_is_detected_and_shrinks(monkeypatch):
    """The harness must catch a drifting kernel, not bless it.

    Wraps the SBTB kernel to flip one record's hit flag (always
    visible in the miss accounting), then checks that
    engine_divergence reports it and that ddmin shrinking yields a
    minimal still-failing reproducer.
    """
    from repro.kernels import tables

    genuine = tables.sbtb_kernel

    def broken(predictor, enc):
        pred_taken, target_match, hit = genuine(predictor, enc)
        hit = hit.copy()
        if len(hit) > 3:
            hit[3] = 1 - hit[3]
        return pred_taken, target_match, hit

    monkeypatch.setattr(tables, "sbtb_kernel", broken)
    trace = TraceFuzzer(42).trace()
    make_predictor = lambda: SimpleBTB(entries=16)  # noqa: E731
    divergence = engine_divergence(make_predictor, trace)
    assert divergence is not None
    assert divergence.kind == "engine"

    def still_fails(candidate):
        return engine_divergence(make_predictor, candidate) is not None

    shrunk = shrink_trace(trace, still_fails, seed=42)
    assert still_fails(shrunk)
    # The fault needs at least four records (index 3) but far fewer
    # than the full fuzzed trace.
    assert 4 <= len(shrunk) < len(trace)


def test_engine_divergence_none_for_unsupported():
    class KernelLess(SimpleBTB):
        pass

    trace = TraceFuzzer(3).trace()
    assert engine_divergence(lambda: KernelLess(16), trace) is None
