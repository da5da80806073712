"""Differential replay, oracle agreement, and shrinking.

The acceptance battery of ISSUE 3: every production scheme replays
divergence-free against its naive oracle over fuzzed traces; the cycle
simulator agrees with the straight-line interpreter; and deliberately
injected predictor bugs are caught and delta-debugged down to at most
ten records.
"""

import pytest

from repro.conformance import (
    TraceFuzzer,
    cycle_divergence,
    oracle_for,
    replay_divergence,
    run_conformance,
    shrink_trace,
)
from repro.pipeline.config import PipelineConfig
from repro.predictors import CounterBTB, ForwardSemanticPredictor, SimpleBTB
from repro.vm.tracing import BranchClass, BranchTrace

SEEDS = range(40)


# --- production == oracle ----------------------------------------------------


@pytest.mark.parametrize("scheme,make_production", [
    ("SBTB", lambda fuzzer: SimpleBTB(entries=16)),
    ("CBTB", lambda fuzzer: CounterBTB(entries=16)),
    ("FS", lambda fuzzer: ForwardSemanticPredictor(
        likely_sites=fuzzer.likely_sites())),
])
def test_production_matches_oracle_over_fuzzed_traces(scheme,
                                                      make_production):
    for seed in SEEDS:
        fuzzer = TraceFuzzer(seed)
        trace = fuzzer.trace()
        oracle = oracle_for(scheme, entries=16,
                            likely_sites=fuzzer.likely_sites())
        divergence = replay_divergence(make_production(fuzzer), oracle,
                                       trace)
        assert divergence is None, divergence


def test_set_associative_variants_match_oracle():
    for associativity in (1, 2, 4):
        for seed in range(10):
            trace = TraceFuzzer(seed).trace()
            divergence = replay_divergence(
                SimpleBTB(entries=16, associativity=associativity),
                oracle_for("SBTB", entries=16,
                           associativity=associativity),
                trace)
            assert divergence is None, (associativity, divergence)
            divergence = replay_divergence(
                CounterBTB(entries=16, associativity=associativity),
                oracle_for("CBTB", entries=16,
                           associativity=associativity),
                trace)
            assert divergence is None, (associativity, divergence)


def test_cycle_simulator_matches_interpreter():
    for seed in range(15):
        trace = TraceFuzzer(seed).trace()
        for config in (PipelineConfig(1, 1, 1), PipelineConfig(2, 4, 4),
                       PipelineConfig(0, 1, 2)):
            divergence = cycle_divergence(
                config,
                lambda: CounterBTB(entries=16),
                lambda: oracle_for("CBTB", entries=16),
                trace)
            assert divergence is None, (config, divergence)


def test_fuzzer_is_deterministic_per_seed():
    first = TraceFuzzer(11).trace()
    second = TraceFuzzer(11).trace()
    other = TraceFuzzer(12).trace()
    assert list(first.records()) == list(second.records())
    assert TraceFuzzer(11).likely_sites() == TraceFuzzer(11).likely_sites()
    assert list(first.records()) != list(other.records())


# --- injected bugs are caught and shrunk --------------------------------------


class _EscapingCounterCBTB(CounterBTB):
    """Bug: the counter escapes its n-bit range instead of saturating."""

    def update(self, site, branch_class, taken, target):
        entry = self._cache.peek(site)
        if entry is not None and taken \
                and entry.counter >= self.counter_max:
            entry.counter += 1
        super().update(site, branch_class, taken, target)


class _OffByOneThresholdCBTB(CounterBTB):
    """Bug: predicts taken only strictly above the threshold."""

    def predict(self, site, branch_class):
        from repro.predictors.base import Prediction

        entry = self._cache.peek(site)
        if entry is None:
            return Prediction(False, hit=False)
        self._cache.lookup(site)
        if entry.counter > self.threshold:
            return Prediction(True, target=entry.target, hit=True)
        return Prediction(False, hit=True)


class _ForgetfulSBTB(SimpleBTB):
    """Bug: not-taken branches keep their (now wrong) buffer entry."""

    def update(self, site, branch_class, taken, target):
        if taken:
            super().update(site, branch_class, taken, target)


class _MRUEvictingSBTB(SimpleBTB):
    """Bug: evicts the most- instead of least-recently-used entry."""

    def update(self, site, branch_class, taken, target):
        if taken and not self._cache.contains(site) \
                and len(self._cache) >= self._cache.entries:
            victim = self._cache.lru_order()[-1]
            self._cache.delete(victim)
        super().update(site, branch_class, taken, target)


_INJECTED = [
    ("CBTB", _EscapingCounterCBTB),
    ("CBTB", _OffByOneThresholdCBTB),
    ("SBTB", _ForgetfulSBTB),
    ("SBTB", _MRUEvictingSBTB),
]


@pytest.mark.parametrize("scheme,buggy", _INJECTED,
                         ids=[cls.__name__ for _, cls in _INJECTED])
def test_injected_bug_is_caught_and_shrunk(scheme, buggy):
    """The ISSUE-3 acceptance criterion: catch, then shrink to <= 10."""
    def still_fails(trace):
        return replay_divergence(buggy(entries=8),
                                 oracle_for(scheme, entries=8),
                                 trace) is not None

    caught = None
    for seed in range(50):
        trace = TraceFuzzer(seed).trace()
        if still_fails(trace):
            caught = (seed, trace)
            break
    assert caught is not None, "differential replay missed %s" % buggy
    seed, trace = caught
    reproducer = shrink_trace(trace, still_fails, seed=seed)
    assert still_fails(reproducer)
    assert len(reproducer) <= 10, \
        "reproducer still has %d records" % len(reproducer)


def test_shrink_is_deterministic_per_seed():
    def still_fails(trace):
        return replay_divergence(_ForgetfulSBTB(entries=8),
                                 oracle_for("SBTB", entries=8),
                                 trace) is not None

    trace = next(TraceFuzzer(seed).trace() for seed in range(50)
                 if still_fails(TraceFuzzer(seed).trace()))
    first = shrink_trace(trace, still_fails, seed=3)
    second = shrink_trace(trace, still_fails, seed=3)
    assert list(first.records()) == list(second.records())


def test_shrink_rejects_passing_trace():
    trace = TraceFuzzer(0).trace()
    with pytest.raises(ValueError):
        shrink_trace(trace, lambda t: False)


def test_buggy_predictor_diverges_at_cycle_level(monkeypatch):
    """A mispredicting production kernel shows up in the aggregates
    (mispredictions / squashed cycles) even when per-record prediction
    comparison is bypassed.  The cycle simulator runs only the batch
    kernel, so the bug is injected there: taken predictions are lost."""
    from repro.kernels import tables

    genuine = tables.cbtb_kernel

    def never_taken(predictor, enc):
        pred_taken, target_match, hit = genuine(predictor, enc)
        return pred_taken & False, target_match, hit

    monkeypatch.setattr(tables, "cbtb_kernel", never_taken)
    config = PipelineConfig(2, 1, 1)
    divergence = None
    for seed in range(20):
        trace = TraceFuzzer(seed).trace()
        divergence = cycle_divergence(
            config,
            lambda: CounterBTB(entries=8),
            lambda: oracle_for("CBTB", entries=8),
            trace)
        if divergence is not None:
            break
    assert divergence is not None
    assert divergence.kind in ("mispredictions", "squashed_cycles",
                               "cycles", "squashed_by_class")


# --- harness end-to-end -------------------------------------------------------


def test_run_conformance_differential_only():
    report = run_conformance(seeds=10, golden=False)
    assert report.ok
    assert report.replays == 30
    assert report.cycle_checks == 60
    assert "zero divergences" in report.render()
    assert "RESULT: PASS" in report.render()


def test_run_conformance_checks_golden_and_each_cycle_shape_once(
        monkeypatch):
    """One golden pass, and one kernel-vs-interpreter cycle run per
    (seed, scheme, shape) that counts as both a cycle check and a
    vector cycle check."""
    from repro.conformance import harness
    from repro.kernels import cycle
    from repro.pipeline.cycle_sim import CycleSimulator

    calls = {"golden": 0, "run": 0, "kernel": 0}

    def check_golden(**kwargs):
        calls["golden"] += 1
        return []

    def counting(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "check_golden", check_golden)
    monkeypatch.setattr(harness, "check_paper_bands", lambda runner: [])
    monkeypatch.setattr(CycleSimulator, "run",
                        counting("run", CycleSimulator.run))
    monkeypatch.setattr(cycle, "cycle_kernel",
                        counting("kernel", cycle.cycle_kernel))
    report = run_conformance(seeds=2, probes=False)
    assert report.ok
    assert calls == {"golden": 1, "run": 12, "kernel": 12}
    assert report.cycle_checks == report.vector_cycle_checks == 12


def test_run_conformance_scheme_subset():
    report = run_conformance(seeds=5, golden=False, schemes=("CBTB",))
    assert report.ok
    assert report.replays == 5


def test_divergence_describe_mentions_record():
    trace = TraceFuzzer(0).trace()

    def still_fails(t):
        return replay_divergence(_OffByOneThresholdCBTB(entries=8),
                                 oracle_for("CBTB", entries=8),
                                 t) is not None

    seed = next(s for s in range(50)
                if still_fails(TraceFuzzer(s).trace()))
    trace = TraceFuzzer(seed).trace()
    divergence = replay_divergence(_OffByOneThresholdCBTB(entries=8),
                                   oracle_for("CBTB", entries=8), trace)
    text = divergence.describe()
    assert "diverged at record" in text
    assert divergence.kind in ("direction", "hit", "correctness",
                               "target", "state")


def test_returns_skip_the_predictors_under_ras():
    trace_records = [(1, BranchClass.RETURN, True, 5, 0),
                     (2, BranchClass.CONDITIONAL, True, 9, 1)]
    trace = BranchTrace.from_records(trace_records)
    divergence = replay_divergence(SimpleBTB(entries=4),
                                   oracle_for("SBTB", entries=4), trace)
    assert divergence is None
    production = SimpleBTB(entries=4)
    replay_divergence(production, oracle_for("SBTB", entries=4), trace)
    # The return never reached the buffer; the conditional did.
    assert production._cache.contains(1) is False
    assert production._cache.contains(2) is True
