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
    """One golden measurement, read by both golden checks, and one
    kernel-vs-interpreter cycle run per (seed, scheme, shape) that the
    report prints as both the cycle and the vector cycle count."""
    from repro.conformance import harness
    from repro.kernels import cycle
    from repro.pipeline.cycle_sim import CycleSimulator

    calls = {"measure": 0, "run": 0, "kernel": 0}
    measured = {"wc": {}}
    checked = []

    def measure(cache):
        calls["measure"] += 1
        return measured

    def counting(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "measure", measure)
    monkeypatch.setattr(harness, "check_paper_bands",
                        lambda data: checked.append(data) or [])
    monkeypatch.setattr(harness, "check_golden",
                        lambda data: checked.append(data) or [])
    monkeypatch.setattr(CycleSimulator, "run",
                        counting("run", CycleSimulator.run))
    monkeypatch.setattr(cycle, "cycle_kernel",
                        counting("kernel", cycle.cycle_kernel))
    report = run_conformance(seeds=2)
    assert report.ok
    assert calls == {"measure": 1, "run": 12, "kernel": 12}
    assert checked == [measured, measured]
    assert report.cycle_checks == 12
    text = report.render()
    assert "(6 replays, 12 cycle checks)" in text
    assert "vector cycle-sim vs oracle interpreter: 12 comparisons" in text


def test_run_conformance_shrinks_and_labels_every_check_kind(monkeypatch):
    """Divergences injected into the production side reach the report
    through the one check loop: an off-by-one CBTB fails the oracle
    replay of fuzzed and probe traces, a broken SBTB kernel fails the
    engine cross-check of both.  Each finding is labelled by its check
    and carries a shrunk reproducer."""
    from repro.conformance import harness
    from repro.kernels import tables

    genuine_schemes = harness._schemes

    def schemes(likely_sites):
        return [(name, (lambda: _OffByOneThresholdCBTB(entries=16))
                 if name == "CBTB" else make_production, make_oracle)
                for name, make_production, make_oracle
                in genuine_schemes(likely_sites)]

    genuine_kernel = tables.sbtb_kernel

    def broken_kernel(predictor, enc):
        pred_taken, target_match, hit = genuine_kernel(predictor, enc)
        hit = hit.copy()
        if len(hit) > 3:
            hit[3] = 1 - hit[3]
        return pred_taken, target_match, hit

    monkeypatch.setattr(harness, "_schemes", schemes)
    monkeypatch.setattr(tables, "sbtb_kernel", broken_kernel)
    report = run_conformance(seeds=1, golden=False)

    kinds = {}
    for finding in report.findings:
        # "CBTB@probe:capacity/..." -> "CBTB@probe:"
        kind = finding.scheme.split(":")[0] + (
            ":" if ":" in finding.scheme else "")
        kinds[kind] = kinds.get(kind, 0) + 1
        assert finding.reproducer is not None, finding.scheme
        assert 1 <= len(finding.reproducer) <= 10, finding.describe()
    assert set(kinds) == {"CBTB", "SBTB@engine", "CBTB@probe:",
                          "SBTB@engine:"}
    assert kinds["CBTB"] == kinds["SBTB@engine"] == 1
    assert "RESULT: FAIL" in report.render()


def test_engine_finding_labels_the_kernel_as_production(monkeypatch):
    """An engine finding shows the vector kernel as the production side
    and the scalar reference loop as the oracle."""
    from repro.conformance import harness
    from repro.kernels import simulate_vector, tables
    from repro.predictors.base import simulate_scalar

    genuine_kernel = tables.sbtb_kernel

    def broken_kernel(predictor, enc):
        pred_taken, target_match, hit = genuine_kernel(predictor, enc)
        hit = hit.copy()
        if len(hit) > 3:
            hit[3] = 1 - hit[3]
        return pred_taken, target_match, hit

    monkeypatch.setattr(tables, "sbtb_kernel", broken_kernel)
    report = run_conformance(seeds=1, golden=False)
    finding = next(finding for finding in report.findings
                   if finding.scheme == "SBTB@engine")
    trace = TraceFuzzer(finding.seed).trace()
    kernel = simulate_vector(SimpleBTB(entries=harness._ENTRIES), trace)
    reference = simulate_scalar(SimpleBTB(entries=harness._ENTRIES), trace)
    assert kernel.buffer_misses != reference.buffer_misses
    assert finding.divergence.production["buffer_misses"] \
        == kernel.buffer_misses
    assert finding.divergence.oracle["buffer_misses"] \
        == reference.buffer_misses


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
