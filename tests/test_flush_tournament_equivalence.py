"""Flush epochs, the tournament kernel and per-site scoring against the
scalar reference.

``simulate()`` runs context-switch flushes as epoch keys and the
tournament as two component kernels plus a chooser scan; the
attribution report's per-site counts come from the same scoring
helper.  Each must match the record-at-a-time reference field for
field, in all three scoring modes (plain, ``conditional_only``,
``ras_returns=False``):

* fuzz seeds, the characterization probe corpus and Hypothesis traces
  against ``simulate_scalar`` at flush intervals down to 1 (every
  record its own epoch);
* the tournament's cycle accounting against the oracle interpreter;
* ``site_statistics`` against the record loop it replaced, dict order
  included;
* two planted bugs (flushes one record late, a tournament that ignores
  its chooser), which must be detected and ddmin-shrunk;
* the slow battery: the ten paper benchmarks at small scale, at the
  intervals of the context-switch ablation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.characterize.probes import probe_battery
from repro.conformance.differential import shrink_trace
from repro.conformance.fuzz import TraceFuzzer
from repro.conformance.oracles import OracleCycleInterpreter
from repro.experiments import SuiteRunner, paper_values
from repro.kernels import direction, encode, kernel_for, simulate_vector
from repro.pipeline import CycleSimulator, PipelineConfig
from repro.predictors import (
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    SimpleBTB,
    Tournament,
    simulate_scalar,
    site_statistics,
)
from repro.predictors.base import is_correct
from repro.vm.tracing import BranchClass

from tests.test_cycle_kernel_equivalence import _cycle_key
from tests.test_kernels_equivalence import (
    _RECORDS,
    _assert_engines_agree,
    _btfnt_for,
    _trace_from,
)

#: Flush intervals in instructions; 1 flushes before every record.
INTERVALS = (None, 1, 2, 3, 8, 50)

#: The three scoring modes of simulate().
MODES = ({}, {"conditional_only": True}, {"ras_returns": False})


def _configs(likely, trace):
    """Stateful schemes small enough to evict, three tournaments, and
    the flush-immune FS and BTFNT."""
    return [
        ("sbtb16", lambda: SimpleBTB(entries=16)),
        ("sbtb8x2", lambda: SimpleBTB(entries=8, associativity=2)),
        ("cbtb16x4", lambda: CounterBTB(entries=16, associativity=4)),
        ("gshare", lambda: GShare(history_bits=4, table_bits=6,
                                  entries=16)),
        ("bimodal", lambda: Bimodal(table_bits=6, entries=16)),
        ("tournament", Tournament),
        ("tournament-small", lambda: Tournament(
            first=Bimodal(table_bits=5, entries=8, associativity=2),
            second=GShare(history_bits=3, table_bits=5, entries=8),
            chooser_bits=3)),
        ("tournament-gg", lambda: Tournament(
            first=GShare(history_bits=0, table_bits=4, entries=4),
            second=GShare(history_bits=4, table_bits=6, entries=16))),
        ("fs", lambda: ForwardSemanticPredictor(likely_sites=likely)),
        ("btfnt", lambda: _btfnt_for(trace)),
    ]


def _assert_all_agree(trace, likely, intervals=INTERVALS):
    for label, make_predictor in _configs(likely, trace):
        for interval in intervals:
            for mode in MODES:
                _assert_engines_agree(label, make_predictor, trace,
                                      flush_interval=interval, **mode)


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_traces_flush_and_tournament(seed):
    fuzzer = TraceFuzzer(seed + 2000)
    _assert_all_agree(fuzzer.trace(), fuzzer.likely_sites())


def test_probe_battery_flush_and_tournament():
    for _family, _name, trace in probe_battery(entries=16):
        _assert_all_agree(trace, {}, intervals=(None, 1, 3, 8))


@settings(max_examples=25, deadline=None)
@given(_RECORDS, st.sampled_from([1, 2, 5, 17]))
def test_hypothesis_traces_flush_and_tournament(records, interval):
    trace = _trace_from(records)
    likely = {site: site % 3 == 0 for site in range(41)}
    _assert_all_agree(trace, likely, intervals=(interval,))


def _late_epochs(genuine):
    """Every flush one record late: the gap counted after the check."""
    def late(gaps, interval):
        return np.concatenate([[0], genuine(gaps, interval)[:-1]])
    return late


def _chooser_ignored(genuine):
    """The tournament always taking its first component."""
    def first_only(predictor, enc):
        return kernel_for(predictor.first)(predictor.first, enc)
    return first_only


@pytest.mark.parametrize("module, name, breaker, make_predictor, interval", [
    (encode, "flush_epochs", _late_epochs, lambda: SimpleBTB(16), 8),
    (direction, "tournament_kernel", _chooser_ignored, Tournament, None),
])
def test_injected_bug_is_detected_and_shrinks(monkeypatch, module, name,
                                              breaker, make_predictor,
                                              interval):
    """The battery must catch a planted bug, not bless it."""
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))

    def still_fails(trace):
        return (simulate_scalar(make_predictor(), trace,
                                flush_interval=interval)
                != simulate_vector(make_predictor(), trace,
                                   flush_interval=interval))

    trace = TraceFuzzer(5).trace()
    assert still_fails(trace)
    shrunk = shrink_trace(trace, still_fails, seed=5)
    assert still_fails(shrunk)
    assert len(shrunk) < len(trace)


# -- the tournament's cycle accounting -----------------------------------


def _tournaments():
    return (
        Tournament,
        lambda: Tournament(first=Bimodal(table_bits=4, entries=4),
                           second=GShare(history_bits=2, table_bits=4,
                                         entries=4),
                           chooser_bits=2),
    )


def _assert_cycle_sim_matches_oracle(trace):
    for config in (PipelineConfig(1, 1, 1), PipelineConfig(2, 4, 4)):
        for make in _tournaments():
            for ras_returns in (True, False):
                kernel = CycleSimulator(config, make(),
                                        ras_returns=ras_returns)
                oracle = OracleCycleInterpreter(config, make(),
                                                ras_returns=ras_returns)
                assert _cycle_key(kernel.run(trace)) \
                    == _cycle_key(oracle.run(trace))


@pytest.mark.parametrize("seed", range(10))
def test_tournament_cycle_sim_matches_oracle(seed):
    _assert_cycle_sim_matches_oracle(TraceFuzzer(seed).trace())


@settings(max_examples=20, deadline=None)
@given(_RECORDS)
def test_hypothesis_tournament_cycle_sim(records):
    _assert_cycle_sim_matches_oracle(_trace_from(records))


# -- per-site counts -----------------------------------------------------


def _reference_site_statistics(predictor, trace, ras_returns=True):
    """The record loop ``site_statistics`` ran before the kernels."""
    counts = {}
    for site, branch_class, taken, target, _ in trace.records():
        if ras_returns and branch_class == BranchClass.RETURN:
            continue
        prediction = predictor.predict(site, branch_class)
        entry = counts.get(site)
        if entry is None:
            entry = counts[site] = [0, 0]
        entry[0] += 1
        if is_correct(prediction, taken, target):
            entry[1] += 1
        predictor.update(site, branch_class, taken, target)
    return counts


def _assert_site_statistics_match(make_predictor, trace):
    for ras_returns in (True, False):
        expected = _reference_site_statistics(make_predictor(), trace,
                                              ras_returns)
        got = site_statistics(make_predictor(), trace, ras_returns)
        assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("seed", range(10))
def test_site_statistics_matches_record_loop(seed):
    fuzzer = TraceFuzzer(seed + 3000)
    trace = fuzzer.trace()
    for _label, make_predictor in _configs(fuzzer.likely_sites(), trace):
        _assert_site_statistics_match(make_predictor, trace)


def test_site_statistics_rejects_kernel_less_predictor():
    class KernelLess(SimpleBTB):
        pass

    with pytest.raises(ValueError):
        site_statistics(KernelLess(16), TraceFuzzer(7).trace())


# -- the paper's benchmarks ----------------------------------------------


def _benchmark_configs(run):
    return (
        ("sbtb16", lambda: SimpleBTB(16)),
        ("cbtb16x4", lambda: CounterBTB(16, 4)),
        ("gshare16", lambda: GShare(entries=16)),
        ("bimodal", Bimodal),
        ("tournament", Tournament),
        ("fs", lambda: ForwardSemanticPredictor(program=run.fs_program)),
    )


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(scale=0.02, cache_dir=False)


#: (interval, mode) pairs: every interval plain, each filter once.
_BATTERY_RUNS = ((8, {}), (5_000, {}), (20_000, {}),
                 (5_000, {"conditional_only": True}),
                 (20_000, {"ras_returns": False}))


@pytest.mark.slow
@pytest.mark.parametrize("name", paper_values.BENCHMARKS)
def test_flush_tournament_battery(runner, name):
    run = runner.run(name)
    for label, make_predictor in _benchmark_configs(run):
        for interval, mode in _BATTERY_RUNS:
            _assert_engines_agree("%s/%s" % (name, label),
                                  make_predictor, run.trace,
                                  flush_interval=interval, **mode)
        expected = _reference_site_statistics(make_predictor(), run.trace)
        got = site_statistics(make_predictor(), run.trace)
        assert list(got.items()) == list(expected.items())
