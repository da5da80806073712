"""Differential equivalence: the cycle kernel vs the oracle interpreter.

Mirror of ``tests/test_kernels_equivalence.py`` for the cycle layer:
:class:`~repro.pipeline.cycle_sim.CycleSimulator`, which always runs
:mod:`repro.kernels.cycle`, must be bit-identical — every field,
including the key-presence semantics of ``squashed_by_class`` — to
:class:`~repro.conformance.oracles.OracleCycleInterpreter` driving the
same production predictor record by record, for every supported
predictor and every trace.  The battery drives that claim with the
conformance fuzz seeds, the characterization probe corpus (adversarial
capacity/alias regimes the fuzzer never reaches), Hypothesis-generated
traces, and two deliberately injected kernel bugs that the harness
must detect and ddmin-shrink rather than bless.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.conformance.differential import shrink_trace
from repro.conformance.fuzz import TraceFuzzer
from repro.conformance.oracles import OracleCycleInterpreter
from repro.pipeline.config import PipelineConfig
from repro.pipeline.cycle_sim import CycleSimulator

from tests.test_kernels_equivalence import _RECORDS, _configs, _trace_from

#: The two pipeline shapes the conformance harness uses: penalties
#: (k+l, k+l+m) of (2, 3) and (6, 10) catch both near-degenerate and
#: strongly class-split accounting.
_CYCLE_CONFIGS = (PipelineConfig(1, 1, 1), PipelineConfig(2, 4, 4))


def _cycle_key(stats):
    return (stats.cycles, stats.instructions, stats.branches,
            stats.squashed_cycles, stats.mispredictions,
            stats.fill_cycles, dict(stats.squashed_by_class))


def _kernel_disagrees(make_predictor, trace, config):
    oracle = OracleCycleInterpreter(config, make_predictor()).run(trace)
    kernel = CycleSimulator(config, make_predictor()).run(trace)
    if _cycle_key(oracle) == _cycle_key(kernel):
        return None
    return oracle, kernel


def _assert_kernel_matches_oracle(label, make_predictor, trace):
    for config in _CYCLE_CONFIGS:
        disagreement = _kernel_disagrees(make_predictor, trace, config)
        if disagreement is None:
            continue
        oracle, kernel = disagreement
        shrunk = shrink_trace(
            trace,
            lambda t: _kernel_disagrees(make_predictor, t,
                                        config) is not None)
        pytest.fail(
            "%s @ %r: cycle kernel diverged from the oracle\n"
            "  oracle: %r %r\n  kernel: %r %r\n"
            "  minimal reproducer (%d records): %r"
            % (label, config, _cycle_key(oracle),
               oracle.squashed_by_class, _cycle_key(kernel),
               kernel.squashed_by_class, len(shrunk),
               list(shrunk.records())))


def _fuzz_case(seed):
    fuzzer = TraceFuzzer(seed)
    trace = fuzzer.trace()
    likely = fuzzer.likely_sites()
    for label, make_predictor in _configs(likely, trace):
        _assert_kernel_matches_oracle(label, make_predictor, trace)


@pytest.mark.parametrize("seed", range(4))
def test_cycle_fuzzed_traces_smoke(seed):
    """Fast-path coverage: a few seeds on every configuration."""
    _fuzz_case(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_cycle_fuzzed_traces_battery(seed):
    """Every conformance fuzz seed, every predictor configuration."""
    _fuzz_case(seed)


@pytest.mark.slow
def test_cycle_probe_corpus_battery():
    """The characterization probe corpus, both pipeline shapes.

    Capacity chains and alias weaves oversubscribe the buffers, so
    this is where the eviction replay feeds the cycle accounting.
    """
    from repro.characterize.probes import probe_battery

    checked = 0
    for family, name, trace in probe_battery(entries=16):
        likely = {site: True for site in set(trace.sites)}
        for label, make_predictor in _configs(likely, trace):
            _assert_kernel_matches_oracle(
                "%s/%s:%s" % (family, name, label), make_predictor,
                trace)
            checked += 1
    assert checked > 0


@settings(max_examples=25, deadline=None)
@given(_RECORDS)
def test_cycle_hypothesis_traces(records):
    trace = _trace_from(records)
    likely = {site: site % 2 == 0 for site in range(41)}
    for label, make_predictor in _configs(likely, trace):
        _assert_kernel_matches_oracle(label, make_predictor, trace)


def test_injected_squash_class_boundary_bug_detected(monkeypatch):
    """A kernel that charges conditionals the unconditional penalty.

    The totals can stay plausible (cycles still move), but the
    class-attribution contract breaks; the differential must see it
    and ddmin must hand back a minimal reproducer.
    """
    from repro.kernels import cycle as cycle_module
    from repro.predictors import SimpleBTB
    from repro.vm.tracing import BranchClass

    genuine = cycle_module.cycle_kernel

    def broken(config, predictor, trace):
        fields = genuine(config, predictor, trace)
        by_class = dict(fields["squashed_by_class"])
        if BranchClass.CONDITIONAL in by_class:
            # Misattribute: conditional squashes priced as if they
            # resolved at decode (k + l) instead of execute.
            penalty = config.k + config.l + config.m
            count = by_class[BranchClass.CONDITIONAL] // penalty
            by_class[BranchClass.CONDITIONAL] = count * (config.k
                                                         + config.l)
            squashed = sum(by_class.values())
            fields = dict(fields)
            fields["squashed_by_class"] = by_class
            fields["cycles"] += squashed - fields["squashed_cycles"]
            fields["squashed_cycles"] = squashed
        return fields

    monkeypatch.setattr(cycle_module, "cycle_kernel", broken)
    trace = TraceFuzzer(7).trace()
    make_predictor = lambda: SimpleBTB(entries=16)  # noqa: E731
    config = PipelineConfig(2, 4, 4)
    assert _kernel_disagrees(make_predictor, trace, config) is not None

    def still_fails(candidate):
        return _kernel_disagrees(make_predictor, candidate, config) is not None

    shrunk = shrink_trace(trace, still_fails, seed=7)
    assert still_fails(shrunk)
    # One mispredicted conditional suffices to expose the bug.
    assert 1 <= len(shrunk) < len(trace)


def test_injected_scan_segment_off_by_one_detected(monkeypatch):
    """An exclusive scan that returns post-record states instead.

    Classic segmentation off-by-one: every record sees its own
    transition applied one step early.  The direction kernels feed the
    cycle kernel through this scan, so the cycle differential has to
    catch the drift end to end.
    """
    from repro.kernels import scan
    from repro.predictors import Bimodal

    genuine = scan.exclusive_states

    def off_by_one(groups, deltas, lows, highs, init_state):
        before = genuine(groups, deltas, lows, highs, init_state)
        after = np.minimum(
            np.maximum(before + np.asarray(deltas, dtype=np.int32),
                       np.asarray(lows, dtype=np.int32)),
            np.asarray(highs, dtype=np.int32))
        return after

    monkeypatch.setattr(scan, "exclusive_states", off_by_one)
    make_predictor = lambda: Bimodal(table_bits=6, entries=16)  # noqa: E731
    config = PipelineConfig(2, 4, 4)
    trace = next(
        TraceFuzzer(seed).trace() for seed in range(50)
        if _kernel_disagrees(
            lambda: Bimodal(table_bits=6, entries=16),
            TraceFuzzer(seed).trace(), config) is not None)
    assert _kernel_disagrees(make_predictor, trace, config) is not None

    def still_fails(candidate):
        return _kernel_disagrees(make_predictor, candidate, config) is not None

    shrunk = shrink_trace(trace, still_fails, seed=3)
    assert still_fails(shrunk)
    assert len(shrunk) < len(trace)
