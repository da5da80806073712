"""Scalar-vs-vector equivalence over the characterization probe corpus.

The probe traces are adversarial by construction — saturated sets,
maximal aliasing, single-site counter hammering — regimes the
program-skeleton fuzzer essentially never reaches, which makes them
exactly the traces most likely to expose a drifting kernel.  Every
probe family runs through both the conformance differential engine
(:func:`engine_divergence`) and an explicit ``simulate_scalar`` /
``simulate_vector`` pair, with any divergence ddmin-shrunk to a
minimal reproducer before failing.
"""

import pytest

from repro.characterize.probes import PROBE_FAMILIES, probe_battery
from repro.conformance.differential import (
    engine_divergence,
    shrink_trace,
)
from repro.conformance.harness import run_conformance
from repro.kernels import simulate_vector
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    SimpleBTB,
    simulate_scalar,
)

#: Small geometry so the overflow/thrash probes genuinely evict.
_ENTRIES = 16

#: Every kernel-backed scheme, at the probe geometry plus one
#: deliberately undersized variant per buffered family (constant
#: eviction pressure on the aliased chains).
_SCHEMES = (
    ("sbtb", lambda: SimpleBTB(entries=_ENTRIES)),
    ("sbtb4x2", lambda: SimpleBTB(entries=4, associativity=2)),
    ("cbtb", lambda: CounterBTB(entries=_ENTRIES)),
    ("cbtb4x2", lambda: CounterBTB(entries=4, associativity=2,
                                   counter_bits=3, threshold=4)),
    ("gshare", lambda: GShare(history_bits=4, entries=_ENTRIES)),
    ("bimodal", lambda: Bimodal(entries=_ENTRIES)),
    ("fs", lambda: ForwardSemanticPredictor(likely_sites={})),
    ("always-taken", AlwaysTaken),
    ("always-not-taken", AlwaysNotTaken),
)


def _battery():
    return probe_battery(entries=_ENTRIES)


def _assert_engines_agree(label, make_predictor, trace, **kwargs):
    scalar = simulate_scalar(make_predictor(), trace, **kwargs)
    vector = simulate_vector(make_predictor(), trace, **kwargs)
    if scalar == vector:
        return
    shrunk = shrink_trace(
        trace,
        lambda t: simulate_scalar(make_predictor(), t, **kwargs)
        != simulate_vector(make_predictor(), t, **kwargs))
    pytest.fail(
        "%s: engines diverged on probe trace (%s)\n"
        "  scalar: %r\n  vector: %r\n"
        "  minimal reproducer (%d records): %r"
        % (label, kwargs or "default", scalar.as_dict(),
           vector.as_dict(), len(shrunk), list(shrunk.records())))


@pytest.mark.parametrize("family", PROBE_FAMILIES)
def test_probe_family_explicit_engines(family):
    """simulate_scalar == simulate_vector, probe by
    probe, for every scheme — including the non-buffered ones whose
    vector path is a pure closed form."""
    traces = [(name, trace) for fam, name, trace in _battery()
              if fam == family]
    assert traces, "probe battery lost the %s family" % family
    for name, trace in traces:
        for label, make_predictor in _SCHEMES:
            _assert_engines_agree("%s/%s/%s" % (family, name, label),
                                  make_predictor, trace)


@pytest.mark.parametrize("family", PROBE_FAMILIES)
def test_probe_family_divergence_engine(family):
    """The conformance differential engine agrees too (it compares
    via its own encode/replay path, not the simulate() front door)."""
    for fam, name, trace in _battery():
        if fam != family:
            continue
        for label, make_predictor in _SCHEMES:
            divergence = engine_divergence(make_predictor, trace)
            assert divergence is None, (
                "%s/%s/%s: %s" % (family, name, label,
                                  divergence.describe()))


def test_probe_traces_filtering_modes():
    """The record-filtering knobs must agree on probe traces as well;
    probes are all-conditional so conditional_only is a no-op that
    still has to produce identical stats on both paths."""
    for fam, name, trace in _battery():
        for label, make_predictor in (("sbtb", _SCHEMES[0][1]),
                                      ("cbtb", _SCHEMES[2][1])):
            _assert_engines_agree("%s/%s/%s" % (fam, name, label),
                                  make_predictor, trace,
                                  conditional_only=True)
            _assert_engines_agree("%s/%s/%s" % (fam, name, label),
                                  make_predictor, trace,
                                  ras_returns=False)


def test_broken_kernel_caught_on_probe_corpus(monkeypatch):
    """A drifting kernel must not survive the probe battery.

    Corrupts the SBTB kernel's hit accounting and checks that some
    capacity probe exposes it and that ddmin shrinks the reproducer —
    the probe corpus has to *detect* faults, not just replay cleanly.
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
    make_predictor = lambda: SimpleBTB(entries=_ENTRIES)  # noqa: E731
    caught = None
    for fam, name, trace in _battery():
        if len(trace) <= 3:
            continue
        if engine_divergence(make_predictor, trace) is not None:
            caught = (fam, name, trace)
            break
    assert caught is not None, "no probe exposed the broken kernel"
    fam, name, trace = caught

    def still_fails(candidate):
        return engine_divergence(make_predictor, candidate) is not None

    shrunk = shrink_trace(trace, still_fails)
    assert still_fails(shrunk)
    assert 4 <= len(shrunk) < len(trace)


def test_conformance_probe_battery_counts_and_passes():
    """run_conformance wires the corpus in: every probe replays against
    the oracle pairs and the engine cross-check, counted separately
    from the fuzz replays (whose totals existing tests pin exactly)."""
    report = run_conformance(seeds=1, golden=False)
    n_probes = len(_battery())
    assert report.probe_checks == n_probes * (2 + 4)
    assert report.replays == 3  # untouched by the probe battery
    probe_findings = [finding for finding in report.findings
                      if "@probe:" in finding.scheme
                      or "@engine:" in finding.scheme]
    assert probe_findings == []
    assert "characterization probe battery" in report.render()
