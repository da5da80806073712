"""The black-box characterization harness: probes, inference, gates.

The harness must recover known configurations *exactly* (any slack
would let a simulator bug hide inside the tolerance), flag declared
parameters the probes contradict, and stay strictly black-box — the
inference driver only ever sees ``PredictionStats``.
"""

from collections import OrderedDict

import pytest

from repro.characterize import (
    chain_trace,
    characterize,
    disagree_trace,
    ladder_trace,
    probe_battery,
    step_trace,
    victim_trace,
)
from repro.characterize.roster import roster_names, run_roster, run_self_test
from repro.cli import main
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    Prediction,
    Predictor,
    SimpleBTB,
    Tournament,
)
from repro.vm.tracing import BranchClass


# --- probe kernels ----------------------------------------------------------


def test_chain_trace_shape_and_determinism():
    trace = chain_trace(4, 8, 3)
    assert len(trace) == 12
    assert trace.total_instructions == 12
    sites = list(trace.sites)
    assert sites[:4] == [3, 11, 19, 27]
    assert sites[:4] == sites[4:8] == sites[8:]
    assert all(taken for taken in trace.takens)
    assert all(cls == BranchClass.CONDITIONAL for cls in trace.classes)
    again = chain_trace(4, 8, 3)
    assert list(again.sites) == sites
    assert list(again.targets) == list(trace.targets)


def test_step_trace_segments():
    trace = step_trace(3, 2, 1)
    assert list(trace.takens) == [True] * 3 + [False] * 2 + [True]
    assert len(set(trace.sites)) == 1


def test_ladder_trace_period():
    trace = ladder_trace(3, 2)
    assert list(trace.takens) == [True, True, True, False] * 2
    assert len(set(trace.sites)) == 1


def test_victim_trace_probe_adds_one_record():
    base = victim_trace(4, 16, probe=False)
    probed = victim_trace(4, 16, probe=True)
    assert len(probed) == len(base) + 1
    assert probed.sites[-1] == base.sites[0]
    # One intruder site beyond the warmed set, aliased into it.
    assert (probed.sites[-2] - base.sites[0]) % 16 == 0


def test_disagree_trace_opposite_outcomes():
    trace = disagree_trace(4)
    takens = list(trace.takens)
    assert all(takens[i] != takens[i + 1] for i in range(0, 8, 2))


def test_probe_battery_covers_every_family():
    battery = probe_battery(entries=16)
    families = {family for family, _, _ in battery}
    assert families == {"capacity", "alias", "counter", "history",
                        "replacement", "disagree"}
    names = [name for _, name, _ in battery]
    assert len(names) == len(set(names))
    # Deterministic: the conformance corpus must be stable run to run.
    again = probe_battery(entries=16)
    assert [(f, n, list(t.sites)) for f, n, t in battery] == \
        [(f, n, list(t.sites)) for f, n, t in again]


# --- exact recovery on known configurations ---------------------------------


@pytest.mark.parametrize("entries,associativity", [
    (16, None), (16, 4), (32, 8), (64, 4),
])
def test_sbtb_geometry_recovered_exactly(entries, associativity):
    report = characterize(
        lambda: SimpleBTB(entries=entries, associativity=associativity))
    assert report.recovered["buffered"] is True
    assert report.recovered["entries"] == entries
    assert report.recovered["associativity"] == (associativity or entries)
    assert report.recovered["n_sets"] == (
        entries // (associativity or entries))
    assert report.recovered["replacement"] == "lru"
    assert report.recovered["history_depth"] == 0
    assert report.recovered["flush_sensitive"] is True
    assert report.ok


@pytest.mark.parametrize("counter_bits,threshold", [
    (1, 1), (2, 2), (2, 1), (3, 4), (3, 6),
])
def test_cbtb_counter_width_recovered_exactly(counter_bits, threshold):
    report = characterize(
        lambda: CounterBTB(entries=16, counter_bits=counter_bits,
                           threshold=threshold))
    assert report.recovered["counter_bits"] == counter_bits
    assert report.recovered["threshold"] == threshold
    assert report.recovered["entries"] == 16
    assert report.ok


@pytest.mark.parametrize("history_bits", [1, 2, 4, 6])
def test_gshare_history_depth_recovered_exactly(history_bits):
    report = characterize(
        lambda: GShare(history_bits=history_bits, table_bits=10,
                       entries=16))
    assert report.recovered["history_depth"] == history_bits
    assert report.recovered["entries"] == 16
    # Global history masks single-counter hysteresis: no claim made.
    assert report.recovered["counter_bits"] is None
    assert report.ok


def test_bimodal_recovers_two_bit_counter_and_no_history():
    report = characterize(
        lambda: Bimodal(table_bits=10, entries=32, associativity=4))
    assert report.recovered["counter_bits"] == 2
    assert report.recovered["threshold"] == 2
    assert report.recovered["history_depth"] == 0
    assert report.recovered["entries"] == 32
    assert report.recovered["associativity"] == 4
    assert report.ok


def test_tournament_recovers_chosen_history_depth():
    report = characterize(lambda: Tournament(
        first=Bimodal(table_bits=10, entries=16),
        second=GShare(history_bits=3, table_bits=10, entries=16)))
    # Steady state routes to the gshare component on the ladder.
    assert report.recovered["history_depth"] == 3
    assert report.recovered["entries"] == 16
    assert report.ok


@pytest.mark.parametrize("factory", [
    lambda: ForwardSemanticPredictor(likely_sites={}),
    AlwaysTaken,
    AlwaysNotTaken,
])
def test_non_buffered_schemes_skip_buffer_probes(factory):
    report = characterize(factory)
    assert report.recovered["buffered"] is False
    assert report.recovered["entries"] is None
    assert report.recovered["associativity"] is None
    assert report.recovered["replacement"] is None
    assert report.recovered["counter_bits"] is None
    assert report.recovered["history_depth"] == 0
    assert report.recovered["flush_sensitive"] is False
    assert report.ok


# --- divergence-point sharpness ---------------------------------------------


class _FifoBTB(Predictor):
    """An SBTB whose replacement ignores recency — the probe must tell
    it apart from the production LRU scheme."""

    name = "fifo-btb"

    def __init__(self, entries=16):
        self.entries = entries
        self._store = OrderedDict()

    def predict(self, site, branch_class):
        target = self._store.get(site)
        if target is None:
            return Prediction(False, hit=False)
        return Prediction(True, target=target, hit=True)

    def update(self, site, branch_class, taken, target):
        if taken:
            if site in self._store:
                self._store[site] = target  # refresh value, not order
            else:
                if len(self._store) >= self.entries:
                    self._store.popitem(last=False)
                self._store[site] = target
        else:
            self._store.pop(site, None)

    def reset(self):
        self._store.clear()


def test_replacement_probe_distinguishes_fifo_from_lru():
    report = characterize(lambda: _FifoBTB(16), label="fifo")
    assert report.recovered["replacement"] == "fifo-like"
    assert report.recovered["entries"] == 16


def test_injected_mismatch_is_flagged():
    lied = dict(SimpleBTB(entries=16).declared_parameters())
    lied["entries"] = 32
    report = characterize(lambda: SimpleBTB(entries=16), declared=lied)
    assert not report.ok
    keys = {key for key, _, _ in report.mismatches}
    assert "entries" in keys
    row = next(row for row in report.mismatches if row[0] == "entries")
    assert row[1] == 32 and row[2] == 16


def test_inconclusive_recovery_is_not_a_mismatch():
    """None means "the probe could not decide", never "wrong"."""
    report = characterize(
        lambda: GShare(history_bits=2, table_bits=8, entries=16),
        declared={"counter_bits": 2, "history_depth": 2})
    assert report.recovered["counter_bits"] is None
    assert report.ok


# --- the report -------------------------------------------------------------


def test_report_render_and_dict():
    report = characterize(lambda: SimpleBTB(entries=16), label="unit")
    text = report.render()
    assert "unit" in text
    assert "16 entries" in text
    assert "consistent with declaration" in text
    data = report.to_dict()
    assert data["ok"] is True
    assert data["recovered"]["entries"] == 16
    assert data["declared"]["entries"] == 16
    assert data["mismatches"] == []
    assert data["simulations"] == report.simulations > 0
    families = {row["family"] for row in data["evidence"]}
    assert {"capacity", "alias", "history", "replacement"} <= families


def test_report_render_is_byte_stable():
    """Two characterizations of one predictor render identically: the
    report holds no wall-clock field (the ``characterize.predictor``
    span times the probes instead)."""
    first, second = (characterize(lambda: CounterBTB(entries=16),
                                  label="twice") for _ in range(2))
    assert first.render() == second.render()
    assert first.render().splitlines()[-1] == (
        "  probes: %d simulations, %d records"
        % (first.simulations, first.records))


def test_report_render_marks_mismatches():
    lied = dict(SimpleBTB(entries=16).declared_parameters())
    lied["associativity"] = 2
    lied["n_sets"] = 8
    report = characterize(lambda: SimpleBTB(entries=16), declared=lied,
                          label="liar")
    text = report.render()
    assert "MISMATCH" in text
    assert "declared 2" in text


def test_evidence_records_probe_observations():
    report = characterize(lambda: CounterBTB(entries=16))
    counter_rows = [row for row in report.evidence
                    if row.family == "counter"]
    assert counter_rows
    flip = counter_rows[-1]
    assert flip.observation["flips_up"] == 2
    assert flip.observation["flips_down"] == 2
    assert "threshold 2" in flip.conclusion


def test_telemetry_counters_emitted():
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.sinks import InMemoryAggregator

    sink = InMemoryAggregator()
    TELEMETRY.enable(sink)
    try:
        characterize(lambda: SimpleBTB(entries=16))
        snapshot = TELEMETRY.snapshot()
        assert snapshot["counters"]["characterize.simulations"] > 0
        assert snapshot["counters"]["characterize.records"] > 0
        assert snapshot["counters"]["characterize.probes"] > 0
        assert any(event["name"].startswith("characterize")
                   for event in sink.of_type("span"))
    finally:
        TELEMETRY.disable().reset()


def test_predictor_span_carries_the_probe_counts():
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.sinks import InMemoryAggregator

    sink = InMemoryAggregator()
    TELEMETRY.enable(sink)
    try:
        report = characterize(lambda: SimpleBTB(entries=16))
    finally:
        TELEMETRY.disable().reset()
    [span] = [event for event in sink.named("characterize.predictor")
              if event["type"] == "span"]
    assert span["simulations"] == report.simulations > 0
    assert span["records"] == report.records > 0


# --- rosters and the self-test gate -----------------------------------------


def test_roster_names_cover_paper_configs():
    names = roster_names()
    assert "SBTB-paper" in names
    assert "CBTB-paper" in names


def test_run_roster_unknown_name_is_exit_2():
    text, code = run_roster(names=["warp-predictor"])
    assert code == 2
    assert "unknown predictor" in text


def test_run_roster_single_entry():
    text, code = run_roster(names=["SBTB-small"])
    assert code == 0
    assert "16 entries, 4-way" in text
    assert "RESULT: PASS" in text


def test_run_roster_json_payload():
    import json

    text, code = run_roster(names=["CBTB-small"], as_json=True)
    assert code == 0
    payload = json.loads(text)
    assert payload["ok"] is True
    report = payload["reports"][0]
    assert report["recovered"]["counter_bits"] == 3
    assert report["recovered"]["threshold"] == 4


# --- CLI --------------------------------------------------------------------


def test_main_characterize_single_target(capsys):
    exit_code = main(["characterize", "SBTB-small"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Black-box characterization" in out
    assert "RESULT: PASS" in out


def test_main_characterize_json(capsys):
    import json

    exit_code = main(["characterize", "CBTB-small", "--json"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_main_characterize_unknown_target(capsys):
    exit_code = main(["characterize", "warp-predictor"])
    assert exit_code == 2
    assert "unknown predictor" in capsys.readouterr().out


# --- slow batteries (audited by scripts/marker_audit.py) --------------------


@pytest.mark.slow
def test_full_roster_battery(capsys):
    exit_code = main(["characterize"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "SBTB-paper: 256 entries, fully assoc" in out
    assert "CBTB-paper: 256 entries, fully assoc, 2-bit ctr (t=2)" in out
    assert "RESULT: PASS" in out


@pytest.mark.slow
def test_self_test_gate_battery(capsys):
    """The acceptance bar: paper configs recovered exactly, the
    injected mis-declaration flagged, non-zero exit otherwise."""
    text, code = run_self_test()
    assert code == 0
    assert "SBTB-paper" in text and "CBTB-paper" in text
    assert "flagged" in text
    assert "RESULT: PASS" in text

    exit_code = main(["characterize", "--self-test"])
    assert exit_code == 0
    assert "RESULT: PASS" in capsys.readouterr().out
