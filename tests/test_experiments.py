"""Tests for the experiment runner, tables, figures, and headline."""

import pytest

from repro.benchmarksuite import get_benchmark
from repro.experiments import SuiteRunner, render_table
from repro.experiments import (
    figures,
    headline,
    paper_values,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.report import TableData, mean, std_dev
from repro.profiling import profile_program

TINY = 0.05
NAMES = ("wc", "tee", "cmp")   # a fast subset for table plumbing tests


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return SuiteRunner(scale=TINY, runs=2, cache_dir=cache)


def test_run_produces_artifacts(runner):
    run = runner.run("wc")
    assert run.stats.branches > 0
    # The profile is the fold over both runs of the two-input suite.
    suite = run.spec.input_suite(scale=TINY, runs=2)
    assert len(suite) == 2
    assert run.profile.to_dict() \
        == profile_program(run.program, suite)[0].to_dict()
    assert run.profile.block_counts[run.program.entry] == 2
    assert len(run.fs_program) > 0
    predictions = run.predictions()
    assert set(predictions) == {"SBTB", "CBTB", "FS"}
    for stats in predictions.values():
        assert 0.0 < stats.accuracy <= 1.0


def test_run_is_memoised(runner):
    assert runner.run("wc") is runner.run("wc")


def test_cold_run_builds_layout_once(tmp_path, monkeypatch):
    """A cold run reuses the layout its VM passes traced; a warm run
    (cache hit, no VM passes) builds it exactly once too."""
    from repro.experiments import runner as runner_module

    calls = []
    genuine = runner_module.build_fs_program

    def counting(*args, **kwargs):
        calls.append(args)
        return genuine(*args, **kwargs)

    monkeypatch.setattr(runner_module, "build_fs_program", counting)
    cache = tmp_path / "cache"
    SuiteRunner(scale=TINY, runs=1, cache_dir=cache).run("wc")
    assert len(calls) == 1
    SuiteRunner(scale=TINY, runs=1, cache_dir=cache).run("wc")
    assert len(calls) == 2


def test_disk_cache_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    first = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    fresh = first.run("tee")
    second = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    cached = second.run("tee")
    assert list(cached.trace.records()) == list(fresh.trace.records())
    assert cached.trace.total_instructions == fresh.trace.total_instructions
    assert cached.profile.branch_execs == fresh.profile.branch_execs
    # Cached artifacts yield identical predictions.
    for scheme in ("SBTB", "CBTB", "FS"):
        assert (cached.predictions()[scheme].accuracy
                == fresh.predictions()[scheme].accuracy)


def test_cache_disabled(tmp_path):
    runner = SuiteRunner(scale=TINY, runs=1, cache_dir=False)
    assert runner.cache_dir is None
    run = runner.run("cmp")
    assert run.stats.branches > 0


def test_a_base_run_without_a_block_path_names_the_benchmark(
        monkeypatch):
    from repro.experiments import runner as runner_module
    from repro.vm.machine import MachineResult

    monkeypatch.setattr(runner_module, "run_program",
                        lambda *args, **kwargs: MachineResult(b"", 1, None, 0))
    with pytest.raises(RuntimeError, match="wc: input 1 of 1 ran on the "
                       "reference interpreter"):
        SuiteRunner(scale=TINY, runs=1, cache_dir=False).run("wc")


def test_expansions_cover_slot_counts(runner):
    expansions = runner.run("wc").expansions()
    assert sorted(expansions) == [1, 2, 4, 8]
    fractions = [expansions[n].expansion_fraction for n in (1, 2, 4, 8)]
    assert fractions == sorted(fractions)
    # Expansion is linear in slot count.
    assert abs(fractions[3] - 8 * fractions[0]) < 1e-9


# --- tables -----------------------------------------------------------------


def test_table1(runner):
    data = table1.compute(runner, NAMES)
    assert len(data.rows) == len(NAMES)
    text = render_table(data)
    assert "Table 1" in text
    assert "wc" in text


def test_table2_percentages_consistent(runner):
    data = table2.compute(runner, NAMES)
    for row in data.rows[:-1]:   # skip the Average row
        assert abs(row[1] + row[2] - 100.0) < 0.2
        assert abs(row[3] + row[4] - 100.0) < 0.2


def test_table3_ranges(runner):
    data = table3.compute(runner, NAMES)
    for row in data.rows:
        if row[0] in ("Average", "Std. dev."):
            continue
        rho_s, a_s, rho_c, a_c, a_fs = row[1:6]
        assert 0.0 <= rho_s <= 1.0
        assert 0.0 <= rho_c <= rho_s  # CBTB misses far less than SBTB
        for accuracy in (a_s, a_c, a_fs):
            assert 0.0 <= accuracy <= 100.0


def test_table3_average_accuracies(runner):
    accuracies = table3.average_accuracies(runner, NAMES)
    assert set(accuracies) == {"SBTB", "CBTB", "FS"}
    for value in accuracies.values():
        assert 0.5 < value <= 1.0


def test_table4_costs_derive_from_accuracy(runner):
    data = table4.compute(runner, NAMES)
    for row in data.rows:
        if row[0] in ("Average", "Std. dev."):
            continue
        # cost at k+l=3 exceeds cost at k+l=2 for the same scheme.
        assert row[4] >= row[1]
        assert row[5] >= row[2]
        assert row[6] >= row[3]
        for cost in row[1:7]:
            assert 1.0 <= cost <= 5.0


def test_table4_scaling_increase(runner):
    increases = table4.scaling_increase(runner, NAMES)
    for scheme, value in increases.items():
        assert 0.0 <= value <= 40.0


def test_table5_linear_in_slots(runner):
    data = table5.compute(runner, NAMES)
    for row in data.rows:
        if row[0] in ("Average", "Std. dev."):
            continue
        one, two, four, eight = row[1:5]
        assert abs(two - 2 * one) < 0.1
        assert abs(eight - 8 * one) < 0.3


def test_figures_shapes(runner):
    data = figures.compute(runner, NAMES)
    assert sorted(data) == [1, 2, 4, 8]
    for k, series in data.items():
        for scheme, points in series.items():
            costs = [cost for _, cost in points]
            assert costs == sorted(costs)       # linear growth
        # Deeper fetch pipe costs more at the same l+m.
    for lm_index in range(3):
        assert (data[8]["SBTB"][lm_index][1]
                >= data[1]["SBTB"][lm_index][1])


def test_headline(runner):
    results = headline.compute(runner, NAMES)
    assert set(results) == {"5-stage", "11-stage"}
    for row in results.values():
        assert row["FS"] >= 1.0
        assert row["best-hardware"] >= 1.0
        assert row["best-hardware-scheme"] in ("SBTB", "CBTB")
    assert results["11-stage"]["FS"] > results["5-stage"]["FS"]


def test_render_functions_return_text(runner):
    for module in (table1, table2, table3, table4, table5, figures,
                   headline):
        text = module.render(runner, NAMES)
        assert isinstance(text, str)
        assert len(text) > 50


# --- report helpers ------------------------------------------------------------


def test_render_table_alignment():
    data = TableData("T", ["A", "B"], [["x", 1.5], ["yy", 22]],
                     notes=["a note"])
    text = render_table(data)
    assert "T" in text
    assert "note: a note" in text


def test_mean_and_std():
    assert mean([1, 2, 3]) == 2
    assert mean([]) == 0.0
    assert std_dev([5]) == 0.0
    assert abs(std_dev([2, 4]) - 1.0) < 1e-12


def test_paper_values_cover_all_benchmarks():
    for table in (paper_values.TABLE1, paper_values.TABLE2,
                  paper_values.TABLE3, paper_values.TABLE4_KL2,
                  paper_values.TABLE4_KL3):
        assert set(table) == set(paper_values.BENCHMARKS)
    assert set(paper_values.TABLE5) == set(paper_values.TABLE5_BENCHMARKS)


def test_series_plot_renders():
    from repro.experiments.report import render_series_plot
    text = render_series_plot(
        {"SBTB": [(0, 1.0), (1, 1.5)], "FS": [(0, 1.0), (1, 1.2)]},
        title="t")
    assert "S" in text and "F" in text
    assert render_series_plot({}) == "(no data)\n"


def test_storage_table(runner):
    from repro.experiments import storage
    data = storage.compute(runner, NAMES)
    assert len(data.rows) == 4            # k+l = 1, 2, 4, 8
    on_chip_sbtb = [row[1] for row in data.rows]
    assert on_chip_sbtb == sorted(on_chip_sbtb)   # grows with k
    for row in data.rows:
        # FS instruction-memory cost is far below BTB silicon.
        assert row[3] < row[1]
    text = storage.render(runner, NAMES)
    assert "Storage cost" in text


def test_parallel_warm(tmp_path):
    cache = tmp_path / "pcache"
    parallel = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    runs = parallel.run_all(["wc", "tee", "cmp"], workers=3)
    assert set(runs) == {"wc", "tee", "cmp"}
    # The parallel-warmed cache yields the same traces as serial.
    serial = SuiteRunner(scale=TINY, runs=1, cache_dir=tmp_path / "scache")
    for name in ("wc", "tee"):
        assert (list(runs[name].trace.records())
                == list(serial.run(name).trace.records()))


def test_parallel_warm_without_cache_falls_back(tmp_path):
    runner = SuiteRunner(scale=TINY, runs=1, cache_dir=False)
    runs = runner.run_all(["wc"], workers=4)
    assert runs["wc"].stats.branches > 0


def test_summary_report(runner):
    from repro.experiments import summary
    text = summary.generate(runner, NAMES)
    assert text.startswith("# Reproduction report")
    for heading in ("Table 1", "Table 5", "Figures", "Storage"):
        assert heading in text


def test_sweeps(runner):
    from repro.experiments import sweeps
    capacity = sweeps.capacity_sweep(runner, NAMES, capacities=(16, 256))
    assert len(capacity.rows) == 2
    # Accuracy (weakly) improves with capacity for both schemes.
    assert capacity.rows[1][1] >= capacity.rows[0][1] - 0.01
    assert capacity.rows[1][2] >= capacity.rows[0][2] - 0.01

    assoc = sweeps.associativity_sweep(runner, NAMES, ways=(1, None))
    assert assoc.rows[1][0] == "full"
    assert assoc.rows[1][1] >= assoc.rows[0][1] - 0.01

    counters = sweeps.counter_sweep(
        runner, NAMES, configurations=((1, 1), (2, 2)))
    assert all(0.0 <= row[1] <= 1.0 for row in counters.rows)

    text = sweeps.render(runner, NAMES)
    assert "capacity sweep" in text
    assert "associativity sweep" in text
    assert "counter geometry" in text


def test_corrupt_cache_falls_back_to_execution(tmp_path):
    cache = tmp_path / "corrupt"
    first = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    fresh = first.run("wc")
    # Corrupt every cache file.
    for path in cache.iterdir():
        path.write_bytes(b"garbage")
    second = SuiteRunner(scale=TINY, runs=1, cache_dir=cache)
    recovered = second.run("wc")
    assert (list(recovered.trace.records())
            == list(fresh.trace.records()))


def _tamper_trace(cache, change):
    """Rewrite the cached trace of ``cache`` through ``change`` and
    record the new file's checksum in its manifest."""
    import numpy as np

    from repro.resilience.store import file_checksum
    from repro.telemetry.manifest import RunManifest, manifest_path_for

    (trace_path,) = cache.glob("*.npz")
    with np.load(trace_path) as stored:
        arrays = dict(stored)
    change(arrays)
    with open(trace_path, "wb") as handle:
        np.savez(handle, **arrays)
    manifest_path = manifest_path_for(trace_path)
    manifest = RunManifest.load(manifest_path)
    manifest.checksums["trace"] = file_checksum(trace_path)
    manifest.write(manifest_path)


def _truncated_flags(arrays):
    arrays["flags"] = arrays["flags"][:1]


def test_tampered_trace_columns_are_quarantined(tmp_path):
    # A content-tampered entry with a recomputed checksum: the checksum
    # passes, so the trace's own shape check must catch it.
    from repro.resilience.store import list_quarantined

    cache = tmp_path / "tampered"
    fresh = SuiteRunner(scale=TINY, runs=1, cache_dir=cache).run("wc")
    _tamper_trace(cache, _truncated_flags)

    recovered = SuiteRunner(scale=TINY, runs=1, cache_dir=cache).run("wc")
    assert list_quarantined(cache)
    assert (list(recovered.trace.records())
            == list(fresh.trace.records()))


def _float_sites(arrays):
    arrays["sites"] = arrays["sites"].astype(float)


def _flag_above_seven(arrays):
    arrays["flags"][-1] = 8


def _negative_gap(arrays):
    arrays["gaps"][0] = -1


def _gaps_past_total(arrays):
    arrays["total_instructions"] = (arrays["gaps"].astype(int).sum()
                                    + arrays["gaps"].size - 1)


@pytest.mark.parametrize("change, reason", [
    (_float_sites, "not a signed integer"),
    (_flag_above_seven, "flags outside [0, 7]"),
    (_negative_gap, "negative gap"),
    (_gaps_past_total, "records exceed"),
])
def test_trace_violating_an_invariant_is_quarantined(tmp_path, change,
                                                     reason):
    # Each of the trace's semantic checks, alone, with a recomputed
    # checksum: the entry is quarantined once, and the recomputed run
    # renders as a clean run does.
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.sinks import InMemoryAggregator

    clean = headline.render(
        SuiteRunner(scale=TINY, runs=1, cache_dir=False), names=["wc"])
    cache = tmp_path / "tampered"
    SuiteRunner(scale=TINY, runs=1, cache_dir=cache).run("wc")
    _tamper_trace(cache, change)

    sink = InMemoryAggregator()
    TELEMETRY.enable(sink)
    try:
        recovered = headline.render(
            SuiteRunner(scale=TINY, runs=1, cache_dir=cache), names=["wc"])
        again = headline.render(
            SuiteRunner(scale=TINY, runs=1, cache_dir=cache), names=["wc"])
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    (event,) = sink.named("cache.corrupt")
    assert reason in event["reason"]
    assert recovered == again == clean


def test_paper_predictions_release_the_trace_encoding(tmp_path):
    from repro.kernels import EncodedTrace

    run = SuiteRunner(scale=TINY, runs=1, cache_dir=False).run("wc")
    held = EncodedTrace.of(run.trace)
    predictions = run.predictions()
    assert EncodedTrace.of(run.trace) is not held
    # The memoized result needs no encoding.
    assert run.predictions() is predictions


def test_tampered_profile_count_is_quarantined(tmp_path):
    # One branch count off by one with a recomputed checksum: the JSON
    # parses and the checksum passes, so the profile's check against
    # the CFG must catch it, and the recomputed entry renders as a
    # clean run does.
    import json

    from repro.resilience.store import file_checksum
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.manifest import RunManifest, manifest_path_for
    from repro.telemetry.sinks import InMemoryAggregator

    clean = headline.render(
        SuiteRunner(scale=TINY, runs=1, cache_dir=False), names=["wc"])
    cache = tmp_path / "tampered"
    SuiteRunner(scale=TINY, runs=1, cache_dir=cache).run("wc")
    (trace_path,) = cache.glob("*.npz")
    profile_path = trace_path.with_suffix(".json")
    data = json.loads(profile_path.read_text())
    data["branch_execs"][0][1] += 1
    profile_path.write_text(json.dumps(data))
    manifest_path = manifest_path_for(trace_path)
    manifest = RunManifest.load(manifest_path)
    manifest.checksums["profile"] = file_checksum(profile_path)
    manifest.write(manifest_path)

    sink = InMemoryAggregator()
    TELEMETRY.enable(sink)
    try:
        recovered = headline.render(
            SuiteRunner(scale=TINY, runs=1, cache_dir=cache), names=["wc"])
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    (event,) = sink.named("cache.corrupt")
    assert "artifact rejected: branch site" in event["reason"]
    assert recovered == clean


def test_cache_key_includes_source_hash(tmp_path):
    runner = SuiteRunner(scale=TINY, runs=1, cache_dir=tmp_path)
    spec_source = "int main() { return 0; }"
    path_a, _ = runner._cache_paths("x", runner.config, spec_source)
    path_b, _ = runner._cache_paths("x", runner.config, spec_source + " ")
    assert path_a != path_b


def _keys(runner):
    """(cache stem, manifest config, sweep fingerprint) of ``wc``."""
    from repro.cli import _sweep_checkpoint

    spec = get_benchmark("wc")
    config = runner.config.for_benchmark(spec)
    trace_path, profile_path = runner._cache_paths("wc", config,
                                                   spec.source)
    manifest = runner._build_manifest("wc", config, trace_path,
                                      profile_path, {})
    checkpoint = _sweep_checkpoint(runner, ["wc"], ["table1"], "all", True)
    return trace_path.stem, manifest.config, checkpoint.fingerprint


@pytest.mark.parametrize("change", [
    {"scale": 0.03}, {"runs": 2}, {"profile_source": "static"}])
def test_every_config_field_keys_every_consumer(tmp_path, change):
    """The cache stem, the manifest config and the sweep fingerprint
    each change with every field of the run configuration."""
    base = dict(scale=TINY, runs=1)
    stem, config, fingerprint = _keys(SuiteRunner(cache_dir=tmp_path,
                                                  **base))
    assert set(config) == {"scale", "runs", "profile_source"}
    changed = _keys(SuiteRunner(cache_dir=tmp_path, **dict(base, **change)))
    assert changed[0] != stem
    assert changed[1] != config
    assert changed[2] != fingerprint
