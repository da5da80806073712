"""Tests for the telemetry subsystem: spans, sinks, manifests,
attribution, and the zero-overhead disabled path."""

import threading

import pytest

from repro.lang import compile_source
from repro.telemetry import (
    NULL_SPAN,
    InMemoryAggregator,
    JsonlSink,
    RunManifest,
    Telemetry,
    manifest_path_for,
    read_jsonl_tolerant,
)
from repro.telemetry.core import TELEMETRY
from repro.vm import run_program


@pytest.fixture
def telemetry():
    """A fresh, enabled registry with an in-memory sink."""
    registry = Telemetry(sink=InMemoryAggregator(), enabled=True)
    return registry


@pytest.fixture
def global_telemetry():
    """Enable the process singleton for a test; restore after."""
    sink = InMemoryAggregator()
    TELEMETRY.enable(sink)
    yield sink
    TELEMETRY.disable()
    TELEMETRY.reset()


# --- spans, counters, histograms ------------------------------------------


def test_span_records_duration_histogram(telemetry):
    with telemetry.span("work") as span:
        pass
    assert span.duration >= 0.0
    histogram = telemetry.histogram("span.work")
    assert histogram.count == 1
    assert histogram.total == pytest.approx(span.duration)
    events = telemetry.sink.of_type("span")
    assert len(events) == 1
    assert events[0]["name"] == "work"
    assert events[0]["depth"] == 0


def test_span_nesting_depth(telemetry):
    with telemetry.span("outer"):
        assert telemetry.current_span_name() == "outer"
        with telemetry.span("inner"):
            assert telemetry.current_span_name() == "inner"
        assert telemetry.current_span_name() == "outer"
    assert telemetry.current_span_name() is None
    inner, outer = (telemetry.sink.named("inner")[0],
                    telemetry.sink.named("outer")[0])
    assert inner["depth"] == 1
    assert outer["depth"] == 0


def test_span_annotate_and_failure(telemetry):
    with pytest.raises(ValueError):
        with telemetry.span("risky", benchmark="wc") as span:
            span.annotate(extra=7)
            raise ValueError("boom")
    event = telemetry.sink.named("risky")[0]
    assert event["failed"] is True
    assert event["benchmark"] == "wc"
    assert event["extra"] == 7


def test_span_stacks_are_per_thread(telemetry):
    seen = {}

    def worker():
        with telemetry.span("thread-span"):
            seen["inner"] = telemetry.current_span_name()

    with telemetry.span("main-span"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert telemetry.current_span_name() == "main-span"
    assert seen["inner"] == "thread-span"


def test_counters_and_histograms(telemetry):
    telemetry.count("hits")
    telemetry.count("hits", 4)
    telemetry.record("latency", 2.0)
    telemetry.record("latency", 4.0)
    assert telemetry.counter_value("hits") == 5
    histogram = telemetry.histogram("latency")
    assert histogram.count == 2
    assert histogram.mean == 3.0
    assert histogram.minimum == 2.0 and histogram.maximum == 4.0
    snapshot = telemetry.snapshot()
    assert snapshot["counters"] == {"hits": 5}
    assert snapshot["histograms"]["latency"]["total"] == 6.0


def test_event_goes_to_sink(telemetry):
    telemetry.event("cache.hit", benchmark="wc", path="x.npz")
    event = telemetry.sink.named("cache.hit")[0]
    assert event["type"] == "event"
    assert event["benchmark"] == "wc"


def test_histogram_percentiles(telemetry):
    for value in range(1, 101):        # 1..100, exact reservoir
        telemetry.record("latency", float(value))
    histogram = telemetry.histogram("latency")
    assert histogram.percentile(50) == 50.0
    assert histogram.percentile(95) == 95.0
    assert histogram.percentile(99) == 99.0
    data = histogram.to_dict()
    assert (data["p50"], data["p95"], data["p99"]) == (50.0, 95.0, 99.0)


def test_histogram_percentiles_empty_and_single():
    from repro.telemetry.core import Histogram

    histogram = Histogram("x")
    assert histogram.percentile(50) is None
    assert histogram.to_dict()["p99"] is None
    histogram.record(7.0)
    assert histogram.percentile(50) == 7.0
    assert histogram.percentile(99) == 7.0


def test_histogram_percentiles_nearest_rank_small_reservoirs():
    """Regression: the rank must be ceil(q/100 * n), not round-half-up.

    The rounding variant under-reported high percentiles on the small
    reservoirs short probe runs produce: p95 of 11 samples has nearest
    rank ceil(10.45) = 11 (the maximum), but round-half-up answered
    rank 10 (the second-largest).
    """
    from repro.telemetry.core import Histogram

    histogram = Histogram("x")
    for value in range(1, 12):         # 11 samples: 1..11
        histogram.record(float(value))
    assert histogram.percentile(95) == 11.0
    assert histogram.percentile(99) == 11.0
    assert histogram.percentile(50) == 6.0   # ceil(5.5) = 6

    decade = Histogram("y")
    for value in range(1, 11):         # 10 samples: 1..10
        decade.record(float(value))
    assert decade.percentile(94) == 10.0     # ceil(9.4) = 10
    assert decade.percentile(90) == 9.0      # exact boundary
    assert decade.percentile(1) == 1.0       # clamps to the minimum
    assert decade.percentile(0) == 1.0
    assert decade.percentile(100) == 10.0

    pair = Histogram("z")
    pair.record(3.0)
    pair.record(9.0)
    assert pair.percentile(50) == 3.0
    assert pair.percentile(51) == 9.0
    assert pair.to_dict()["p95"] == 9.0


def test_histogram_two_sample_exposition_quantiles():
    """A short-run histogram must expose sane quantiles in the registry
    snapshot (the probe-latency histograms routinely hold one or two
    samples)."""
    from repro.telemetry.core import Telemetry

    registry = Telemetry(enabled=True)
    registry.record("characterize_probe", 2.0)
    registry.record("characterize_pair", 2.0)
    registry.record("characterize_pair", 5.0)
    histograms = registry.snapshot()["histograms"]
    single = histograms["characterize_probe"]
    assert single["p50"] == single["p95"] == single["p99"] == 2.0
    pair = histograms["characterize_pair"]
    assert (pair["p50"], pair["p95"], pair["p99"]) == (2.0, 5.0, 5.0)


def test_histogram_reservoir_bounded_and_deterministic():
    from repro.telemetry.core import Histogram

    first, second = Histogram("a"), Histogram("b")
    for value in range(10_000):
        first.record(float(value))
        second.record(float(value))
    assert len(first._samples) == Histogram.RESERVOIR_SIZE
    # Same observation sequence, same seeded reservoir, same answers.
    assert first.percentile(95) == second.percentile(95)
    assert 8_000 <= first.percentile(95) <= 10_000


# --- the disabled path -----------------------------------------------------


def test_disabled_span_is_shared_null_span():
    registry = Telemetry()
    assert registry.enabled is False
    span = registry.span("anything", attr=1)
    assert span is NULL_SPAN
    assert span is registry.span("other")  # no allocation per call
    with span as entered:
        assert entered is NULL_SPAN
        assert entered.annotate(x=1) is NULL_SPAN


def test_disabled_count_record_event_are_noops():
    sink = InMemoryAggregator()
    registry = Telemetry(sink=sink)
    for _ in range(10_000):
        registry.count("c")
    registry.record("h", 1.0)
    registry.event("e", field=1)
    assert registry.counter_value("c") == 0
    assert registry.histogram("h") is None
    assert len(sink) == 0


def test_global_registry_default_off():
    assert TELEMETRY.enabled is False


def test_vm_run_unchanged_when_disabled():
    program = compile_source(
        "int main() { puti(41 + 1); return 0; }", "t")
    result = run_program(program)
    assert TELEMETRY.counter_value("vm.runs") == 0
    assert result.instructions > 0


# --- sinks ------------------------------------------------------------------


def test_inmemory_aggregator_filters():
    sink = InMemoryAggregator()
    sink.emit({"type": "span", "name": "a"})
    sink.emit({"type": "event", "name": "b"})
    assert len(sink) == 2
    assert [event["name"] for event in sink.of_type("span")] == ["a"]
    assert sink.named("b")[0]["type"] == "event"
    sink.clear()
    assert len(sink) == 0


def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "log" / "events.jsonl"
    sink = JsonlSink(path)
    assert not path.exists()  # lazy: no file until the first event
    sink.emit({"type": "event", "name": "one", "value": 1})
    sink.emit({"type": "event", "name": "two", "value": 2})
    sink.close()
    events, torn = read_jsonl_tolerant(path)
    assert torn == 0
    assert [event["name"] for event in events] == ["one", "two"]
    assert all("ts" in event for event in events)


def test_jsonl_sink_append_after_close(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    sink.emit({"name": "first"})
    sink.close()
    sink.emit({"name": "second"})  # reopens in append mode
    sink.close()
    events, torn = read_jsonl_tolerant(path)
    assert torn == 0
    assert [event["name"] for event in events] == ["first", "second"]


def test_jsonl_sink_context_manager_closes(tmp_path):
    path = tmp_path / "events.jsonl"
    with JsonlSink(path) as sink:
        sink.emit({"name": "inside"})
        assert sink._handle is not None
    assert sink._handle is None
    events, torn = read_jsonl_tolerant(path)
    assert torn == 0
    assert [event["name"] for event in events] == ["inside"]


def test_jsonl_sink_span_events_flushed_immediately(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    sink.emit({"type": "span", "name": "work", "duration_s": 0.1})
    # Readable before close: the span line was flushed on emission.
    events, torn = read_jsonl_tolerant(path)
    assert torn == 0
    assert events[0]["name"] == "work"
    sink.close()


def test_read_jsonl_tolerant_skips_torn_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"name": "ok", "type": "event"}\n'
                    '[1, 2, 3]\n'
                    '{"name": "also-ok", "type": "event"}\n'
                    '{"name": "torn", "ty')   # killed mid-write
    events, torn = read_jsonl_tolerant(path)
    assert [event["name"] for event in events] == ["ok", "also-ok"]
    assert torn == 2
    assert read_jsonl_tolerant(tmp_path / "missing.jsonl") == ([], 0)


# --- run manifests ----------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    manifest = RunManifest(
        benchmark="wc", cache_key="wc-s0_1-r2-v2-abc", format_version=2,
        config={"scale": 0.1, "runs": 2}, git_sha="f" * 40,
        stages={"compile": 0.01, "trace": 1.5},
        event_log="telemetry.jsonl",
        artifacts={"trace": "wc.npz", "profile": "wc.json"})
    path = manifest.write(tmp_path / "wc.manifest.json")
    loaded = RunManifest.load(path)
    assert loaded == manifest
    assert loaded.total_stage_seconds == pytest.approx(1.51)
    from repro.telemetry.manifest import MANIFEST_VERSION

    assert loaded.to_dict()["manifest_version"] == MANIFEST_VERSION


def test_manifest_path_for():
    assert str(manifest_path_for("/cache/wc-v2-abc.npz")).endswith(
        "wc-v2-abc.manifest.json")
    assert (manifest_path_for("/cache/wc-v2-abc.json").name
            == "wc-v2-abc.manifest.json")


def test_runner_writes_manifest(tmp_path):
    from repro.experiments.runner import CACHE_FORMAT_VERSION, SuiteRunner

    runner = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path)
    run = runner.run("wc")
    manifests = list(tmp_path.glob("*.manifest.json"))
    assert len(manifests) == 1
    manifest = RunManifest.load(manifests[0])
    assert manifest == run.manifest
    assert manifest.benchmark == "wc"
    assert manifest.format_version == CACHE_FORMAT_VERSION
    assert manifest.cache_key in manifests[0].name
    assert manifest.config["scale"] == 0.05
    assert set(manifest.stages) >= {"compile", "profile", "trace"}
    assert all(seconds >= 0.0 for seconds in manifest.stages.values())
    for artifact in manifest.artifacts.values():
        assert (tmp_path / artifact).exists()


def test_cache_hit_reloads_manifest(tmp_path):
    from repro.experiments.runner import SuiteRunner

    first = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path).run("wc")
    second = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path).run("wc")
    assert second.manifest is not None
    assert second.manifest == first.manifest


@pytest.mark.parametrize("profile_source", ["measured", "static"])
def test_stale_version_emits_invalidation_event(tmp_path, global_telemetry,
                                                profile_source):
    from repro.experiments.runner import CACHE_FORMAT_VERSION, SuiteRunner

    def runner():
        return SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path,
                           profile_source=profile_source)

    runner().run("wc")
    trace_path = next(path for path in tmp_path.glob("*.npz")
                      if "-v%d-" % CACHE_FORMAT_VERSION in path.name)
    assert ("+static" in trace_path.name) == (profile_source == "static")
    stale = tmp_path / trace_path.name.replace(
        "-v%d-" % CACHE_FORMAT_VERSION, "-v%d-" % (CACHE_FORMAT_VERSION - 1))
    stale.write_bytes(trace_path.read_bytes())

    runner().run("wc")
    events = global_telemetry.named("cache.invalidated")
    assert len(events) == 1
    assert events[0]["found_version"] == CACHE_FORMAT_VERSION - 1
    assert events[0]["expected_version"] == CACHE_FORMAT_VERSION
    assert events[0]["path"] == str(stale)
    assert TELEMETRY.counter_value("runner.cache.invalidated") == 1


def test_v5_entry_lists_stale_and_is_recomputed(tmp_path,
                                                global_telemetry):
    """An entry in the five-column layout of format 5 (no ``flags``)
    is stale, not corrupt: it is listed as such, reported through
    ``cache.invalidated`` and recomputed without a quarantine."""
    import json

    import numpy as np

    from repro.experiments.runner import (
        CACHE_FORMAT_VERSION,
        SuiteRunner,
        list_cache_entries,
    )
    from repro.resilience.store import file_checksum, list_quarantined
    from repro.telemetry.manifest import manifest_path_for

    def runner():
        return SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path)

    fresh = runner().run("wc")
    (current,) = tmp_path.glob("*.npz")
    old = tmp_path / current.name.replace(
        "-v%d-" % CACHE_FORMAT_VERSION, "-v5-")
    trace = fresh.trace
    with open(old, "wb") as handle:
        np.savez_compressed(
            handle, sites=trace.sites, classes=trace.classes,
            takens=trace.takens.astype(np.int8), targets=trace.targets,
            gaps=trace.gaps,
            total_instructions=np.int64(trace.total_instructions))
    current.with_suffix(".json").rename(old.with_suffix(".json"))
    manifest = json.loads(manifest_path_for(current).read_text())
    manifest.update(format_version=5, cache_key=old.stem,
                    artifacts={"trace": old.name,
                               "profile": old.with_suffix(".json").name})
    manifest["checksums"]["trace"] = file_checksum(old)
    manifest_path_for(old).write_text(json.dumps(manifest))
    current.unlink()
    manifest_path_for(current).unlink()

    (entry,) = list_cache_entries(tmp_path)
    assert entry["stem"] == old.stem
    assert entry["status"] == "stale" and entry["current"] is False

    recomputed = runner().run("wc")
    (event,) = global_telemetry.named("cache.invalidated")
    assert event["found_version"] == 5
    assert event["path"] == str(old)
    assert not global_telemetry.named("cache.corrupt")
    assert global_telemetry.named("cache.miss")
    assert not list_quarantined(tmp_path)
    assert list(recomputed.trace.records()) == list(trace.records())
    statuses = {entry["stem"]: entry["status"]
                for entry in list_cache_entries(tmp_path)}
    assert statuses == {old.stem: "stale", current.stem: "ok"}


def test_cache_listing(tmp_path):
    from repro.experiments.runner import (
        CACHE_FORMAT_VERSION,
        SuiteRunner,
        list_cache_entries,
    )

    assert list_cache_entries(tmp_path) == []
    SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path).run("wc")
    entries = list_cache_entries(tmp_path)
    assert len(entries) == 1
    entry = entries[0]
    assert entry["format_version"] == CACHE_FORMAT_VERSION
    assert entry["current"] is True
    assert entry["size_bytes"] > 0
    assert entry["manifest"].benchmark == "wc"


# --- instrumentation fires when enabled ------------------------------------


def test_vm_emits_run_event(global_telemetry):
    program = compile_source("""
        int main() {
            int i; int t = 0;
            for (i = 0; i < 10; i = i + 1) t = t + i;
            puti(t);
            return 0;
        }
    """, "t")
    result = run_program(program)
    run_program(program, slot_mode="execute")
    assert TELEMETRY.counter_value("vm.runs") == 2
    assert TELEMETRY.counter_value("vm.compiled_runs") == 1
    assert (TELEMETRY.counter_value("vm.instructions")
            == 2 * result.instructions)
    compiled, reference = global_telemetry.named("vm.run")
    assert compiled["type"] == reference["type"] == "span"
    assert compiled["instructions"] == result.instructions
    assert compiled["duration_s"] > 0
    assert (compiled["path"], reference["path"]) == ("compiled",
                                                     "reference")


def test_predictor_simulate_emits_stats(global_telemetry):
    from repro.predictors import CounterBTB, SimpleBTB, simulate

    program = compile_source("""
        int main() {
            int i;
            for (i = 0; i < 50; i = i + 1)
                if (i % 3 == 0) puti(i);
            return 0;
        }
    """, "t")
    trace = run_program(program, trace=True).trace
    simulate(SimpleBTB(), trace)
    simulate(CounterBTB(), trace)
    events = global_telemetry.named("predictors.simulate")
    assert [event["scheme"] for event in events] == ["SBTB", "CBTB"]
    for event in events:
        assert 0.0 <= event["accuracy"] <= 1.0
        assert event["records"] > 0
        assert event["engine"] == "vector"
        assert (event["entries"], event["associativity"]) == (256, 256)


def _loop_trace():
    program = compile_source("""
        int main() {
            int i;
            for (i = 0; i < 2000; i = i + 1)
                if (i % 7 < 3) puti(i);
            return 0;
        }
    """, "t")
    return run_program(program, trace=True).trace


def _simulate_events(trace, predictor):
    """Counters and ``predictors.simulate`` span events of one run."""
    from repro.predictors import simulate

    TELEMETRY.reset()
    sink = InMemoryAggregator()
    TELEMETRY.enable(sink)
    simulate(predictor, trace)
    return (TELEMETRY.snapshot()["counters"],
            sink.named("predictors.simulate"))


def _scalar_and_vector_events(trace):
    """One CBTB run per path: a kernel-less subclass takes the loop."""
    from repro.predictors import CounterBTB

    class KernelLessCBTB(CounterBTB):
        pass

    return (_simulate_events(trace, KernelLessCBTB()),
            _simulate_events(trace, CounterBTB()))


def test_vector_engine_emits_same_telemetry_shape(global_telemetry):
    """Scalar and vector simulate() paths report the same counters
    (modulo the per-path name) and the same outcome fields."""
    trace = _loop_trace()
    (scalar_counters, scalar_events), (vector_counters, vector_events) \
        = _scalar_and_vector_events(trace)

    assert scalar_counters["predictor.records"] == len(trace)
    assert vector_counters["predictor.records"] == len(trace)
    assert scalar_counters["predictor.records.scalar"] == len(trace)
    assert vector_counters["predictor.records.vector"] == len(trace)
    # Counter names match once the path suffix is normalised.
    normalise = {name.replace(".scalar", ".<engine>")
                 .replace(".vector", ".<engine>")
                 for name in scalar_counters}
    assert normalise == {name.replace(".scalar", ".<engine>")
                         .replace(".vector", ".<engine>")
                         for name in vector_counters}
    assert len(scalar_events) == len(vector_events) == 1
    assert scalar_events[0]["engine"] == "scalar"
    assert vector_events[0]["engine"] == "vector"
    for key in ("records", "correct", "accuracy", "buffer_misses",
                "miss_ratio", "scheme", "entries", "associativity"):
        assert scalar_events[0][key] == vector_events[0][key]


def test_vector_event_omits_untouched_buffer_fields(global_telemetry):
    """Events describe the predictor's configuration, never its buffer
    contents: both paths emit exactly the same fields."""
    trace = _loop_trace()
    (_, scalar_events), (_, vector_events) = \
        _scalar_and_vector_events(trace)
    scalar, vector = scalar_events[0], vector_events[0]
    assert set(scalar) == set(vector)
    for key in ("occupancy", "evictions", "conflict_evictions",
                "counter_distribution", "counter_transitions"):
        assert key not in scalar


# --- mispredict attribution -------------------------------------------------


@pytest.fixture(scope="module")
def wc_run(tmp_path_factory):
    from repro.experiments.runner import SuiteRunner

    cache = tmp_path_factory.mktemp("attr_cache")
    return SuiteRunner(scale=0.05, runs=1, cache_dir=cache).run("wc")


def test_attribution_report_structure(wc_run):
    from repro.telemetry.attribution import SCHEMES, attribution_report

    data = attribution_report(wc_run)
    assert data["benchmark"] == "wc"
    assert data["schemes"] == list(SCHEMES)
    assert data["records"] == len(wc_run.trace)
    for scheme in SCHEMES:
        assert 0.0 <= data["totals"][scheme]["accuracy"] <= 1.0
    sites = data["sites"]
    assert sites, "wc must have at least one attributed branch site"
    totals = [sum(row["mispredictions"].values()) for row in sites]
    assert totals == sorted(totals, reverse=True)  # worst-first
    for row in sites:
        assert set(row["accuracy"]) == set(SCHEMES)
        assert row["executions"] > 0
        assert 0.0 <= row["taken_fraction"] <= 1.0
        assert row["worst_scheme"] in SCHEMES
    # Source mapping: the hot conditional sites carry function + line.
    conditionals = [row for row in sites if row["class"] == "conditional"]
    assert any(row["line"] is not None for row in conditionals)
    assert any(row["function"] == "main" for row in conditionals)


def test_attribution_render(wc_run):
    from repro.telemetry.attribution import (
        attribution_report,
        render_attribution,
    )

    data = attribution_report(wc_run)
    text = render_attribution(data, limit=3)
    assert "Mispredict attribution — wc" in text
    assert "SBTB" in text and "CBTB" in text and "FS" in text
    assert "worst" in text
    if len(data["sites"]) > 3:
        assert "more sites" in text


def test_attribution_json_serialisable(wc_run):
    import json

    from repro.telemetry.attribution import attribution_report

    payload = json.dumps(attribution_report(wc_run))
    assert "mispredictions" in payload
