"""Tests for cross-process tracing: contexts, shards, the merger,
and Prometheus exposition of recorded runs."""

import json
import os
import time

import pytest

from repro.resilience.faults import PLAN_ENV_VAR, Fault, FaultPlan
from repro.resilience.supervisor import run_supervised
from repro.telemetry import (
    InMemoryAggregator,
    JsonlSink,
    Telemetry,
    TraceContext,
    merge_trace,
    new_trace_id,
    start_trace,
)
from repro.telemetry.core import TELEMETRY
from repro.telemetry.tracing import (
    ATTEMPT_SPAN,
    SHARD_SPAN,
    ensure_trace,
    shard_filename,
)


@pytest.fixture
def traced(tmp_path):
    """The global registry enabled with a JSONL sink and a trace."""
    log = tmp_path / "telemetry.jsonl"
    TELEMETRY.enable(JsonlSink(log))
    context = start_trace(TELEMETRY)
    yield log, context
    if TELEMETRY.sink is not None:
        TELEMETRY.sink.close()
    TELEMETRY.disable()
    TELEMETRY.reset()


# --- trace contexts ---------------------------------------------------------


def test_trace_context_roundtrip_derives_own_node():
    context = TraceContext("abcd" * 4, span_id="p1-7", node="p1")
    shipped = context.to_dict()
    assert shipped == {"trace_id": "abcd" * 4, "span_id": "p1-7"}
    received = TraceContext.from_dict(shipped)
    assert received.trace_id == context.trace_id
    assert received.span_id == "p1-7"
    assert received.node == "p%d" % os.getpid()  # never shipped


def test_new_trace_ids_are_unique_hex():
    ids = {new_trace_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


def test_ensure_trace_is_idempotent():
    registry = Telemetry(enabled=True)
    first = ensure_trace(registry)
    assert ensure_trace(registry) is first
    registry.set_trace_context(None)


def test_shard_filename_sanitised():
    name = shard_filename("t" * 16, "../evil task", 2)
    assert "/" not in name and " " not in name
    assert name.startswith("shard-%s-" % ("t" * 16))
    assert name.endswith("-a2.jsonl")


# --- in-process span identity ----------------------------------------------


def test_spans_carry_trace_ids_and_parents():
    registry = Telemetry(sink=InMemoryAggregator(), enabled=True)
    context = start_trace(registry)
    with registry.span("outer"):
        with registry.span("inner"):
            registry.event("deep.event", detail=1)
    outer = registry.sink.named("outer")[0]
    inner = registry.sink.named("inner")[0]
    event = registry.sink.named("deep.event")[0]
    assert outer["trace_id"] == context.trace_id
    assert outer["parent_span_id"] is None          # trace root
    assert inner["parent_span_id"] == outer["span_id"]
    assert event["parent_span_id"] == inner["span_id"]
    assert outer["span_id"] != inner["span_id"]


def test_spans_have_no_ids_without_a_context():
    registry = Telemetry(sink=InMemoryAggregator(), enabled=True)
    with registry.span("plain"):
        pass
    event = registry.sink.named("plain")[0]
    assert "span_id" not in event and "trace_id" not in event


def test_top_level_spans_parent_under_context_span():
    registry = Telemetry(sink=InMemoryAggregator(), enabled=True)
    registry.set_trace_context(
        TraceContext(new_trace_id(), span_id="parent-1"))
    with registry.span("worker-root"):
        pass
    event = registry.sink.named("worker-root")[0]
    assert event["parent_span_id"] == "parent-1"


def test_reset_clears_inherited_span_stack():
    registry = Telemetry(sink=InMemoryAggregator(), enabled=True)
    start_trace(registry)
    span = registry.span("stale").__enter__()       # left open, as a
    assert registry.current_span_name() == "stale"  # fork would leave
    registry.reset()
    assert registry.current_span_name() is None
    assert registry.current_span_id() is None
    del span


# --- supervised sweeps ------------------------------------------------------


def _trace_worker(payload):
    with TELEMETRY.span("work.step", task=str(payload)):
        time.sleep(0.01)


def _crash_once_worker(payload):
    from pathlib import Path

    label, marker = payload
    with TELEMETRY.span("work.step", task=str(label)):
        time.sleep(0.01)
    if marker is not None and not Path(marker).exists():
        Path(marker).write_text("died")
        os._exit(13)


def test_supervised_sweep_yields_complete_tree(tmp_path, traced):
    log, context = traced
    report = run_supervised([("a", "a"), ("b", "b"), ("c", "c")],
                            _trace_worker, workers=2, timeout=30.0,
                            retries=0, trace_dir=tmp_path / "traces")
    assert report.ok
    TELEMETRY.sink.close()

    tree = merge_trace([log, tmp_path / "traces"])
    assert tree.trace_id == context.trace_id
    assert tree.complete
    shards = tree.shards()
    attempts = tree.attempts()
    assert len(shards) == 3 and len(attempts) == 3
    shard_ids = {node.span_id for node in shards}
    for node in attempts:
        assert node.parent_span_id in shard_ids
        steps = [child for child in node.children
                 if child.name == "work.step"]
        assert len(steps) == 1
    assert {node.attrs["status"] for node in shards} == {"ok"}


def test_retried_attempt_gets_own_shard_span(tmp_path, traced):
    log, _context = traced
    marker = tmp_path / "crash-once.marker"
    report = run_supervised([("flaky", ("flaky", str(marker)))],
                            _crash_once_worker, workers=1,
                            timeout=30.0, retries=2, backoff=0.01,
                            trace_dir=tmp_path / "traces")
    assert report.ok and report.outcome("flaky").attempts == 2
    TELEMETRY.sink.close()

    tree = merge_trace([log, tmp_path / "traces"])
    assert tree.complete
    shards = tree.shards()
    assert [node.attrs["attempt"] for node in shards] == [1, 2]
    assert [node.attrs["status"] for node in shards] == ["crash", "ok"]
    # The killed attempt's completed inner span was adopted by its
    # shard span instead of dangling as an orphan.
    first = tree.node(shards[0].span_id)
    adopted = [node for node in first.walk() if node.adopted]
    assert adopted and adopted[0].name == "work.step"


def test_injected_hang_keeps_tree_complete(tmp_path, traced):
    """Acceptance: a seeded worker-hang fault plus a small timeout
    still merges into one complete trace tree, with the hung attempt
    accounted for by its shard span."""
    log, _context = traced
    plan = FaultPlan([Fault("worker-hang", at=1)])
    os.environ[PLAN_ENV_VAR] = plan.to_json()
    try:
        report = run_supervised([("hungry", "hungry")], _trace_worker,
                                workers=1, timeout=0.5, retries=1,
                                backoff=0.01,
                                trace_dir=tmp_path / "traces")
    finally:
        os.environ.pop(PLAN_ENV_VAR, None)
    assert report.ok and report.outcome("hungry").attempts == 2
    TELEMETRY.sink.close()

    tree = merge_trace([log, tmp_path / "traces"])
    assert tree.complete, tree.render()
    shards = tree.shards()
    assert [node.attrs["status"] for node in shards] == ["hang", "ok"]
    # Only the second attempt ran to completion, so exactly one
    # worker.attempt span exists — under the second shard span.
    attempts = tree.attempts()
    assert len(attempts) == 1
    assert attempts[0].parent_span_id == shards[1].span_id


def test_merge_skips_torn_trailing_line(tmp_path, traced):
    log, _context = traced
    report = run_supervised([("a", "a")], _trace_worker, workers=1,
                            timeout=30.0, retries=0,
                            trace_dir=tmp_path / "traces")
    assert report.ok
    TELEMETRY.sink.close()
    shard = next((tmp_path / "traces").glob("shard-*.jsonl"))
    with open(shard, "a") as handle:
        handle.write('{"type": "span", "name": "torn", "span')
    tree = merge_trace([log, tmp_path / "traces"])
    assert tree.complete
    assert tree.torn_lines == 1
    assert not tree.named("torn")


def test_merge_trace_respects_trace_id_filter(tmp_path):
    path = tmp_path / "mixed.jsonl"
    with open(path, "w") as handle:
        for trace in ("aaaa", "bbbb"):
            handle.write(json.dumps({
                "type": "span", "name": "root-" + trace,
                "trace_id": trace, "span_id": trace + "-1",
                "parent_span_id": None, "duration_s": 0.1,
                "ts": 1.0}) + "\n")
    tree = merge_trace([path], trace_id="bbbb")
    assert tree.trace_id == "bbbb"
    assert [node.name for node in tree.roots] == ["root-bbbb"]


# --- exposition -------------------------------------------------------------


def test_prometheus_text_format():
    from repro.telemetry.exposition import prometheus_text

    registry = Telemetry(enabled=True)
    registry.count("runner.cache.hit", 5)
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.record("span.trace", value)
    text = prometheus_text(registry.snapshot())
    assert "# TYPE repro_runner_cache_hit_total counter" in text
    assert "repro_runner_cache_hit_total 5" in text
    assert "# TYPE repro_span_trace summary" in text
    assert 'repro_span_trace{quantile="0.5"} 2.0' in text
    assert "repro_span_trace_sum 10.0" in text
    assert "repro_span_trace_count 4" in text
    assert prometheus_text({"counters": {}, "histograms": {}}) == ""


def test_replay_rebuilds_registry_from_log():
    from repro.telemetry.exposition import replay_into

    registry = Telemetry(enabled=True)
    replay_into(registry, [
        {"type": "span", "name": "runner.trace", "duration_s": 2.0},
        {"type": "span", "name": "runner.trace", "duration_s": 4.0},
        {"type": "event", "name": "telemetry.snapshot",
         "counters": {"vm.runs": 7}},
        {"type": "event", "name": "telemetry.snapshot",
         "counters": {"vm.runs": 3}},
        {"type": "event", "name": "unrelated", "counters": {"x": 9}},
    ])
    assert registry.counter_value("vm.runs") == 10
    histogram = registry.histogram("span.runner.trace")
    assert histogram.count == 2 and histogram.total == 6.0


def test_metrics_cli_replay(tmp_path, capsys):
    from repro.cli import main

    def snapshot(path, records):
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "type": "event", "name": "telemetry.snapshot",
                "counters": {"predictor.records": records}}) + "\n")

    log = tmp_path / "telemetry.jsonl"
    snapshot(log, 1234)
    assert main(["metrics", "--replay", str(log)]) == 0
    out = capsys.readouterr().out
    assert "repro_predictor_records_total 1234" in out

    # A shard directory sums the counters of every shard in it.
    traces = tmp_path / "traces"
    traces.mkdir()
    snapshot(traces / "shard-t-a-a1.jsonl", 1000)
    snapshot(traces / "shard-t-b-a1.jsonl", 234)
    (traces / "notes.txt").write_text("not an event log\n")
    assert main(["metrics", "--replay", str(traces)]) == 0
    assert capsys.readouterr().out == out


def test_metrics_replay_missing_log_is_bad_argument(tmp_path, capsys):
    from repro.cli import EXIT_BAD_ARGUMENT, main

    assert main(["metrics", "--replay",
                 str(tmp_path / "nope.jsonl")]) == EXIT_BAD_ARGUMENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no such event log" in captured.err


def test_attempt_span_name_constant():
    assert ATTEMPT_SPAN == "worker.attempt"
    assert SHARD_SPAN == "supervisor.shard"
