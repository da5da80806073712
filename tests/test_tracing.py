"""Tests for cross-process tracing: contexts, shards, the merger,
and the per-layer ledger of recorded runs."""

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
    fold_ledger,
    merge_trace,
    new_trace_id,
)
from repro.telemetry.core import TELEMETRY
from repro.telemetry.tracing import (
    ATTEMPT_SPAN,
    SHARD_SPAN,
    shard_filename,
)


@pytest.fixture
def traced(tmp_path):
    """The global registry enabled with a JSONL sink and a trace."""
    log = tmp_path / "telemetry.jsonl"
    TELEMETRY.enable(JsonlSink(log))
    yield log, TELEMETRY.trace
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


def test_enable_installs_one_root_context():
    registry = Telemetry(enabled=True)
    first = registry.trace
    assert first is not None and first.span_id is None     # a root
    assert registry.enable().trace is first
    registry.reset()                    # still enabled: a new trace
    assert registry.trace is not None and registry.trace is not first
    assert registry.disable().reset().trace is None
    shipped = TraceContext(new_trace_id(), span_id="p1-3")
    registry.set_trace_context(shipped)  # a worker attempt's context
    assert registry.enable().trace is shipped


def test_shard_filename_sanitised():
    name = shard_filename("t" * 16, "../evil task", 2)
    assert "/" not in name and " " not in name
    assert name.startswith("shard-%s-" % ("t" * 16))
    assert name.endswith("-a2.jsonl")


# --- in-process span identity ----------------------------------------------


def test_spans_carry_trace_ids_and_parents():
    registry = Telemetry(sink=InMemoryAggregator(), enabled=True)
    context = registry.trace
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


def test_enabled_registry_always_traces():
    registry = Telemetry(sink=InMemoryAggregator())
    registry.enable()
    with registry.span("plain"):
        registry.event("inside")
    span = registry.sink.named("plain")[0]
    event = registry.sink.named("inside")[0]
    assert span["trace_id"] == event["trace_id"] == registry.trace.trace_id
    assert span["span_id"] and span["parent_span_id"] is None
    assert event["parent_span_id"] == span["span_id"]


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


def test_merge_defaults_to_the_latest_trace(tmp_path):
    path = tmp_path / "appended.jsonl"
    with open(path, "w") as handle:
        for trace, ts in (("aaaa", 1.0), ("bbbb", 2.0), ("aaaa", 1.5)):
            handle.write(json.dumps({
                "type": "span", "name": "root-" + trace,
                "trace_id": trace, "span_id": "%s-%s" % (trace, ts),
                "parent_span_id": None, "duration_s": 0.1,
                "ts": ts}) + "\n")
    assert merge_trace([path]).trace_id == "bbbb"


# --- the ledger -------------------------------------------------------------


def _write_events(path, events, trace_id="t" * 16):
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(dict(event, trace_id=trace_id))
                         + "\n")


def _span(name, span_id, parent, start, end, **attrs):
    return dict(type="span", name=name, span_id=span_id,
                parent_span_id=parent, duration_s=end - start, ts=end,
                **attrs)


def _snapshot(counters, parent=None, ts=99.0):
    return {"type": "event", "name": "telemetry.snapshot",
            "parent_span_id": parent, "counters": counters, "ts": ts}


def test_ledger_self_time_subtracts_the_union_of_children(tmp_path):
    """Two overlapping children under one parent: the parent's self
    time is its duration minus their union, not minus their sum."""
    log = tmp_path / "run.jsonl"
    _write_events(log, [
        _span("left", "p-3", "p-2", 2.0, 6.0),
        _span("right", "p-4", "p-2", 4.0, 8.0),
        _span("parent", "p-2", "p-1", 1.0, 9.0),
        _span("root", "p-1", None, 0.0, 10.0),
    ])
    ledger = fold_ledger(merge_trace(log))
    assert ledger["wall_s"] == 10.0
    assert ledger["other_s"] == 2.0             # the root's self time
    layers = ledger["layers"]
    assert list(layers) == ["left", "parent", "right"]
    assert layers["parent"] == (1, 2.0)         # 8 - |[2, 8]|
    assert layers["left"] == layers["right"] == (1, 4.0)


def test_ledger_folds_the_orphans_of_a_shards_only_replay(tmp_path,
                                                          traced):
    report = run_supervised([("a", "a"), ("b", "b")], _trace_worker,
                            workers=2, timeout=30.0, retries=0,
                            trace_dir=tmp_path / "traces")
    assert report.ok
    TELEMETRY.sink.close()

    tree = merge_trace(tmp_path / "traces")
    assert not tree.roots and len(tree.orphans) == 2
    ledger = fold_ledger(tree)
    assert ledger["wall_s"] == ledger["other_s"] == 0.0
    assert ledger["layers"][ATTEMPT_SPAN][0] == 2
    calls, self_s = ledger["layers"]["work.step"]
    assert calls == 2 and self_s >= 0.02


def test_ledger_sums_the_counters_of_every_process(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    _write_events(tmp_path / "telemetry.jsonl", [
        _span("root", "p1-1", None, 0.0, 1.0),
        _snapshot({"vm.runs": 1, "predictor.records": 10})])
    _write_events(traces / "shard-a.jsonl",
                  [_snapshot({"vm.runs": 2}, parent="p1-2")])
    _write_events(traces / "shard-b.jsonl",
                  [_snapshot({"vm.runs": 4}, parent="p1-3")])
    _write_events(traces / "shard-old.jsonl",   # an earlier run's
                  [_snapshot({"vm.runs": 100}, ts=50.0)], trace_id="o" * 16)
    ledger = fold_ledger(merge_trace(tmp_path))
    assert ledger["counters"] == {"predictor.records": 10, "vm.runs": 7}


def test_metrics_cli_replay(tmp_path, capsys):
    from repro.cli import main

    traces = tmp_path / "traces"
    traces.mkdir()
    _write_events(tmp_path / "telemetry.jsonl", [
        _span("runner.vm", "p1-2", "p1-1", 0.5, 2.0),
        _span("cli.table3", "p1-1", None, 0.0, 2.5),
        _snapshot({"predictor.records": 1234})])
    _write_events(traces / "shard-t-a-a1.jsonl",
                  [_snapshot({"predictor.records": 1000})])
    (traces / "notes.txt").write_text("not an event log\n")

    renders = []
    for _ in range(2):
        assert main(["metrics", "--replay", str(tmp_path)]) == 0
        renders.append(capsys.readouterr().out)
    assert renders[0] == renders[1]
    lines = renders[0].splitlines()
    assert lines[0] == ("trace %s: wall_s 2.500000, other_s 1.000000"
                        % ("t" * 16))
    assert lines[1].split() == ["span", "calls", "self_s"]
    assert lines[2].split() == ["runner.vm", "1", "1.500000"]
    assert lines[3].split() == ["counter", "value"]
    assert lines[4].split() == ["predictor.records", "2234"]
    assert len(lines) == 5


def test_metrics_replay_reads_only_the_latest_appended_run(tmp_path,
                                                           capsys):
    """The default event log is appended to by every run; the ledger
    of two runs in one log is the ledger of the second alone."""
    from repro.cli import main

    logs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for log in logs:
        assert main(["table3", "--scale", "0.02", "--benchmarks", "wc",
                     "--no-cache", "--telemetry",
                     "--telemetry-log", str(log)]) == 0
    appended = tmp_path / "appended" / "telemetry.jsonl"
    appended.parent.mkdir()
    appended.write_text(logs[0].read_text() + logs[1].read_text())
    capsys.readouterr()
    renders = []
    for log in (logs[1], appended):
        assert main(["metrics", "--replay", str(log)]) == 0
        renders.append(capsys.readouterr().out)
    assert renders[0] == renders[1]
    assert "predictor.records" in renders[0]


def test_ledger_of_a_warm_table3_sorts_each_trace_once(tmp_path,
                                                      monkeypatch):
    """A warm ``table3``: each simulated benchmark's three schemes
    share one ``kernels.sort_view``, a layer of its own in the
    ledger."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["table3", "--scale", "0.02"]) == 0
    log = tmp_path / "warm.jsonl"
    assert main(["table3", "--scale", "0.02", "--telemetry",
                 "--telemetry-log", str(log)]) == 0
    layers = fold_ledger(merge_trace(log))["layers"]
    simulated = layers["runner.predict"][0]
    assert simulated > 1
    assert layers["kernels.sort_view"][0] == simulated
    assert layers["predictors.simulate"][0] == 3 * simulated


def test_ledger_of_the_paper_takes_no_fallback(tmp_path):
    """The paper's schemes at scale 0.02: every site sorts as uint16,
    no 256-entry buffer overflows and no VM run leaves the compiled
    path, so the ledger reads zero for the fallback counters (a
    kernel counter never bumped is absent)."""
    from repro.cli import main

    log = tmp_path / "all.jsonl"
    assert main(["all", "--scale", "0.02", "--workers", "1", "--no-cache",
                 "--telemetry", "--telemetry-log", str(log)]) == 0
    counters = fold_ledger(merge_trace(log))["counters"]
    assert counters["predictor.records"] > 0
    assert counters.get("kernels.sort_wide", 0) == 0
    assert counters.get("kernels.evict_replayed_rows", 0) == 0
    assert counters.get("kernels.view_trace_order", 0) == 0
    # Every VM run stays on the compiled fast path (the counter is
    # recorded, at zero, by every compiled run).
    assert counters["vm.fast_path_exits"] == 0


def test_ledger_of_a_two_worker_run_covers_every_child(tmp_path,
                                                       monkeypatch):
    """``all --workers 2 --telemetry`` from an empty cache: the ledger
    of the cache directory holds every worker attempt's spans and
    counters under the CLI's one root."""
    from repro.benchmarksuite import ALL_BENCHMARK_NAMES
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["all", "--scale", "0.1", "--workers", "2",
                 "--telemetry"]) == 0
    tree = merge_trace(tmp_path)
    assert tree.complete
    assert [root.name for root in tree.roots] == ["cli.all"]
    ledger = fold_ledger(tree)
    layers = ledger["layers"]
    count = len(ALL_BENCHMARK_NAMES)
    for name in (SHARD_SPAN, ATTEMPT_SPAN, "runner.vm", "runner.trace"):
        assert layers[name][0] == count, name
    vm_runs = tree.named("vm.run")
    assert vm_runs and all(run.source.startswith("shard-")
                           for run in vm_runs)
    assert ledger["counters"]["vm.instructions"] == sum(
        run.attrs["instructions"] for run in vm_runs)
    assert ledger["counters"]["runner.cache.hit"] == count
    assert 0.0 <= ledger["other_s"] <= ledger["wall_s"]


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
