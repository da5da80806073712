"""Tests for the supervised parallel runner."""

import multiprocessing
import os
import random
import time
from pathlib import Path

import pytest

from repro.resilience.faults import PLAN_ENV_VAR, FaultPlan
from repro.resilience.supervisor import (
    Attempt,
    RunReport,
    TaskOutcome,
    backoff_seconds,
    run_supervised,
)
from repro.telemetry.core import TELEMETRY
from repro.telemetry.sinks import InMemoryAggregator


@pytest.fixture(autouse=True)
def sink():
    aggregator = InMemoryAggregator()
    TELEMETRY.enable(aggregator)
    yield aggregator
    TELEMETRY.disable()
    TELEMETRY.reset()


def _write_marker(payload):
    """Worker: record the payload in a file named after it."""
    directory, label = payload
    Path(directory, label + ".done").write_text(label)


def _always_raise(payload):
    raise ValueError("worker bug on %r" % (payload,))


def _sleep_forever(payload):
    time.sleep(3600)


def _flaky_until_marker(payload):
    """Fail hard until a sibling marker file exists, then succeed."""
    directory = Path(payload)
    marker = directory / "second-chance"
    if not marker.exists():
        marker.write_text("tried")
        os._exit(23)


def test_all_tasks_succeed(tmp_path):
    tasks = [(name, (str(tmp_path), name)) for name in ("a", "b", "c")]
    report = run_supervised(tasks, _write_marker, workers=2,
                            timeout=30.0, retries=0)
    assert report.ok
    assert sorted(report.succeeded) == ["a", "b", "c"]
    assert report.retried == [] and report.failed == []
    for name in ("a", "b", "c"):
        assert (tmp_path / (name + ".done")).read_text() == name


def test_crash_is_retried_to_success(tmp_path, sink):
    report = run_supervised([("flaky", str(tmp_path))],
                            _flaky_until_marker, workers=1,
                            timeout=30.0, retries=2, backoff=0.01)
    assert report.ok
    outcome = report.outcome("flaky")
    assert outcome.attempts == 2 and outcome.retried
    events = sink.named("worker.retry")
    assert events and events[0]["task"] == "flaky"
    assert events[0]["reason"] == "crash"


def test_hang_is_killed_and_reported(sink):
    report = run_supervised([("hung", None)], _sleep_forever,
                            workers=1, timeout=0.3, retries=0)
    assert not report.ok
    outcome = report.outcome("hung")
    assert outcome.status == "failed"
    assert "timed out" in outcome.error
    events = sink.named("worker.failed")
    assert events and events[0]["reason"] == "hang"


def test_exhausted_retries_fail_with_error(sink):
    report = run_supervised([("doomed", 7)], _always_raise, workers=1,
                            timeout=30.0, retries=1, backoff=0.01)
    assert not report.ok
    outcome = report.outcome("doomed")
    assert outcome.attempts == 2
    assert "ValueError" in outcome.error
    assert sink.named("worker.retry") and sink.named("worker.failed")


def test_partial_failure_collects_both(tmp_path):
    tasks = [("good", (str(tmp_path), "good")), ("bad", ("x", "y"))]

    report = run_supervised(tasks, _write_marker_or_raise, workers=2,
                            timeout=30.0, retries=0)
    assert report.succeeded == ["good"]
    assert report.failed == ["bad"]
    assert not report.ok


def _write_marker_or_raise(payload):
    directory, label = payload
    if not Path(directory).is_dir():
        raise FileNotFoundError(directory)
    _write_marker(payload)


def _touch_payload(payload):
    Path(payload).write_text("touched")


def test_bare_labels_are_their_own_payload(tmp_path):
    target = tmp_path / "bare.done"
    report = run_supervised([str(target)], _touch_payload, workers=1,
                            timeout=30.0, retries=0)
    assert report.ok
    assert report.succeeded == [str(target)]
    assert target.read_text() == "touched"


def test_worker_fault_plan_crash_via_env(tmp_path, sink):
    plan = FaultPlan.single("worker-crash", seed=0)
    os.environ[PLAN_ENV_VAR] = plan.to_json()
    try:
        report = run_supervised([("task", (str(tmp_path), "task"))],
                                _write_marker, workers=1, timeout=30.0,
                                retries=2, backoff=0.01, seed=0)
    finally:
        os.environ.pop(PLAN_ENV_VAR, None)
    assert report.ok
    assert report.outcome("task").attempts == 2
    assert (tmp_path / "task.done").exists()
    assert sink.named("worker.retry")


def test_worker_fault_plan_hang_via_env(tmp_path, sink):
    plan = FaultPlan.single("worker-hang", seed=1)
    os.environ[PLAN_ENV_VAR] = plan.to_json()
    try:
        report = run_supervised([("task", (str(tmp_path), "task"))],
                                _write_marker, workers=1, timeout=0.4,
                                retries=2, backoff=0.01, seed=1)
    finally:
        os.environ.pop(PLAN_ENV_VAR, None)
    assert report.ok
    assert report.outcome("task").attempts == 2
    events = sink.named("worker.retry")
    assert events and events[0]["reason"] == "hang"


def test_backoff_is_exponential_and_jittered():
    rng = random.Random(0)
    first = backoff_seconds(0.1, 1, rng)
    second = backoff_seconds(0.1, 2, rng)
    assert 0.05 <= first <= 0.15
    assert 0.1 <= second <= 0.3
    # Seeded: identical sequence for an identical seed.
    again = random.Random(0)
    assert backoff_seconds(0.1, 1, again) == first


def _return_dict(payload):
    return {"payload": payload, "squares": [n * n for n in range(4)]}


def _exit_13(payload):
    os._exit(13)


def _finish(worker, payload):
    attempt = Attempt(multiprocessing.get_context(), worker, "task",
                      payload, 1, timeout=30.0)
    return attempt.finish()


def test_attempt_finish_returns_worker_value():
    assert _finish(_return_dict, "p") == (
        "ok", {"payload": "p", "squares": [0, 1, 4, 9]})


def test_attempt_finish_reports_worker_exception():
    status, detail = _finish(_always_raise, 7)
    assert status == "error"
    assert detail.startswith("ValueError: ")


def test_attempt_finish_reports_crash():
    status, detail = _finish(_exit_13, None)
    assert status == "crash"
    assert "13" in detail


def test_report_render_and_dict():
    report = RunReport([
        TaskOutcome("a", "ok", 1, 0.5),
        TaskOutcome("b", "ok", 3, 1.5),
        TaskOutcome("c", "failed", 3, 2.0, error="boom"),
    ])
    text = report.render()
    assert "2 succeeded" in text
    assert "after retries (b)" in text
    assert "1 failed (c)" in text
    data = report.to_dict()
    assert data["degraded"] is False
    assert [o["name"] for o in data["outcomes"]] == ["a", "b", "c"]


def test_degraded_report_renders():
    report = RunReport([TaskOutcome("a", "failed", 0, 0.0, error="x")],
                       degraded=True)
    assert not report.ok
    assert "degraded to serial" in report.render()
