"""Tests for sweep checkpoints and the crash/concurrency acceptance
scenarios: a SIGKILL-ed campaign resumes without recomputing finished
benchmarks, and two processes warming one benchmark produce a single
checksum-valid cache entry."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.checkpoint import (
    SweepCheckpoint,
    sweep_fingerprint,
)
from repro.resilience.store import list_quarantined, verify_checksum
from repro.telemetry.core import TELEMETRY
from repro.telemetry.sinks import InMemoryAggregator

SCALE = 0.02


@pytest.fixture(autouse=True)
def sink():
    aggregator = InMemoryAggregator()
    TELEMETRY.enable(aggregator)
    yield aggregator
    TELEMETRY.disable()
    TELEMETRY.reset()


# -- fingerprint ------------------------------------------------------------

def test_fingerprint_is_stable():
    args = (["t1", "t2"], 0.1, 2, ["wc"], 3)
    assert sweep_fingerprint(*args) == sweep_fingerprint(*args)


def test_fingerprint_covers_every_input():
    base = sweep_fingerprint(["t1"], 0.1, 2, ["wc"], 3)
    assert sweep_fingerprint(["t2"], 0.1, 2, ["wc"], 3) != base
    assert sweep_fingerprint(["t1"], 0.2, 2, ["wc"], 3) != base
    assert sweep_fingerprint(["t1"], 0.1, 3, ["wc"], 3) != base
    assert sweep_fingerprint(["t1"], 0.1, 2, ["tee"], 3) != base
    assert sweep_fingerprint(["t1"], 0.1, 2, ["wc"], 4) != base


def test_fingerprint_benchmark_order_irrelevant():
    assert sweep_fingerprint(["t"], 0.1, 1, ["wc", "tee"], 3) \
        == sweep_fingerprint(["t"], 0.1, 1, ["tee", "wc"], 3)


# -- record / load / clear --------------------------------------------------

def test_record_and_load_roundtrip(tmp_path, sink):
    path = tmp_path / "sweep.json"
    checkpoint = SweepCheckpoint(path, "abc123")
    assert checkpoint.load() == {}
    checkpoint.record("Table 1", "body one")
    checkpoint.record("Table 2", "body two")
    resumed = SweepCheckpoint(path, "abc123").load()
    assert resumed == {"Table 1": "body one", "Table 2": "body two"}
    events = sink.named("checkpoint.resume")
    assert events and sorted(events[0]["sections"]) \
        == ["Table 1", "Table 2"]


def test_fingerprint_mismatch_discards(tmp_path, sink):
    path = tmp_path / "sweep.json"
    SweepCheckpoint(path, "old-config").record("Table 1", "stale")
    fresh = SweepCheckpoint(path, "new-config")
    assert fresh.load() == {}
    assert sink.named("checkpoint.mismatch")
    assert not sink.named("checkpoint.resume")


def test_corrupt_checkpoint_quarantined(tmp_path, sink):
    path = tmp_path / "sweep.json"
    path.write_text("{ torn json")
    assert SweepCheckpoint(path, "fp").load() == {}
    assert sink.named("checkpoint.corrupt")
    assert not path.exists()
    assert list_quarantined(tmp_path)


def test_wrong_shape_checkpoint_quarantined(tmp_path, sink):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sections": {"Table 1": 42}}))
    assert SweepCheckpoint(path, "fp").load() == {}
    assert sink.named("checkpoint.corrupt")


def test_non_object_checkpoint_quarantined(tmp_path, sink):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(["not", "an", "object"]))
    assert SweepCheckpoint(path, "fp").load() == {}
    assert sink.named("checkpoint.corrupt")


def test_clear_removes_file(tmp_path):
    path = tmp_path / "sweep.json"
    checkpoint = SweepCheckpoint(path, "fp")
    checkpoint.record("Table 1", "body")
    assert path.exists()
    checkpoint.clear()
    assert not path.exists()
    checkpoint.clear()      # idempotent


# -- summary.generate resume ------------------------------------------------

class _CountingSection:
    """Stands in for a table module; counts real renders."""

    def __init__(self, body):
        self.body = body
        self.renders = 0

    def render(self, runner, names):
        self.renders += 1
        return self.body


def test_generate_resumes_from_checkpoint(tmp_path, monkeypatch):
    from repro.experiments import summary

    first = _CountingSection("first body")
    second = _CountingSection("second body")
    monkeypatch.setattr(summary, "SECTIONS",
                        (("a", "Section A", first),
                         ("b", "Section B", second)))

    class _FakeRunner:
        scale = SCALE
        runs = 1

    path = tmp_path / "sweep.json"
    # Simulate a campaign killed after Section A.
    prior = SweepCheckpoint(path, "fp")
    prior.record("a", "first body (from checkpoint)")

    text = summary.generate(_FakeRunner(), ["wc"],
                            checkpoint=SweepCheckpoint(path, "fp"))
    assert first.renders == 0           # replayed, not recomputed
    assert second.renders == 1
    assert "first body (from checkpoint)" in text
    assert "second body" in text
    assert not path.exists()            # cleared on completion


def test_generate_without_checkpoint_renders_everything(monkeypatch):
    from repro.experiments import summary

    section = _CountingSection("body")
    monkeypatch.setattr(summary, "SECTIONS", (("only", "Only", section),))

    class _FakeRunner:
        scale = SCALE
        runs = 1

    summary.generate(_FakeRunner(), ["wc"])
    assert section.renders == 1


# -- acceptance: SIGKILL-ed campaign resumes --------------------------------

_CHILD_SCRIPT = """
import sys
from repro.experiments.runner import SuiteRunner

runner = SuiteRunner(scale=%r, runs=1, cache_dir=sys.argv[1])
for name in ("wc", "tee"):
    runner.run(name)
""" % SCALE


def test_sigkilled_run_all_resumes_from_cache(tmp_path, sink):
    """Kill -9 a campaign after its first benchmark is cached; the
    rerun must load that benchmark from cache instead of recomputing,
    and nothing torn may poison the cache."""
    from repro.experiments.runner import SuiteRunner

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 120.0
        while not list(tmp_path.glob("wc-*.manifest.json")):
            if child.poll() is not None:
                break       # finished both benchmarks before the kill
            assert time.monotonic() < deadline, \
                "child never cached wc"
            time.sleep(0.005)
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)
    finally:
        child.wait()

    runner = SuiteRunner(scale=SCALE, runs=1, cache_dir=tmp_path)
    results = runner.run_all(["wc", "tee"])
    assert set(results) == {"wc", "tee"}
    assert len(results["wc"].trace) > 0

    hits = {event["benchmark"] for event in sink.named("cache.hit")}
    assert "wc" in hits, "completed benchmark was recomputed"
    # Anything the kill tore mid-write must have been quarantined or
    # cleanly replaced — never loaded: every surviving manifest's
    # checksums must verify.
    for manifest_path in tmp_path.glob("*.manifest.json"):
        data = json.loads(manifest_path.read_text())
        for kind, artifact in data["artifacts"].items():
            assert verify_checksum(tmp_path / Path(artifact).name,
                                   data["checksums"][kind])


# -- acceptance: concurrent warm --------------------------------------------

def _warm_in_child(arguments):
    cache_dir, start_flag = arguments
    from repro.experiments.runner import SuiteRunner

    while not Path(start_flag).exists():
        time.sleep(0.001)
    runner = SuiteRunner(scale=SCALE, runs=1, cache_dir=cache_dir)
    runner.run("wc")


def test_concurrent_warm_single_valid_entry(tmp_path, sink):
    """Two processes warming the same benchmark on an empty cache must
    produce exactly one checksum-valid entry (the stem lock's loser
    loads the winner's write instead of double-computing)."""
    from repro.experiments.runner import SuiteRunner

    start_flag = tmp_path / "start.flag"
    context = multiprocessing.get_context()
    children = [
        context.Process(target=_warm_in_child,
                        args=((str(tmp_path), str(start_flag)),))
        for _ in range(2)
    ]
    for child in children:
        child.start()
    start_flag.write_text("go")     # release both at once
    for child in children:
        child.join(timeout=120.0)
        assert child.exitcode == 0

    assert list_quarantined(tmp_path) == []
    traces = list(tmp_path.glob("wc-*.npz"))
    manifests = list(tmp_path.glob("wc-*.manifest.json"))
    assert len(traces) == 1 and len(manifests) == 1
    data = json.loads(manifests[0].read_text())
    for kind, artifact in data["artifacts"].items():
        assert verify_checksum(tmp_path / Path(artifact).name,
                               data["checksums"][kind])

    # The surviving entry is loadable: a fresh runner gets a pure hit.
    runner = SuiteRunner(scale=SCALE, runs=1, cache_dir=tmp_path)
    run = runner.run("wc")
    assert len(run.trace) > 0
    assert sink.named("cache.hit")
    assert not sink.named("cache.corrupt")


def test_run_all_supervised_warm_reports(tmp_path):
    from repro.experiments.runner import SuiteRunner

    runner = SuiteRunner(scale=SCALE, runs=1, cache_dir=tmp_path)
    results = runner.run_all(["wc"], workers=2)
    assert set(results) == {"wc"}
    report = runner.last_warm_report
    assert report is not None and report.ok
    assert report.succeeded == ["wc"]
