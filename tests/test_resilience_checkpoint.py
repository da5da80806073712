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

from repro.experiments.runner import RunConfig
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
    args = (["t1", "t2"], RunConfig(0.1, 2), ["wc"])
    assert sweep_fingerprint(*args) == sweep_fingerprint(*args)


def test_fingerprint_covers_every_input(monkeypatch):
    from repro.resilience import checkpoint

    config = RunConfig(0.1, 2)
    base = sweep_fingerprint(["t1"], config, ["wc"])
    assert sweep_fingerprint(["t2"], config, ["wc"]) != base
    assert sweep_fingerprint(["t1"], RunConfig(0.2, 2), ["wc"]) != base
    assert sweep_fingerprint(["t1"], RunConfig(0.1, 3), ["wc"]) != base
    assert sweep_fingerprint(["t1"], RunConfig(0.1, 2, "static"),
                             ["wc"]) != base
    assert sweep_fingerprint(["t1"], config, ["tee"]) != base
    monkeypatch.setattr(checkpoint, "source_digest", lambda: "edited")
    assert sweep_fingerprint(["t1"], config, ["wc"]) != base


def test_fingerprint_benchmark_order_irrelevant():
    config = RunConfig(0.1, 1)
    assert sweep_fingerprint(["t"], config, ["wc", "tee"]) \
        == sweep_fingerprint(["t"], config, ["tee", "wc"])


#: Runs the CLI with Table 3's renderer raising, after Tables 1 and 2
#: were checkpointed.
_CRASH_IN_TABLE3 = """
import sys

import repro.experiments.table3 as table3


def render(*args, **kwargs):
    raise RuntimeError("injected crash in table 3")


table3.render = render
from repro.cli import main

sys.exit(main(sys.argv[1:]))
"""


def test_edited_benchmark_never_resumes_a_stale_sweep(tmp_path):
    """A sweep dies in Table 3 and a benchmark's source is then edited:
    the rerun on the same cache must print what a fresh run of the
    edited tree prints, not the checkpointed Table 1 of the old one."""
    import shutil

    source = tmp_path / "src"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "repro",
                    source / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["all", "--scale", str(SCALE), "--benchmarks", "wc"]

    def repro(cache, *command):
        env = dict(os.environ, PYTHONPATH=str(source),
                   REPRO_CACHE_DIR=str(tmp_path / cache))
        return subprocess.run([sys.executable, *command, *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    crashed = repro("cache", "-c", _CRASH_IN_TABLE3)
    assert "injected crash in table 3" in crashed.stderr
    assert list((tmp_path / "cache" / "checkpoints").glob("all-*.json"))

    wc = source / "repro" / "benchmarksuite" / "programs" / "wc.py"
    text = wc.read_text()
    chain = "    if (c == ' ' || c == '\\t' || c == '\\n' || c == '\\r') " \
            "return 1;\n"
    assert chain in text
    wc.write_text(text.replace(chain, "".join(
        "    if (c == %s) return 1;\n" % char
        for char in ("' '", "'\\t'", "'\\n'", "'\\r'"))))

    resumed = repro("cache", "-m", "repro")
    fresh = repro("fresh", "-m", "repro")
    assert resumed.returncode == fresh.returncode == 0, resumed.stderr
    assert resumed.stdout == fresh.stdout
    assert "resuming sweep" not in resumed.stderr


def test_static_sweep_never_resumes_into_measured(tmp_path, sink):
    """A killed ``--profile-source static`` sweep left a checkpoint; a
    measured sweep of the same scale, runs and benchmarks must render
    its own tables, not replay the static ones."""
    from repro.cli import _sweep_checkpoint
    from repro.experiments.runner import SuiteRunner

    sections = ["table1", "table2"]
    static = SuiteRunner(scale=SCALE, runs=1, cache_dir=tmp_path,
                         profile_source="static")
    _sweep_checkpoint(static, ["wc"], sections, "all", True) \
        .record("table1", "static-profile table")

    measured = SuiteRunner(scale=SCALE, runs=1, cache_dir=tmp_path)
    assert _sweep_checkpoint(measured, ["wc"], sections, "all",
                             True).load() == {}
    assert not sink.named("checkpoint.resume")


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
        config = RunConfig(SCALE, 1)

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
        config = RunConfig(SCALE, 1)

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
