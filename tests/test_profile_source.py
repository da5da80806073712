"""--profile-source threading through the experiment harness.

With ``profile_source="static"`` no profile is folded from the runs:
the layout profile is estimated from the IR, and the runs only give
the block paths the trace is derived from.  Static and measured cache entries must never
collide, and manifests must record which source produced them.
"""

import json

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import PROFILE_SOURCES, SuiteRunner


def _forbid_profiler(monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("profiler invoked in static mode")

    monkeypatch.setattr(runner_mod.Profile, "from_paths", explode)


def test_unknown_profile_source_is_rejected():
    assert PROFILE_SOURCES == ("measured", "static")
    with pytest.raises(ValueError):
        SuiteRunner(profile_source="sampled")


def test_static_mode_never_invokes_the_profiler(monkeypatch):
    _forbid_profiler(monkeypatch)

    # The patch really intercepts the measured path...
    measured = SuiteRunner(scale=0.05, runs=1, cache_dir=False)
    with pytest.raises(AssertionError, match="profiler invoked"):
        measured.run("wc")

    # ...and the static path completes without ever reaching it.
    runner = SuiteRunner(scale=0.05, runs=1, cache_dir=False,
                         profile_source="static")
    run = runner.run("wc")
    assert run.profile.source == "static"
    assert len(run.trace) > 0


def test_static_and_measured_cache_entries_never_collide(tmp_path):
    static = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path,
                         profile_source="static")
    static.run("wc")
    static_traces = {path.name for path in tmp_path.glob("*.npz")}
    assert static_traces
    assert all("+static" in name for name in static_traces)

    measured = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path)
    measured.run("wc")
    measured_traces = {path.name
                       for path in tmp_path.glob("*.npz")} - static_traces
    assert measured_traces
    assert all("+static" not in name for name in measured_traces)


def test_manifest_records_the_profile_source(tmp_path):
    runner = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path,
                         profile_source="static")
    runner.run("wc")
    configs = []
    for path in tmp_path.glob("*.json"):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "config" in data:
            configs.append(data["config"])
    assert configs, "no run manifest written next to the cache entry"
    assert all(config.get("profile_source") == "static"
               for config in configs)


def test_cached_static_reload_skips_the_profiler(tmp_path, monkeypatch):
    runner = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path,
                         profile_source="static")
    runner.run("wc")
    # A fresh runner over the warm cache must stay profiler-free too.
    _forbid_profiler(monkeypatch)
    rerun = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path,
                        profile_source="static")
    run = rerun.run("wc")
    assert len(run.trace) > 0


def test_cli_exposes_the_flag():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["table3"]).profile_source == "measured"
    namespace = parser.parse_args(["table3", "--profile-source",
                                   "static"])
    assert namespace.profile_source == "static"
    with pytest.raises(SystemExit):
        parser.parse_args(["table3", "--profile-source", "guessed"])


def test_staticpred_experiment_renders(tmp_path):
    from repro.experiments import staticpred

    runner = SuiteRunner(scale=0.05, runs=1, cache_dir=tmp_path)
    text = staticpred.render(runner, names=["wc"])
    assert "wc" in text
    assert "overall" in text
    assert "TakenRate%" in text
    assert "Heuristic" in text
