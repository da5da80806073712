"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_experiments():
    parser = build_parser()
    args = parser.parse_args(["table3", "--scale", "0.1"])
    assert args.experiment == "table3"
    assert args.scale == 0.1


def test_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["table9"])


def test_main_renders_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    exit_code = main(["table1", "--scale", "0.05", "--runs", "1",
                      "--benchmarks", "wc", "tee"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "wc" in out and "tee" in out


def test_main_headline_no_cache(capsys):
    exit_code = main(["headline", "--scale", "0.05", "--runs", "1",
                      "--no-cache", "--benchmarks", "wc"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Headline" in out
    assert "11-stage" in out


def test_main_trace_dump(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    exit_code = main(["trace", "--scale", "0.05", "--runs", "1",
                      "--benchmarks", "wc", "--limit", "5"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "branch trace of wc" in out
    assert "conditional" in out
    assert "more records" in out


def test_main_report_to_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    output = tmp_path / "report.md"
    exit_code = main(["report", "--scale", "0.05", "--runs", "1",
                      "--benchmarks", "wc", "--output", str(output)])
    assert exit_code == 0
    text = output.read_text()
    assert text.startswith("# Reproduction report")
    for section in ("Table 3", "Headline", "Storage"):
        assert section in text
    assert "wrote" in capsys.readouterr().out


def test_main_stats_attribution(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    exit_code = main(["stats", "wc", "--scale", "0.05", "--runs", "1",
                      "--limit", "5"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Mispredict attribution — wc" in out
    assert "SBTB" in out and "CBTB" in out and "FS" in out
    assert "worst" in out


def test_main_stats_json(capsys, tmp_path, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    exit_code = main(["stats", "wc", "--scale", "0.05", "--runs", "1",
                      "--json"])
    assert exit_code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["benchmark"] == "wc"
    assert data["schemes"] == ["SBTB", "CBTB", "FS"]
    assert data["sites"]
    assert set(data["sites"][0]["accuracy"]) == {"SBTB", "CBTB", "FS"}


def test_main_stats_json_with_telemetry(capsys, tmp_path, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    log = tmp_path / "events.jsonl"
    exit_code = main(["stats", "wc", "--scale", "0.05", "--runs", "1",
                      "--json", "--telemetry",
                      "--telemetry-log", str(log)])
    assert exit_code == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    # With telemetry on the payload is wrapped: the report plus the
    # registry snapshot, its counters; the run's timings are the span
    # events of its log.
    assert data["report"]["benchmark"] == "wc"
    snapshot = data["telemetry"]
    assert snapshot["counters"]
    assert set(snapshot) == {"counters"}
    from repro.telemetry.sinks import read_jsonl_tolerant

    spans = [event for event in read_jsonl_tolerant(log)[0]
             if event.get("type") == "span"]
    assert {"cli.stats", "runner.compile", "runner.vm",
            "runner.layout"} <= {event["name"] for event in spans}
    for event in spans:
        assert event["duration_s"] >= 0.0
    # The attribution itself: one simulation span per scheme, then
    # the per-site fold.
    assert sorted(event["scheme"] for event in spans
                  if event["name"] == "attribution.site_statistics") \
        == ["CBTB", "FS", "SBTB"]
    assert [event["name"] for event in spans].count(
        "attribution.fold") == 1


def test_main_profile_with_telemetry(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    log = tmp_path / "events.jsonl"
    exit_code = main(["profile", "wc", "--scale", "0.05", "--runs", "1",
                      "--telemetry", "--telemetry-log", str(log)])
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "profile of wc" in captured.out
    assert "runner.vm" in captured.out
    assert str(log) in captured.err
    assert log.exists()
    from repro.telemetry.core import TELEMETRY

    assert TELEMETRY.enabled is False  # main() restores the default


def test_main_profile_prints_the_ledger_of_its_log(capsys, tmp_path,
                                                    monkeypatch):
    """'profile' records a log without --telemetry, and its report is
    the ledger 'metrics --replay' folds from that log, folded after the
    root span closed so its wall covers the whole run."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    log = tmp_path / "profile.jsonl"
    assert main(["profile", "wc", "--scale", "0.05", "--runs", "1",
                 "--telemetry-log", str(log)]) == 0
    profiled = capsys.readouterr().out
    assert main(["metrics", "--replay", str(log)]) == 0
    replayed = capsys.readouterr().out
    assert profiled == "profile of wc (scale 0.05, 1 runs)\n" + replayed
    lines = replayed.splitlines()
    spans = {line.split()[0]
             for line in lines[2:lines.index(next(
                 line for line in lines if line.startswith("counter ")))]}
    assert {"runner.compile", "runner.vm", "runner.profile",
            "runner.layout", "runner.trace", "runner.cache_store",
            "runner.predict", "runner.expansions",
            "predictors.simulate"} <= spans
    from repro.telemetry.tracing import merge_trace

    (root,) = merge_trace(log).roots
    assert root.name == "cli.profile"
    wall = float(profiled.split("wall_s ")[1].split(",")[0])
    assert wall == pytest.approx(root.duration, abs=1e-6)


def test_main_cache_listing(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["cache"]) == 0
    assert "empty" in capsys.readouterr().out
    main(["table1", "--scale", "0.05", "--runs", "1",
          "--benchmarks", "wc"])
    capsys.readouterr()
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "wc-s0_05-r1" in out
    assert "scale 0.05, 1 runs," in out


def test_main_rejects_target_for_tables():
    with pytest.raises(SystemExit):
        main(["table1", "wc"])


def test_main_conformance_differential_only(capsys):
    exit_code = main(["conformance", "--seeds", "5", "--skip-golden"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "5 seeds x 3 oracles" in out
    assert "zero divergences" in out
    assert "golden tables: skipped" in out
    assert "RESULT: PASS" in out


def test_main_conformance_full(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    exit_code = main(["conformance", "--seeds", "3"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "paper tolerance bands: pass" in out
    assert "golden tables: pass" in out


def test_main_conformance_with_telemetry(capsys, tmp_path, monkeypatch):
    import json as json_module

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    log = tmp_path / "events.jsonl"
    exit_code = main(["conformance", "--seeds", "2", "--skip-golden",
                      "--telemetry", "--telemetry-log", str(log)])
    assert exit_code == 0
    events = [json_module.loads(line)
              for line in log.read_text().splitlines()]
    names = {event.get("name") for event in events}
    assert "conformance.result" in names
    assert "conformance.differential" in names
    from repro.telemetry.core import TELEMETRY

    assert TELEMETRY.enabled is False


def test_main_rejects_nonpositive_scale(capsys):
    exit_code = main(["table1", "--scale", "0", "--no-cache"])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "--scale must be > 0" in err


def test_main_rejects_nonpositive_runs(capsys):
    exit_code = main(["table1", "--runs", "0", "--no-cache"])
    assert exit_code == 2
    assert "--runs must be >= 1" in capsys.readouterr().err


def test_main_rejects_nonpositive_workers(capsys):
    exit_code = main(["table1", "--workers", "0", "--no-cache"])
    assert exit_code == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_main_rejects_parallel_workers_without_cache(capsys):
    exit_code = main(["headline", "--workers", "4", "--no-cache",
                      "--scale", "0.05", "--runs", "1",
                      "--benchmarks", "wc"])
    assert exit_code == 2
    err = capsys.readouterr().err
    assert "--workers 4 needs the trace cache" in err
    assert len(err.strip().splitlines()) == 1


def test_main_rejects_nonpositive_seeds(capsys):
    exit_code = main(["conformance", "--seeds", "0"])
    assert exit_code == 2
    assert "--seeds must be >= 1" in capsys.readouterr().err


def test_main_rejects_nonpositive_limit(capsys):
    exit_code = main(["trace", "--limit", "0", "--no-cache"])
    assert exit_code == 2
    assert "--limit must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table1", "--benchmarks", "nosuch"],
    ["all", "--benchmarks", "wc", "nosuch"],
    ["trace", "nosuch"],
    ["stats", "nosuch"],
    ["profile", "nosuch"],
], ids=["table1", "all", "trace", "stats", "profile"])
def test_main_rejects_unknown_benchmark(capsys, tmp_path, monkeypatch,
                                        argv):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(argv + ["--scale", "0.05", "--runs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "repro-branches: error: unknown benchmark 'nosuch' (have: cccp, "
        "cmp, compress, eqn, espresso, grep, lex, make, tar, tee, wc, "
        "yacc)"]


def test_main_uncreatable_cache_dir_exits_3(capsys, tmp_path,
                                            monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where a directory must go")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
    exit_code = main(["table1", "--scale", "0.05", "--runs", "1",
                      "--benchmarks", "wc"])
    assert exit_code == 3
    err = capsys.readouterr().err
    assert "cannot be created" in err
    assert "--no-cache" in err


def test_main_no_cache_skips_cache_dir_check(capsys, tmp_path,
                                             monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "cache"))
    exit_code = main(["headline", "--scale", "0.05", "--runs", "1",
                      "--no-cache", "--benchmarks", "wc"])
    assert exit_code == 0


@pytest.mark.slow
def test_main_faults_matrix(capsys):
    exit_code = main(["faults", "--seeds", "1"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "Fault-injection recovery matrix" in out
    assert "RESULT: PASS" in out
    for kind in ("torn-write", "bit-flip", "enospc", "worker-crash",
                 "worker-hang", "corrupt-manifest", "tamper"):
        assert kind in out


def test_main_cache_lists_corrupt_entries(capsys, tmp_path,
                                          monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["table1", "--scale", "0.05", "--runs", "1",
                 "--benchmarks", "wc"]) == 0
    manifest = next(tmp_path.glob("wc-*.manifest.json"))
    manifest.write_text("{ torn json")
    capsys.readouterr()
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "(corrupt)" in out


def test_main_cache_lists_stale_not_corrupt(capsys, tmp_path,
                                            monkeypatch):
    """Intact-but-unusable manifests are stale, not corrupt.

    A manifest from a future schema or another cache format version
    is a well-formed file this version cannot use — "corrupt" is
    reserved for torn writes.  Regression: future-schema manifests
    used to be reported corrupt.
    """
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["table1", "--scale", "0.05", "--runs", "1",
                 "--benchmarks", "wc"]) == 0
    manifest = next(tmp_path.glob("wc-*.manifest.json"))
    genuine = json.loads(manifest.read_text())

    def listing():
        capsys.readouterr()
        assert main(["cache"]) == 0
        return capsys.readouterr().out

    # Future manifest schema: loads as JSON, fails to parse.
    manifest.write_text(json.dumps(
        {"manifest_version": 99, "benchmark": "wc"}))
    out = listing()
    assert "(stale)" in out and "(corrupt)" not in out

    # Old cache format version.
    manifest.write_text(json.dumps(
        dict(genuine, format_version=genuine["format_version"] - 1)))
    out = listing()
    assert "(stale)" in out and "(corrupt)" not in out

    # Newer cache format version.
    manifest.write_text(json.dumps(
        dict(genuine, format_version=genuine["format_version"] + 1)))
    out = listing()
    assert "(stale)" in out and "(corrupt)" not in out

    # Older code recorded config.engine; the key no longer matters.
    config = dict(genuine["config"], engine="scalar")
    manifest.write_text(json.dumps(dict(genuine, config=config)))
    out = listing()
    assert "(stale)" not in out and "(corrupt)" not in out

    # The untouched manifest still lists clean.
    manifest.write_text(json.dumps(genuine))
    out = listing()
    assert "(stale)" not in out and "(corrupt)" not in out


# -- faults exit-code contract: 0 recovered, 1 unexpected, 2 invalid ---------


def test_main_faults_rejects_nonpositive_seeds(capsys):
    exit_code = main(["faults", "--seeds", "0"])
    assert exit_code == 2
    assert "--seeds must be >= 1" in capsys.readouterr().err


def test_main_faults_harness_crash_exits_1(capsys, monkeypatch):
    import repro.resilience.harness as harness

    def explode(seeds):
        raise RuntimeError("harness fell over")

    monkeypatch.setattr(harness, "run_fault_matrix", explode)
    exit_code = main(["faults", "--seeds", "1"])
    assert exit_code == 1
    err = capsys.readouterr().err
    assert "unexpected recovery failure" in err
    assert "harness fell over" in err


def test_main_faults_failed_recovery_exits_1(capsys, monkeypatch):
    import repro.resilience.harness as harness

    class FailedReport:
        ok = False

        def render(self):
            return "RESULT: FAIL\n"

        def to_dict(self):
            return {"ok": False}

    monkeypatch.setattr(harness, "run_fault_matrix",
                        lambda seeds: FailedReport())
    exit_code = main(["faults", "--seeds", "1"])
    assert exit_code == 1
    assert "RESULT: FAIL" in capsys.readouterr().out


# -- removed subcommands and options -----------------------------------------


@pytest.mark.parametrize("name", ["serve", "top"])
def test_main_removed_subcommand_is_invalid_choice(capsys, name):
    with pytest.raises(SystemExit) as excinfo:
        main([name])
    assert excinfo.value.code == 2
    assert "invalid choice: '%s'" % name in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table3", "--engine", "vector"],
    ["metrics", "--serve"],
    ["metrics", "--port", "9464"],
    ["table3", "--no-telemetry"],
], ids=["engine", "serve", "port", "no-telemetry"])
def test_removed_option_is_unrecognized(tmp_path, argv):
    """Options with nothing left to choose are gone from the CLI."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    assert "unrecognized arguments: %s" % argv[1] in result.stderr


def test_main_metrics_needs_replay(capsys):
    assert main(["metrics"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "metrics needs --replay" in captured.err


def test_main_metrics_replay_of_a_directory_without_logs(tmp_path, capsys):
    """A shard directory with no ``*.jsonl`` file is a usage error, not
    an empty exposition."""
    (tmp_path / "notes.txt").write_text("not an event log\n")
    assert main(["metrics", "--replay", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "no *.jsonl event log in" in captured.err
