"""Start-up: each subcommand imports only what it runs.

Every check runs in a fresh interpreter, since this test process has
long since imported the whole package.  The module sets they assert
are what keeps ``cache --json`` (the benchmark's set-up step),
``metrics`` and ``bench-history`` near bare interpreter start-up.  One
test reads a timing: the traced benchmark run must leave no more of
its wall time unclaimed than ``bench/run.py`` allows.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: ``bench/run.py``'s bound on the share of a traced run's wall time
#: that no layer claims, read from its source so the two cannot drift.
MAX_OTHER_SHARE = float(re.search(
    r"^MAX_OTHER_SHARE = ([0-9.]+)$",
    (REPO / "bench" / "run.py").read_text(), re.MULTILINE).group(1))

#: Runs ``python -m repro ARGS`` and, at exit, writes the names of the
#: loaded modules to the file named by the first argument.
_DRIVER = """
import atexit, json, runpy, sys
out = sys.argv[1]
sys.argv = ["repro"] + sys.argv[2:]
atexit.register(
    lambda: open(out, "w").write(json.dumps(sorted(sys.modules))))
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _env(tmp_path):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def _python(tmp_path, *args):
    return subprocess.run([sys.executable, *args], env=_env(tmp_path),
                          capture_output=True, text=True, timeout=300)


def _loaded(modules, *names):
    """The modules of ``modules`` that are ``names`` or inside them."""
    return sorted(module for module in modules
                  if any(module == name or module.startswith(name + ".")
                         for name in names))


def _subcommand_modules(tmp_path, *argv):
    out = tmp_path / "modules.json"
    child = _python(tmp_path, "-c", _DRIVER, str(out), *argv)
    assert child.returncode in (0, 1), child.stderr
    return json.loads(out.read_text())


def test_import_cli_loads_no_numpy_or_compiler(tmp_path):
    child = _python(tmp_path, "-c",
                    "import json, sys, repro.cli; "
                    "print(json.dumps(sorted(sys.modules)))")
    assert child.returncode == 0, child.stderr
    modules = json.loads(child.stdout)
    assert "repro.cli" in modules
    assert _loaded(modules, "numpy", "repro.kernels", "repro.lang",
                   "repro.vm") == []


def _telemetry_log(path):
    events = [
        {"type": "span", "name": "runner.vm", "span_id": "p1-2",
         "parent_span_id": "p1-1", "duration_s": 1.5, "ts": 2.0},
        {"type": "span", "name": "cli.table3", "span_id": "p1-1",
         "parent_span_id": None, "duration_s": 2.5, "ts": 2.5},
    ]
    path.write_text("".join(json.dumps(dict(event, trace_id="t" * 16))
                            + "\n" for event in events))
    return path


@pytest.mark.parametrize("argv", [
    ("cache", "--json"),
    ("metrics", "--replay", "LOG"),
    ("bench-history",),
], ids=lambda argv: argv[0])
def test_subcommand_loads_no_numpy(tmp_path, argv):
    log = _telemetry_log(tmp_path / "telemetry.jsonl")
    argv = [str(log) if arg == "LOG" else arg for arg in argv]
    modules = _subcommand_modules(tmp_path, *argv)
    assert "repro.cli" in modules
    assert _loaded(modules, "numpy", "repro.lang") == []


def test_lint_loads_no_kernels(tmp_path):
    modules = _subcommand_modules(tmp_path, "lint", "--benchmarks", "wc")
    assert "repro.analysis.diagnostics" in modules
    assert _loaded(modules, "repro.kernels") == []


@pytest.mark.parametrize("package", [
    "repro", "repro.experiments", "repro.resilience", "repro.telemetry",
    "repro.characterize"])
def test_lazy_names_resolve_and_are_listed(tmp_path, package):
    child = _python(tmp_path, "-c",
                    "import importlib, json, sys\n"
                    "package = importlib.import_module(sys.argv[1])\n"
                    "listed = dir(package)\n"
                    "resolved = {name: getattr(package, name) is not None\n"
                    "            for name in package.__all__}\n"
                    "print(json.dumps([package.__all__, listed, resolved]))",
                    package)
    assert child.returncode == 0, child.stderr
    names, listed, resolved = json.loads(child.stdout)
    assert names and set(names) <= set(listed)
    assert resolved == {name: True for name in names}


def test_unknown_lazy_name_is_an_attribute_error():
    import repro

    assert not hasattr(repro, "no_such_name")


def test_traced_bench_run_reaches_the_lazily_imported_handlers(tmp_path):
    """``bench/traced.py`` wraps the callables of the modules loaded
    before ``cli.main``; the handlers import theirs later and must
    still call the wrapped ones."""
    ledger_path = tmp_path / "ledger.json"
    child = _python(tmp_path, str(REPO / "bench" / "traced.py"),
                    str(ledger_path), "--", "table1", "--scale", "0.02",
                    "--no-cache", "--workers", "1")
    assert child.returncode == 0, child.stderr
    assert "Table 1" in child.stdout
    ledger = json.loads(ledger_path.read_text())
    metrics = ledger["metrics"]
    assert metrics["lang.compile_s"] > 0
    assert metrics["experiments.render_s.table1"] > 0
    assert metrics["vm.instructions"] > 0
    assert metrics["other_s"] <= MAX_OTHER_SHARE * ledger["wall_s"]
    assert sorted(path.name for path in tmp_path.iterdir()) \
        == ["ledger.json"]
