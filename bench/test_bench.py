"""Checks of the benchmark itself: ``python -m pytest bench/``.

Not part of the tier-1 suite (``testpaths`` is ``tests``).  One
``bench/run.py --smoke`` run, about 90 seconds on a 2-core host, feeds
the first two tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def smoke():
    """(result line, results.json) of one smoke run of every workload."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert completed.returncode == 0, (completed.stdout[-3000:]
                                       + completed.stderr[-3000:])
    lines = completed.stdout.strip().splitlines()
    results_path = ROOT / lines[-2].split(": ", 1)[1]
    return json.loads(lines[-1]), json.loads(results_path.read_text())


def test_every_benchmark_metric_is_emitted(smoke):
    line, _ = smoke
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = run.workloads(smoke=True)
    assert {workload["name"] for workload in spec["workloads"]} <= set(
        workloads)
    entries = spec["end_to_end"] + spec["per_layer"]
    expected = {"%s.%s" % (workload, entry["name"]): entry["unit"]
                for workload in workloads for entry in entries}
    assert {name: metric["unit"] for name, metric in
            line["metrics"].items()} == expected
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(workloads)


def test_traced_runs_pass_the_accounting_check(smoke):
    _, results = smoke
    for name, result in results["workloads"].items():
        traced = result["traced"]
        assert traced["problems"] == [], name
        assert (traced["metrics"]["other_s"]
                <= run.MAX_OTHER_SHARE * traced["wall_s"]), name
        assert "trace_overhead" in traced["metrics"], name


def test_wrong_digest_counts_as_failure(tmp_path):
    workload = run.workloads(smoke=True)["conformance-full"]
    rep = run.run_rep(workload, tmp_path / "rep", run.source_key(),
                      expected="0" * 64)
    assert rep.child.status == 0
    assert rep.failed
    assert rep.problems[0].startswith("stdout sha256")
    result = run.untraced_result([rep])
    assert result["failed"] == 1 and result["fail_rate"] == 1.0
