"""Tests for deterministic fault injection and the recovery matrix."""

import numpy as np
import pytest

from repro.resilience.faults import (
    FAULT_KINDS,
    FAULTS,
    PLAN_ENV_VAR,
    Fault,
    FaultInjector,
    FaultPlan,
)
from repro.resilience.harness import run_fault_matrix
from repro.telemetry.core import TELEMETRY
from repro.telemetry.sinks import InMemoryAggregator


@pytest.fixture(autouse=True)
def sink():
    aggregator = InMemoryAggregator()
    TELEMETRY.enable(aggregator)
    yield aggregator
    TELEMETRY.disable()
    TELEMETRY.reset()


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        Fault("cosmic-ray")


def test_single_plan_is_deterministic():
    for kind in FAULT_KINDS:
        one = FaultPlan.single(kind, seed=3)
        two = FaultPlan.single(kind, seed=3)
        assert one.faults[0].at == two.faults[0].at
        assert one.faults[0].param == two.faults[0].param


def test_seeds_vary_the_damage():
    params = {FaultPlan.single("bit-flip", seed=s).faults[0].param
              for s in range(20)}
    assert len(params) > 10


def test_worker_faults_always_hit_first_attempt():
    for kind in ("worker-crash", "worker-hang"):
        for seed in range(10):
            assert FaultPlan.single(kind, seed=seed).faults[0].at == 1


def test_plan_json_roundtrip():
    plan = FaultPlan([fault for kind in FAULT_KINDS
                      for fault in FaultPlan.single(kind, seed=7).faults],
                     seed=7)
    copy = FaultPlan.from_json(plan.to_json())
    assert copy.seed == 7
    assert [f.to_dict() for f in copy.faults] \
        == [f.to_dict() for f in plan.faults]
    assert {f.kind for f in copy.faults} == set(FAULT_KINDS)


def test_injector_disabled_by_default():
    assert FAULTS.enabled is False
    assert FAULTS.plan is None


def test_arm_disarm_lifecycle(tmp_path):
    injector = FaultInjector()
    injector.arm(FaultPlan([Fault("enospc", at=2)]))
    assert injector.enabled
    injector.on_write(tmp_path / "first")       # at=2: no fire yet
    with pytest.raises(OSError):
        injector.on_write(tmp_path / "second")
    # Each fault fires at most once.
    injector.on_write(tmp_path / "third")
    injector.disarm()
    assert not injector.enabled and injector.plan is None


def test_activate_from_env(tmp_path):
    injector = FaultInjector()
    environ = {}
    assert injector.activate_from_env(environ) is False
    environ[PLAN_ENV_VAR] = FaultPlan.single("bit-flip", seed=1).to_json()
    assert injector.activate_from_env(environ) is True
    assert injector.plan.faults[0].kind == "bit-flip"


def test_commit_faults_damage_the_file(tmp_path, sink):
    injector = FaultInjector()
    path = tmp_path / "a.bin"
    path.write_bytes(b"A" * 100)
    injector.arm(FaultPlan([Fault("torn-write", at=1, param=0.5)]))
    injector._write_count = 1
    injector.on_commit(path)
    assert len(path.read_bytes()) == 50
    events = sink.named("fault.injected")
    assert events and events[0]["kind"] == "torn-write"


def test_manifest_faults_count_manifests_only(tmp_path):
    injector = FaultInjector()
    injector.arm(FaultPlan([Fault("corrupt-manifest", at=1)]))
    ordinary = tmp_path / "a.npz"
    ordinary.write_bytes(b"data")
    injector._write_count = 5
    injector.on_commit(ordinary)        # not a manifest: no fire
    assert ordinary.read_bytes() == b"data"
    manifest = tmp_path / "wc.manifest.json"
    manifest.write_text('{"manifest_version": 2}')
    injector.on_commit(manifest)
    assert b"torn json" in manifest.read_bytes()


def test_tamper_keeps_the_checksum_and_breaks_a_trace_check(tmp_path):
    """The tampered trace passes its recorded checksum, so only the
    trace's own semantic checks can catch it."""
    from repro.experiments.runner import SuiteRunner
    from repro.resilience.store import verify_checksum
    from repro.telemetry.manifest import RunManifest, manifest_path_for
    from repro.vm.tracing import BranchTrace

    SuiteRunner(scale=0.02, runs=1, cache_dir=tmp_path).run("wc")
    (trace_path,) = tmp_path.glob("*.npz")
    manifest_path = manifest_path_for(trace_path)
    for param in (0.1, 0.5, 0.9):       # one per out-of-range variant
        injector = FaultInjector()
        injector.arm(FaultPlan([Fault("tamper", at=1, param=param)]))
        injector.on_commit(manifest_path)
        manifest = RunManifest.load(manifest_path)
        assert verify_checksum(trace_path, manifest.checksums["trace"])
        with np.load(trace_path) as arrays:
            with pytest.raises(ValueError):
                BranchTrace.from_arrays(arrays)
        SuiteRunner(scale=0.02, runs=1, cache_dir=tmp_path).run("wc")


def test_bit_flip_changes_exactly_one_byte(tmp_path):
    injector = FaultInjector()
    path = tmp_path / "a.bin"
    original = bytes(range(200))
    path.write_bytes(original)
    injector.arm(FaultPlan([Fault("bit-flip", at=1, param=0.25)]))
    injector._write_count = 1
    injector.on_commit(path)
    damaged = path.read_bytes()
    assert len(damaged) == len(original)
    differing = [i for i in range(len(original))
                 if damaged[i] != original[i]]
    assert len(differing) == 1


@pytest.mark.slow
def test_fault_matrix_one_seed_all_kinds(tmp_path):
    report = run_fault_matrix(seeds=1, base_dir=str(tmp_path))
    assert len(report.cases) == len(FAULT_KINDS)
    assert report.ok, report.render()
    text = report.render()
    assert "RESULT: PASS" in text
    for kind in FAULT_KINDS:
        assert kind in text
    data = report.to_dict()
    assert data["ok"] is True
    assert len(data["cases"]) == len(FAULT_KINDS)


def test_fault_matrix_leaves_registry_aggregates_alone(tmp_path):
    """The matrix records into private tables, not the process's, and
    puts back the trace context that enabling it installs."""
    from repro.telemetry.core import TELEMETRY

    TELEMETRY.disable().reset()     # as in a run without --telemetry
    report = run_fault_matrix(seeds=1, kinds=("enospc",),
                              base_dir=str(tmp_path))
    assert report.ok, report.render()
    assert TELEMETRY.counter_value("vm.runs") == 0
    assert not TELEMETRY.enabled and TELEMETRY.trace is None


def test_fault_matrix_report_fails_on_swallow():
    from repro.resilience.harness import FaultCase, FaultMatrixReport

    report = FaultMatrixReport(1, ("bit-flip",))
    report.cases.append(FaultCase("bit-flip", 0, "quarantined", False,
                                  "injected=False", ()))
    assert not report.ok
    assert report.swallowed
    assert "SILENT SWALLOWS" in report.render()
    assert "RESULT: FAIL" in report.render()


def test_empty_matrix_is_not_ok():
    from repro.resilience.harness import FaultMatrixReport

    assert not FaultMatrixReport(0, FAULT_KINDS).ok


def test_fault_matrix_defaults_to_fault_kinds(tmp_path):
    report = run_fault_matrix(seeds=0, base_dir=str(tmp_path))
    assert report.kinds == FAULT_KINDS
    assert len(FAULT_KINDS) == 7
