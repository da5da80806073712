"""Performance benchmarks of the simulation infrastructure itself.

Not a paper experiment: these keep the reproduction usable by tracking
the throughput of the VM interpreter, the predictor simulators (the
scalar loop and the vector kernels), and the FS compiler passes — the
costs that gate paper-scale runs.

The ``test_kernel_*`` tests are the **perf-regression gate**: they
fail when the vector kernels lose bit identity with their references,
when the headline speedup drops below its floor, or when vector
throughput regresses more than 25% against the committed
``BENCH_kernels.json`` baseline at the repo root.  The gate never
writes into the tree: on teardown the fresh scalar-vs-vector
measurements go to ``bench/BENCH_kernels.json`` under the trace cache
directory (``REPRO_CACHE_DIR``, default ``.repro_cache/``), and a
deliberate baseline refresh copies that file over the committed one.
  ``test_vm_compiled_speedup`` gates the compiled-block VM against
  the reference interpreter the same way, and
  ``test_flush_tournament_speedup`` the flush-epoch and tournament
  kernels against the scalar loop.  ``scripts/check.sh`` runs them
  with ``-k "kernel or compiled_speedup or flush_tournament_speedup"``;
  they use plain ``time.perf_counter`` so they work standalone,
  without the pytest-benchmark fixture.
"""

import json
import time
from pathlib import Path

import pytest

from repro.benchmarksuite import compile_benchmark, get_benchmark
from repro.cfg import ControlFlowGraph
from repro.kernels import simulate_vector
from repro.predictors import (
    CounterBTB,
    ForwardSemanticPredictor,
    SimpleBTB,
    Tournament,
    simulate_scalar,
)
from repro.experiments.runner import default_cache_dir
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.profiling import profile_program
from repro.vm import Machine

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: Vector throughput may drop to this fraction of the committed
#: baseline before the gate fails.
_REGRESSION_FLOOR = 0.75

#: Minimum aggregate vector-over-scalar speedup on the headline
#: workload (all three paper schemes over the largest cached trace).
#: Raised from 5x once nothing on the headline path looped in the
#: interpreter: the paper's 256-entry buffers never reach the
#: per-record eviction replay.
_SPEEDUP_FLOOR = 25.0

#: Per-scheme speedup floors on the same workload.  CBTB is the
#: slowest scheme (counter scan + write tracking + eviction screen),
#: so it gets its own floor; the others are covered by the headline.
_SCHEME_FLOORS = {"CBTB": 15.0}

#: Kernel measurements; written to bench/BENCH_kernels.json under the
#: trace cache directory on teardown.
_KERNEL_REPORT = {"workload": {}, "schemes": {}, "headline": {}}


@pytest.fixture(scope="module", autouse=True)
def _write_fresh_kernel_numbers():
    yield
    if _KERNEL_REPORT["schemes"]:
        path = default_cache_dir() / "bench" / "BENCH_kernels.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_KERNEL_REPORT, indent=2,
                                   sort_keys=True) + "\n")


def test_vm_throughput(benchmark):
    """Instructions per second of the interpreter on compress."""
    program = compile_benchmark("compress")
    spec = get_benchmark("compress")
    streams = spec.inputs_for_run(0, scale=0.1)

    def run():
        return Machine(program, inputs=streams).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    rate = result.instructions / benchmark.stats.stats.mean
    print("\nVM throughput: %.0f instructions/second "
          "(%d instructions per run)" % (rate, result.instructions))
    assert rate > 100_000  # the floor that keeps paper-scale runs sane


#: Minimum speed of the compiled-block VM over the reference
#: interpreter on traced runs of compress (scale 0.1).  Both paths
#: are timed alternately in one process, so host load moves both.
_VM_COMPILED_FLOOR = 1.8


def test_vm_compiled_speedup():
    """Paired gate: ``Machine.run`` (compiled blocks) against
    ``Machine._run`` (the reference) on traced runs of compress: its
    base program with leader probes and its FS layout."""
    program = compile_benchmark("compress")
    suite = get_benchmark("compress").input_suite(scale=0.1)
    cfg = ControlFlowGraph.from_program(program)
    profile, _ = profile_program(program, suite)
    layout = build_fs_program(program, profile)
    machines = [Machine(program, inputs=streams, trace=True,
                        probe_addresses=cfg.leaders) for streams in suite]
    machines += [Machine(layout.program, inputs=streams, trace=True)
                 for streams in suite]

    def timed(run):
        start = time.perf_counter()
        for machine in machines:
            run(machine)
        return time.perf_counter() - start

    compiled = reference = float("inf")
    for _ in range(3):
        compiled = min(compiled, timed(Machine.run))
        reference = min(reference, timed(Machine._run))
    ratio = reference / compiled
    print("\nVM runs: reference %.3fs, compiled %.3fs (%.2fx)"
          % (reference, compiled, ratio))
    assert ratio >= _VM_COMPILED_FLOOR


def test_vm_tracing_overhead(benchmark):
    """Tracing must not cost more than ~2x plain execution."""
    program = compile_benchmark("wc")
    spec = get_benchmark("wc")
    streams = spec.inputs_for_run(0, scale=0.1)

    import time
    start = time.perf_counter()
    Machine(program, inputs=streams).run()
    plain = time.perf_counter() - start

    def traced():
        return Machine(program, inputs=streams, trace=True).run()

    result = benchmark.pedantic(traced, rounds=3, iterations=1)
    traced_time = benchmark.stats.stats.min
    print("\nplain %.4fs vs traced %.4fs" % (plain, traced_time))
    assert result.trace is not None
    assert traced_time < plain * 3 + 0.05


def test_predictor_throughput(benchmark, runner, all_runs):
    """Branch records per second through the SBTB + CBTB simulators.

    Runs the scalar loop: the rate floor measures the per-record loop,
    not the kernels — those have their own gate below.
    """
    largest = max(all_runs.values(), key=lambda run: len(run.trace))

    def run():
        simulate_scalar(SimpleBTB(), largest.trace)
        simulate_scalar(CounterBTB(), largest.trace)

    benchmark.pedantic(run, rounds=3, iterations=1)
    rate = 2 * len(largest.trace) / benchmark.stats.stats.mean
    print("\npredictor throughput: %.0f records/second" % rate)
    assert rate > 50_000


# -- the kernel perf-regression gate -------------------------------------


def _headline_schemes(run):
    """The paper's three schemes over one benchmark's trace."""
    return [
        ("SBTB", lambda: SimpleBTB()),
        ("CBTB", lambda: CounterBTB()),
        ("FS", lambda: ForwardSemanticPredictor(
            program=run.fs_program)),
    ]


def _time_engine(simulate_path, make_predictor, trace, rounds):
    """Best-of-``rounds`` wall clock of ``simulate_path`` (the scalar
    loop or the vector kernels) plus the stats it produced."""
    stats = simulate_path(make_predictor(), trace)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        simulate_path(make_predictor(), trace)
        best = min(best, time.perf_counter() - start)
    return best, stats


def test_kernel_engines_match_and_speed_up(all_runs):
    """Scalar/vector mismatch gate plus the headline speedup floor.

    Measures every headline scheme on the largest cached trace with
    both paths.  Fails if any scheme's stats differ between the
    paths (bit identity is the kernels' contract) or if the
    aggregate speedup falls below ``_SPEEDUP_FLOOR``.  The teardown
    fixture writes the numbers under the trace cache directory.
    """
    name, run = max(all_runs.items(), key=lambda kv: len(kv[1].trace))
    trace = run.trace
    _KERNEL_REPORT["workload"] = {
        "benchmark": name,
        "records": len(trace),
    }

    scalar_total = vector_total = 0.0
    for scheme, make_predictor in _headline_schemes(run):
        scalar_time, scalar_stats = _time_engine(
            simulate_scalar, make_predictor, trace, rounds=2)
        vector_time, vector_stats = _time_engine(
            simulate_vector, make_predictor, trace, rounds=5)
        assert scalar_stats == vector_stats, (
            "%s: paths disagree on %s\n  scalar: %r\n  vector: %r"
            % (scheme, name, scalar_stats.as_dict(),
               vector_stats.as_dict()))
        scalar_total += scalar_time
        vector_total += vector_time
        _KERNEL_REPORT["schemes"][scheme] = {
            "scalar_records_per_second": len(trace) / scalar_time,
            "vector_records_per_second": len(trace) / vector_time,
            "speedup": scalar_time / vector_time,
        }
        floor = _SCHEME_FLOORS.get(scheme)
        assert floor is None or scalar_time / vector_time >= floor, (
            "%s kernel only %.2fx faster than scalar on %s "
            "(per-scheme floor %.1fx)"
            % (scheme, scalar_time / vector_time, name, floor))

    records = 3 * len(trace)
    speedup = scalar_total / vector_total
    _KERNEL_REPORT["headline"] = {
        "scalar_records_per_second": records / scalar_total,
        "vector_records_per_second": records / vector_total,
        "speedup": speedup,
    }
    print("\nkernel headline: %.0f scalar vs %.0f vector records/s "
          "(%.1fx)" % (records / scalar_total, records / vector_total,
                       speedup))
    assert speedup >= _SPEEDUP_FLOOR, (
        "vector kernels only %.2fx faster than scalar on %s "
        "(floor %.1fx)" % (speedup, name, _SPEEDUP_FLOOR))


#: Minimum speed of the kernels over the scalar loop on the runs that
#: need flush epochs or the tournament kernel (compress, scale 0.1).
#: Both paths are timed alternately in one process.
_FLUSH_TOURNAMENT_FLOOR = 4.0


def test_flush_tournament_speedup(all_runs):
    """Paired gate: ``simulate_vector`` against ``simulate_scalar`` on
    SBTB and CBTB with ``flush_interval=5000`` and on the default
    Tournament; fails on any stats mismatch or under the floor."""
    trace = all_runs["compress"].trace
    runs = ((SimpleBTB, {"flush_interval": 5_000}),
            (CounterBTB, {"flush_interval": 5_000}),
            (Tournament, {}))

    def timed(simulate_path):
        start = time.perf_counter()
        stats = [simulate_path(make(), trace, **kwargs)
                 for make, kwargs in runs]
        return time.perf_counter() - start, stats

    scalar = vector = float("inf")
    for _ in range(3):
        elapsed, scalar_stats = timed(simulate_scalar)
        scalar = min(scalar, elapsed)
        elapsed, vector_stats = timed(simulate_vector)
        vector = min(vector, elapsed)
        assert scalar_stats == vector_stats
    ratio = scalar / vector
    print("\nflush + tournament: scalar %.3fs, vector %.3fs (%.1fx)"
          % (scalar, vector, ratio))
    assert ratio >= _FLUSH_TOURNAMENT_FLOOR


def _committed_kernels_baseline():
    """The committed ``BENCH_kernels.json`` at the repo root; skips
    the calling gate when there is no baseline or it was measured on
    another workload (rates are only comparable on
    the same record count, so a different ``REPRO_BENCH_SCALE`` skips
    too)."""
    baseline_path = _REPO_ROOT / "BENCH_kernels.json"
    if not baseline_path.exists():
        pytest.skip("no committed BENCH_kernels.json baseline yet")
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("workload") != _KERNEL_REPORT["workload"]:
        pytest.skip("workload changed: %r vs %r — rates not comparable"
                    % (baseline.get("workload"),
                       _KERNEL_REPORT["workload"]))
    return baseline


def _assert_no_regression(label, old, new):
    print("\n%s regression gate: %.0f baseline vs %.0f current "
          "records/s (%.2fx)" % (label, old, new, new / old))
    assert new >= _REGRESSION_FLOOR * old, (
        "%s throughput regressed %.0f%% against the committed "
        "baseline (%.0f -> %.0f records/s; floor is %d%%)"
        % (label, 100 * (1 - new / old), old, new,
           100 * _REGRESSION_FLOOR))


def test_kernel_throughput_regression_gate(all_runs):
    """Fail when vector throughput regresses >25% vs the baseline.

    Compares against the committed ``BENCH_kernels.json`` baseline.
    """
    if not _KERNEL_REPORT["headline"]:
        pytest.skip("speedup test did not run; nothing to compare")
    baseline = _committed_kernels_baseline()
    _assert_no_regression(
        "kernel", baseline["headline"]["vector_records_per_second"],
        _KERNEL_REPORT["headline"]["vector_records_per_second"])


def test_kernel_cycle_sim_speedup(all_runs):
    """Bit-identity and throughput gate for the cycle simulator.

    Runs ``CycleSimulator`` (always the batch cycle kernel) on the
    largest cached trace with CBTB — the heaviest kernel feeding it —
    and checks every field against ``OracleCycleInterpreter`` driving
    the same predictor record by record.  Fails when its rate drops
    below ``_REGRESSION_FLOOR`` of the committed
    ``schemes.cycle_sim.vector_records_per_second``; the fresh
    measurement is written under ``schemes.cycle_sim``.
    """
    from repro.conformance.oracles import OracleCycleInterpreter
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.cycle_sim import CycleSimulator

    name, run = max(all_runs.items(), key=lambda kv: len(kv[1].trace))
    trace = run.trace
    _KERNEL_REPORT["workload"] = {
        "benchmark": name,
        "records": len(trace),
    }
    config = PipelineConfig(k=1, l=1, m=2)

    stats = CycleSimulator(config, CounterBTB()).run(trace)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        CycleSimulator(config, CounterBTB()).run(trace)
        best = min(best, time.perf_counter() - start)
    rate = len(trace) / best

    reference = OracleCycleInterpreter(config, CounterBTB()).run(trace)
    for field in ("cycles", "instructions", "branches",
                  "squashed_cycles", "mispredictions", "fill_cycles"):
        assert getattr(stats, field) == getattr(reference, field), field
    assert dict(stats.squashed_by_class) == reference.squashed_by_class

    _KERNEL_REPORT["schemes"]["cycle_sim"] = {
        "vector_records_per_second": rate,
    }
    print("\ncycle sim: %.3fs (%.0f records/s) on %s"
          % (best, rate, name))
    baseline = _committed_kernels_baseline()
    _assert_no_regression(
        "cycle sim",
        baseline["schemes"]["cycle_sim"]["vector_records_per_second"],
        rate)


def test_fs_compile_pipeline_latency(benchmark):
    """Profile + layout + slot filling end to end on one benchmark."""
    program = compile_benchmark("yacc")
    spec = get_benchmark("yacc")
    suite = spec.input_suite(scale=0.05, runs=2)

    def pipeline():
        profile, _ = profile_program(program, suite)
        layout = build_fs_program(program, profile)
        return fill_forward_slots(layout.program, 4)

    expanded, report = benchmark.pedantic(pipeline, rounds=3, iterations=1)
    assert report.expanded_size > 0


def test_cycle_sim_throughput(benchmark, all_runs):
    """Branch records per second through the cycle-level simulator."""
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.cycle_sim import CycleSimulator

    largest = max(all_runs.values(), key=lambda run: len(run.trace))
    config = PipelineConfig(k=1, l=1, m=2)

    def run():
        return CycleSimulator(config, CounterBTB()).run(largest.trace)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    rate = len(largest.trace) / benchmark.stats.stats.mean
    print("\ncycle sim throughput: %.0f records/second" % rate)
    assert stats.cycles > stats.instructions


def test_pipeline_stage_telemetry(runner):
    """A telemetry-enabled run exposes stage spans and key counters."""
    from repro.telemetry.core import TELEMETRY
    from repro.telemetry.sinks import InMemoryAggregator

    sink = InMemoryAggregator()
    TELEMETRY.enable(sink)
    try:
        run = runner.run("wc")
        run.predictions()
    finally:
        TELEMETRY.disable()

    snapshot = TELEMETRY.snapshot()
    TELEMETRY.reset()
    assert (TELEMETRY.counter_value("runner.cache.hit") == 0)  # reset
    assert snapshot["counters"].get("predictor.records", 0) > 0
    assert any(event["name"].startswith("runner.")
               for event in sink.of_type("span"))
    assert sink.named("predictors.simulate")
