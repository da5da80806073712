"""Ablation: does compiler quality change the schemes' ordering?

The paper's conclusions should not hinge on how clever the compiler
is.  We run a subset of benchmarks with and without the IR optimizer
(jump threading, dead code, peephole, constant folding) in front of
the profiling/layout pipeline, and check that the scheme comparison —
the paper's actual result — is stable even though the code (and its
dynamic instruction count) changes.
"""

from repro.benchmarksuite import compile_benchmark, get_benchmark
from repro.experiments.report import mean
from repro.opt import optimize
from repro.predictors import (
    CounterBTB,
    ForwardSemanticPredictor,
    SimpleBTB,
    simulate,
)
from repro.profiling import profile_program
from repro.traceopt import build_fs_program
from repro.vm import BranchTrace, run_program

from conftest import bench_scale

NAMES = ("wc", "grep", "compress", "yacc", "tee")


def _accuracies(program, suite):
    profile, _ = profile_program(program, suite)
    layout = build_fs_program(program, profile)
    merged = BranchTrace.concatenate([
        run_program(layout.program, inputs=streams, trace=True).trace
        for streams in suite])
    return {
        "SBTB": simulate(SimpleBTB(), merged).accuracy,
        "CBTB": simulate(CounterBTB(), merged).accuracy,
        "FS": simulate(ForwardSemanticPredictor(program=layout.program),
                       merged).accuracy,
        "instructions": merged.total_instructions,
    }


def test_optimizer_ablation(runner, all_runs, benchmark):
    scale = bench_scale()

    def kernel():
        rows = {}
        for name in NAMES:
            spec = get_benchmark(name)
            suite = spec.input_suite(scale=scale, runs=2)
            base = compile_benchmark(name)
            optimized, report = optimize(base)
            rows[name] = (_accuracies(base, suite),
                          _accuracies(optimized, suite),
                          report)
        return rows

    rows = benchmark.pedantic(kernel, rounds=1, iterations=1)

    print("\nOptimizer ablation")
    print("benchmark    base A_FS   opt A_FS   base instr   opt instr   shrink")
    for name, (base, opt, report) in rows.items():
        print("%-10s %10.4f %10.4f %12d %11d %7.1f%%"
              % (name, base["FS"], opt["FS"], base["instructions"],
                 opt["instructions"], 100 * report.shrink_fraction))

    for name, (base, opt, report) in rows.items():
        # The optimizer never slows the program down dynamically.
        assert opt["instructions"] <= base["instructions"], name
        # Accuracies stay in the same neighbourhood (orderings hold on
        # the averages below; per-benchmark jitter is tolerated).
        for scheme in ("SBTB", "CBTB", "FS"):
            assert abs(opt[scheme] - base[scheme]) < 0.06, (name, scheme)

    for variant in (0, 1):
        fs = mean(row[variant]["FS"] for row in rows.values())
        sbtb = mean(row[variant]["SBTB"] for row in rows.values())
        # The paper's ordering survives either compiler.
        assert fs > sbtb
