"""Ablation: inlining and the dynamic branch mix.

The IMPACT compiler inlined aggressively, which shifts the branch mix
away from calls/returns toward conditional branches.  We inline the
suite's small leaf functions and measure what moves: the control
fraction, the unconditional share, and each scheme's accuracy.
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

NAMES = ("wc", "grep", "cccp", "make", "espresso")


def _measure(program, suite):
    profile, _ = profile_program(program, suite)
    layout = build_fs_program(program, profile)
    merged = BranchTrace.concatenate([
        run_program(layout.program, inputs=streams, trace=True).trace
        for streams in suite])
    stats = merged.stats()
    return {
        "instructions": merged.total_instructions,
        "branches": stats.branches,
        "uncond_share": stats.unconditional / max(1, stats.branches),
        "A_SBTB": simulate(SimpleBTB(), merged).accuracy,
        "A_CBTB": simulate(CounterBTB(), merged).accuracy,
        "A_FS": simulate(
            ForwardSemanticPredictor(program=layout.program),
            merged).accuracy,
    }


def test_inlining_ablation(runner, all_runs, benchmark):
    scale = bench_scale()

    def kernel():
        rows = {}
        for name in NAMES:
            spec = get_benchmark(name)
            suite = spec.input_suite(scale=scale, runs=2)
            base = compile_benchmark(name)
            inlined, _ = optimize(base, inline=True)
            rows[name] = (_measure(base, suite), _measure(inlined, suite))
        return rows

    rows = benchmark.pedantic(kernel, rounds=1, iterations=1)

    print("\nInlining ablation")
    print("benchmark    dyn instr (base -> inlined)   uncond share   A_FS")
    for name, (base, inlined) in rows.items():
        print("%-10s %12d -> %-12d %7.1f%% -> %5.1f%%  %.4f -> %.4f"
              % (name, base["instructions"], inlined["instructions"],
                 100 * base["uncond_share"], 100 * inlined["uncond_share"],
                 base["A_FS"], inlined["A_FS"]))

    for name, (base, inlined) in rows.items():
        # Inlining never increases dynamic instructions (the removed
        # CALL/RET pairs pay for the argument MOVs).
        assert inlined["instructions"] <= base["instructions"] * 1.01, name
        # The unconditional (call/return) share shrinks or holds.
        assert inlined["uncond_share"] <= base["uncond_share"] + 0.01, name

    # The scheme comparison survives inlining.
    fs = mean(row[1]["A_FS"] for row in rows.values())
    sbtb = mean(row[1]["A_SBTB"] for row in rows.values())
    assert fs > sbtb
