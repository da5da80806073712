"""Extension: superblock formation — the IMPACT group's next move.

Tail duplication removes side entrances from traces; each duplicated
branch site can then take a likely bit specialised to its entry
context — compile-time context sensitivity, the software analogue of
the history bits hardware grew in the 1990s.

Measured here: FS accuracy on the plain layout vs on re-profiled
superblock code, against the code growth duplication costs.
"""

from repro.benchmarksuite import compile_benchmark, get_benchmark
from repro.experiments.report import mean
from repro.predictors import ForwardSemanticPredictor, simulate
from repro.profiling import profile_program
from repro.traceopt import (
    build_fs_program,
    form_superblocks,
    reassign_likely_bits,
)
from repro.vm import BranchTrace, run_program

from conftest import bench_scale

NAMES = ("wc", "grep", "make", "yacc", "compress", "cccp")


def _fs_accuracy(program, suite):
    merged = BranchTrace.concatenate([
        run_program(program, inputs=streams, trace=True).trace
        for streams in suite])
    return simulate(ForwardSemanticPredictor(program=program),
                    merged).accuracy


def _measure(name, scale):
    spec = get_benchmark(name)
    suite = spec.input_suite(scale=scale, runs=2)
    program = compile_benchmark(name)
    profile, _ = profile_program(program, suite)
    layout = build_fs_program(program, profile)

    base_accuracy = _fs_accuracy(layout.program, suite)

    superblock, report = form_superblocks(layout.program,
                                          layout.trace_spans)
    re_profile, _ = profile_program(superblock, suite)
    specialised, changed = reassign_likely_bits(superblock, re_profile)
    super_accuracy = _fs_accuracy(specialised, suite)

    return (base_accuracy, super_accuracy, report.growth_fraction,
            report.side_entrances, changed)


def test_superblock_extension(runner, all_runs, benchmark):
    scale = bench_scale()
    results = benchmark.pedantic(
        lambda: {name: _measure(name, scale) for name in NAMES},
        rounds=1, iterations=1)

    print("\nsuperblock extension (FS accuracy)")
    print("benchmark     layout   superblock   growth   entrances  "
          "respecialised bits")
    for name, (base, superblock, growth, entrances, changed) \
            in results.items():
        print("%-10s  %7.4f   %9.4f  %6.1f%%  %9d  %12d"
              % (name, base, superblock, 100 * growth, entrances,
                 changed))

    base_avg = mean(row[0] for row in results.values())
    super_avg = mean(row[1] for row in results.values())
    print("average: layout %.4f, superblock %.4f" % (base_avg, super_avg))

    for name, (base, superblock, growth, entrances, _) in results.items():
        # Duplication never wrecks prediction and stays within its cap.
        assert superblock >= base - 0.01, name
        assert growth <= 0.55, name
    # On average, context specialisation does not hurt and usually
    # helps a little.
    assert super_avg >= base_avg - 0.002
