"""Ablation: how much profiling does the Forward Semantic need?

The paper accumulates up to 20 runs per benchmark.  We vary the number
of profiling runs (evaluating on the full suite every time) to see how
quickly the likely bits converge — the practical cost question for a
profile-driven scheme.
"""

from repro.benchmarksuite import compile_benchmark, get_benchmark
from repro.experiments.report import mean
from repro.predictors import ForwardSemanticPredictor, simulate
from repro.profiling import profile_program
from repro.traceopt import build_fs_program
from repro.vm import BranchTrace, run_program

from conftest import bench_scale

NAMES = ("wc", "grep", "cmp", "yacc", "tar")
PROFILE_RUNS = (1, 2, 4)


def _measure(name, scale):
    spec = get_benchmark(name)
    full_suite = spec.input_suite(scale=scale)
    program = compile_benchmark(name)

    accuracies = {}
    for n_runs in PROFILE_RUNS:
        profile, _ = profile_program(program, full_suite[:n_runs])
        layout = build_fs_program(program, profile)
        merged = BranchTrace.concatenate([
            run_program(layout.program, inputs=streams, trace=True).trace
            for streams in full_suite])
        accuracies[n_runs] = simulate(
            ForwardSemanticPredictor(program=layout.program),
            merged).accuracy
    return accuracies


def test_profile_depth_ablation(runner, all_runs, benchmark):
    scale = bench_scale()
    results = benchmark.pedantic(
        lambda: {name: _measure(name, scale) for name in NAMES},
        rounds=1, iterations=1)

    print("\nProfile-depth ablation (FS accuracy on the full suite)")
    print("benchmark " + "".join("%11s" % ("%d run(s)" % n)
                                 for n in PROFILE_RUNS))
    for name, accuracies in results.items():
        print("%-10s" % name
              + "".join("%11.4f" % accuracies[n] for n in PROFILE_RUNS))

    for n_runs in PROFILE_RUNS:
        average = mean(row[n_runs] for row in results.values())
        print("average @%d: %.4f" % (n_runs, average))

    # Accuracy is (weakly) monotone in profile depth on average, and
    # converges fast ONCE every input *mode* has been seen: tar's two
    # modes (create/extract) make its 1-run profile blind to half the
    # program, which is the real coverage requirement — input variety,
    # not volume (the cross-validation ablation shows the same from
    # the other side).
    one_run = mean(row[PROFILE_RUNS[0]] for row in results.values())
    two_runs = mean(row[PROFILE_RUNS[1]] for row in results.values())
    deepest = mean(row[PROFILE_RUNS[-1]] for row in results.values())
    assert deepest >= one_run - 0.01
    assert two_runs >= deepest - 0.01   # converged once modes covered
    tar_rows = results["tar"]
    assert tar_rows[2] > tar_rows[1] - 0.01
    assert tar_rows[2] - tar_rows[1] >= -0.01
