"""Profile-free prediction quality: static vs measured profiles.

Renders the agreement of the Ball-Larus/Wu-Larus static predictor
with the measured profiles the paper's software schemes normally use:
per-benchmark execution-weighted direction and taken-rate agreement,
plus pooled per-heuristic hit rates.  Run it with

    repro-branches staticpred

The measured side reuses the runner's cached profiles, so the only
extra work is the (cheap) static analysis.
"""

from repro.analysis.dataflow import FlowGraph
from repro.analysis.staticpred import compare_to_profile, predict_branches
from repro.experiments.report import TableData, render_table


def compute(runner, names=None):
    """(per-benchmark TableData, per-heuristic TableData, overall)."""
    from repro.analysis.staticpred.evaluate import AgreementReport
    from repro.benchmarksuite import BENCHMARK_NAMES

    names = names or BENCHMARK_NAMES
    rows = []
    pooled = []
    for name in names:
        run = runner.run(name)
        report = compare_to_profile(
            run.program, run.profile, name,
            predict_branches(FlowGraph.from_program(run.program)))
        pooled.extend(report.sites)
        rows.append([
            name,
            len(report.sites),
            report.total_execs,
            round(100.0 * report.direction_agreement, 1),
            round(100.0 * report.taken_rate_agreement, 1),
        ])
    overall = AgreementReport("overall", pooled)
    rows.append([
        "overall",
        len(overall.sites),
        overall.total_execs,
        round(100.0 * overall.direction_agreement, 1),
        round(100.0 * overall.taken_rate_agreement, 1),
    ])
    benchmarks = TableData(
        "Static prediction vs measured profiles "
        "(execution-weighted agreement)",
        ["Benchmark", "Sites", "Execs", "Direction%", "TakenRate%"],
        rows,
        notes=[
            "Direction%: predicted direction matches the measured "
            "majority direction",
            "TakenRate%: 100 * (1 - |p_static - p_measured|); the "
            "profile-free gate needs overall >= 70",
        ],
    )

    heuristic_rows = [
        [heuristic, sites, round(100.0 * rate, 1)]
        for heuristic, (sites, rate)
        in overall.heuristic_hit_rates().items()
    ]
    heuristics = TableData(
        "Per-heuristic hit rates (pooled over the suite)",
        ["Heuristic", "Sites", "Hit%"],
        heuristic_rows,
        notes=["hit: the heuristic's vote matches the measured "
               "majority direction, weighted by executions"],
    )
    return benchmarks, heuristics, overall


def render(runner, names=None):
    benchmarks, heuristics, _ = compute(runner, names)
    return render_table(benchmarks) + "\n" + render_table(heuristics)
