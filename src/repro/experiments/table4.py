"""Table 4: branch cost for k + l_bar = 2 and 3, m_bar = 1.

Computed exactly as the paper computes it: the cost equation applied
to each benchmark's measured accuracy per scheme.
"""

from repro.experiments import paper_values
from repro.experiments.report import TableData, mean, std_dev
from repro.pipeline import branch_cost

SCHEMES = ("SBTB", "CBTB", "FS")


def costs_for(run, k_plus_l_bar, m_bar=1.0):
    """(SBTB, CBTB, FS) costs for one benchmark at one pipeline point."""
    predictions = run.predictions()
    return tuple(branch_cost(predictions[scheme].accuracy,
                             k=k_plus_l_bar, l_bar=0.0, m_bar=m_bar)
                 for scheme in SCHEMES)


def compute(runner, names=None):
    names = names or paper_values.BENCHMARKS
    rows = []
    measured = {2: {s: [] for s in SCHEMES}, 3: {s: [] for s in SCHEMES}}
    for name in names:
        run = runner.run(name)
        kl2 = costs_for(run, 2)
        kl3 = costs_for(run, 3)
        for scheme, value in zip(SCHEMES, kl2):
            measured[2][scheme].append(value)
        for scheme, value in zip(SCHEMES, kl3):
            measured[3][scheme].append(value)
        paper2 = paper_values.TABLE4_KL2[name]
        paper3 = paper_values.TABLE4_KL3[name]
        rows.append([name]
                    + [round(value, 2) for value in kl2 + kl3]
                    + list(paper2) + list(paper3))

    def summary(label, reducer, paper2, paper3):
        return ([label]
                + [round(reducer(measured[2][s]), 2) for s in SCHEMES]
                + [round(reducer(measured[3][s]), 2) for s in SCHEMES]
                + list(paper2) + list(paper3))

    rows.append(summary("Average", mean,
                        paper_values.TABLE4_KL2_AVERAGE,
                        paper_values.TABLE4_KL3_AVERAGE))
    rows.append(summary("Std. dev.", std_dev,
                        ("", "", ""), ("", "", "")))
    return TableData(
        "Table 4: branch cost for k+l_bar = 2 and 3, m_bar = 1 "
        "(measured | paper)",
        ["Benchmark",
         "S@2", "C@2", "FS@2", "S@3", "C@3", "FS@3",
         "pS@2", "pC@2", "pFS@2", "pS@3", "pC@3", "pFS@3"],
        rows,
    )


def scaling_increase(runner, names=None):
    """Average %% cost increase from k+l=2 to k+l=3 per scheme.

    The paper reports 7.7%% (SBTB), 6.9%% (CBTB), 5.3%% (FS) and
    concludes the Forward Semantic scales best.
    """
    names = names or paper_values.BENCHMARKS
    increases = {scheme: [] for scheme in SCHEMES}
    for name in names:
        run = runner.run(name)
        kl2 = costs_for(run, 2)
        kl3 = costs_for(run, 3)
        for scheme, low, high in zip(SCHEMES, kl2, kl3):
            increases[scheme].append(100.0 * (high - low) / low)
    return {scheme: mean(values) for scheme, values in increases.items()}


def render(runner, names=None):
    from repro.experiments.report import render_table
    text = render_table(compute(runner, names))
    increases = scaling_increase(runner, names)
    text += ("\nAverage cost increase from k+l=2 to k+l=3: "
             "SBTB %.1f%%, CBTB %.1f%%, FS %.1f%% "
             "(paper: 7.7%%, 6.9%%, 5.3%%)\n"
             % (increases["SBTB"], increases["CBTB"], increases["FS"]))
    return text
