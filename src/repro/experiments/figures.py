"""Figures 3 and 4: branch cost vs l_bar + m_bar for k = 1, 2, 4, 8.

Each figure plots three curves (SBTB, CBTB, FS) of the cost equation
evaluated at the suite-average accuracy of Table 3, over the range of
decode+execute flush penalties.  The paper's qualitative claims:

* cost grows linearly in l_bar + m_bar for every scheme;
* deeper fetch pipelines (larger k) raise cost and widen the gaps;
* the scheme order is FS <= CBTB <= SBTB throughout (at the averages).
"""

from repro.experiments import table3
from repro.experiments.report import render_series_plot
from repro.pipeline import branch_cost

FIGURE_KS = (1, 2, 4, 8)
LM_RANGE = tuple(range(0, 10))


def compute(runner, names=None):
    """Series per k: {k: {scheme: [(l_bar+m_bar, cost), ...]}}."""
    accuracies = table3.average_accuracies(runner, names)
    figures = {}
    for k in FIGURE_KS:
        figures[k] = {
            scheme: [(lm, branch_cost(accuracy, k=k, l_bar=lm, m_bar=0.0))
                     for lm in LM_RANGE]
            for scheme, accuracy in accuracies.items()
        }
    return figures


def render(runner, names=None):
    figures = compute(runner, names)
    parts = []
    for k, series in figures.items():
        figure = "Figure 3" if k in (1, 2) else "Figure 4"
        title = "%s: branch cost vs l_bar+m_bar, k = %d" % (figure, k)
        # Stable legend order matching the paper's line styles.
        ordered = {"SBTB": series["SBTB"], "CBTB": series["CBTB"],
                   "FS": series["FS"]}
        parts.append(render_series_plot(
            ordered, x_label="l_bar + m_bar", y_label="cycles/branch",
            title=title))
        rows = ["  l+m " + "".join("%9s" % scheme for scheme in ordered)]
        for index, lm in enumerate(LM_RANGE):
            rows.append("  %3d " + "".join(
                "%9.3f" % ordered[scheme][index][1] for scheme in ordered))
            rows[-1] = rows[-1] % lm
        parts.append("\n".join(rows) + "\n")
    return "\n".join(parts)
