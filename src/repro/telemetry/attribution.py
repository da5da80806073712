"""Mispredict attribution: which static branch sites cost each scheme.

Table 3 reports one accuracy number per scheme per benchmark; this
module breaks that number apart.  For every static branch site in the
laid-out (Forward Semantic) program it scores all three schemes over
the evaluation trace on their batch kernels, which share one
site-sorted view of it, folds their outcomes per site, and reports
per-site accuracy, ranked worst-first by total mispredictions — the
breakdown that explains *why* one scheme beats another on a benchmark
(a handful of unstable conditionals usually carry the whole gap).

Sites map back to Minic source lines through the line table the code
generator records on the program and the layout pass carries through
block reordering (:attr:`repro.isa.program.Program.lines`), so each row
names the function and source line responsible.

Exposed on the CLI as ``repro-branches stats <benchmark>`` (text) and
``--json`` (machine-readable).
"""

from repro.kernels import EncodedTrace
from repro.kernels.aggregate import outcomes, site_fold
from repro.predictors import CounterBTB, ForwardSemanticPredictor, SimpleBTB
from repro.telemetry.core import TELEMETRY
from repro.vm.tracing import BranchClass

#: The scheme order used in every report row.
SCHEMES = ("SBTB", "CBTB", "FS")


def attribute_trace(trace, fs_program, old_address_of=None,
                    base_program=None):
    """Per-site, per-scheme accuracy over ``trace``.

    Args:
        trace: the evaluation :class:`~repro.vm.tracing.BranchTrace`.
        fs_program: the laid-out program the trace was collected on
            (sites index into it; its line table supplies source
            lines).
        old_address_of: the layout pass's new-address -> old-address
            table.  Function names are resolved on ``base_program``
            through it when both are given: trace layout interleaves
            functions, so :meth:`Program.function_of` is only reliable
            on the pre-layout program, whose emission order is
            contiguous per function.
        base_program: the pre-layout program matching
            ``old_address_of``.

    Returns:
        list of site dicts ranked worst-first (most total
        mispredictions across schemes), each::

            {"site": int, "function": str|None, "line": int|None,
             "class": str, "executions": int, "taken_fraction": float,
             "accuracy": {scheme: float}, "mispredictions": {scheme: int},
             "worst_scheme": str}
    """
    predictors = {
        "SBTB": SimpleBTB(),
        "CBTB": CounterBTB(),
        "FS": ForwardSemanticPredictor(program=fs_program),
    }
    # Every scheme scores the trace's non-return records on its kernel,
    # over the one site-sorted view they share.
    encoded = EncodedTrace.of(trace)
    correct = {}
    for name, predictor in predictors.items():
        with TELEMETRY.span("attribution.outcomes", scheme=name):
            view, correct[name], _hit, _credited = outcomes(predictor,
                                                            encoded)
    with TELEMETRY.span("attribution.fold", records=len(trace)):
        return _rank_sites(site_fold(view, correct), fs_program,
                           old_address_of, base_program)


def _rank_sites(fold, fs_program, old_address_of, base_program):
    """The ranked site rows of :func:`attribute_trace` from the per-site
    fold of every scheme's outcomes."""
    sites, classes, executions, taken_counts, rights = fold

    def function_of(site):
        if old_address_of is not None and base_program is not None:
            old_address = (old_address_of[site]
                           if site < len(old_address_of) else None)
            if old_address is None:
                return None
            return base_program.function_of(old_address)
        return fs_program.function_of(site)

    lines = getattr(fs_program, "lines", {})
    rights = {name: rights[name].tolist() for name in SCHEMES}
    rows = []
    for index, (site, execs, taken, branch_class) in enumerate(zip(
            sites.tolist(), executions.tolist(), taken_counts.tolist(),
            classes.tolist())):
        correct = {name: rights[name][index] for name in SCHEMES}
        accuracy = {name: correct[name] / execs for name in SCHEMES}
        mispredictions = {name: execs - correct[name] for name in SCHEMES}
        worst = max(mispredictions, key=lambda name: mispredictions[name])
        rows.append({
            "site": site,
            "function": function_of(site),
            "line": lines.get(site),
            "class": BranchClass.NAMES[branch_class],
            "executions": execs,
            "taken_fraction": taken / execs,
            "accuracy": accuracy,
            "mispredictions": mispredictions,
            "worst_scheme": worst,
        })
    rows.sort(key=lambda row: (-sum(row["mispredictions"].values()),
                               row["site"]))
    return rows


def attribution_report(run):
    """The full attribution payload for one benchmark run.

    ``run`` is a :class:`repro.experiments.runner.BenchmarkRun`; the
    returned dict is the machine-readable (``--json``) form.
    """
    sites = attribute_trace(run.trace, run.fs_program,
                            old_address_of=run.layout.old_address_of,
                            base_program=run.program)
    executions = sum(row["executions"] for row in sites)
    totals = {}
    for scheme in SCHEMES:
        missed = sum(row["mispredictions"][scheme] for row in sites)
        totals[scheme] = {
            "mispredictions": missed,
            "executions": executions,
            "accuracy": ((executions - missed) / executions
                         if executions else 0.0),
        }
    return {
        "benchmark": run.name,
        "scale": run.scale,
        "runs": run.runs,
        "records": len(run.trace),
        "schemes": list(SCHEMES),
        "totals": totals,
        "sites": sites,
    }


def _format_accuracy(value):
    return "     -" if value is None else "%6.2f" % (100.0 * value)


def render_attribution(data, limit=25):
    """ASCII rendering of an :func:`attribution_report` payload."""
    lines = [
        "Mispredict attribution — %s (%d records, scale %s, %d runs)"
        % (data["benchmark"], data["records"], data["scale"],
           data["runs"]),
        "per-scheme accuracy (%): " + "  ".join(
            "%s %.2f" % (scheme, 100.0 * data["totals"][scheme]["accuracy"])
            for scheme in data["schemes"]),
        "",
        "%8s  %-16s %6s  %-22s %9s %7s  %s  %s" % (
            "site", "function", "line", "class", "execs", "taken%",
            "  ".join("%6s" % scheme for scheme in data["schemes"]),
            "worst"),
    ]
    shown = data["sites"][:limit]
    for row in shown:
        lines.append("%8d  %-16s %6s  %-22s %9d %6.1f%%  %s  %s" % (
            row["site"],
            (row["function"] or "?")[:16],
            row["line"] if row["line"] is not None else "?",
            row["class"],
            row["executions"],
            100.0 * row["taken_fraction"],
            "  ".join(_format_accuracy(row["accuracy"].get(scheme))
                      for scheme in data["schemes"]),
            row["worst_scheme"],
        ))
    remaining = len(data["sites"]) - len(shown)
    if remaining > 0:
        lines.append("... %d more sites" % remaining)
    lines.append("")
    lines.append("ranked worst-first by total mispredictions across "
                 "schemes; accuracy columns are per-scheme percent "
                 "correct at that site")
    return "\n".join(lines) + "\n"
