"""Reproduction harness: one module per table/figure of the paper.

The :class:`~repro.experiments.runner.SuiteRunner` compiles each
benchmark, profiles it over its input suite, applies the Forward
Semantic layout, collects the evaluation trace, and caches everything
on disk; the table modules turn those artifacts into the paper's
tables and figures, each rendered next to the paper's published
numbers.  The trace cache's inventory (:mod:`~repro.experiments.cache`)
needs none of that and imports without NumPy.

The names below are imported on first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(globals(), {
    "repro.experiments.runner": ("BenchmarkRun", "SuiteRunner"),
    "repro.experiments.report": ("TableData", "render_table"),
})
