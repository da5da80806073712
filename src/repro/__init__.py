"""Reproduction of Hwu, Conte & Chang, "Comparing Software and Hardware
Schemes For Reducing the Cost of Branches" (ISCA 1989).

Quick start::

    from repro import SuiteRunner
    from repro.experiments import table3

    runner = SuiteRunner(scale=0.1)
    print(table3.render(runner))

Package map:

* :mod:`repro.isa` — the intermediate instruction set.
* :mod:`repro.lang` — the Minic compiler (the IMPACT stand-in).
* :mod:`repro.vm` — the tracing functional simulator.
* :mod:`repro.cfg` — control-flow graphs over programs.
* :mod:`repro.profiling` — basic-block probe profiling.
* :mod:`repro.traceopt` — trace selection, layout, forward slots.
* :mod:`repro.predictors` — SBTB, CBTB, FS, static baselines.
* :mod:`repro.pipeline` — the cost model and a cycle simulator.
* :mod:`repro.benchmarksuite` — the ten Unix benchmarks in Minic.
* :mod:`repro.experiments` — Tables 1-5 and Figures 3-4.

``import repro`` loads none of them: each name in ``__all__`` is
imported from its home module the first time it is read
(:mod:`repro._lazy`), so a ``repro-branches`` subcommand loads only
the modules it runs.
"""

from repro._lazy import lazy_names

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_names(globals(), {
    "repro.experiments.runner": ("SuiteRunner",),
    "repro.lang": ("compile_source",),
    "repro.vm": ("run_program",),
    "repro.pipeline": ("PipelineConfig", "branch_cost"),
    "repro.predictors": ("SimpleBTB", "CounterBTB",
                         "ForwardSemanticPredictor", "simulate"),
})
__all__.append("__version__")
