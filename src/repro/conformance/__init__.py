"""Conformance: reference oracles, differential replay, golden tables.

The fast simulator paths (``repro.predictors``, ``repro.pipeline``) are
what every table in the reproduction is computed from, so this package
cross-checks them three ways:

* :mod:`~repro.conformance.oracles` — deliberately naive,
  obviously-correct reimplementations of SBTB, CBTB, FS, and a
  straight-line cycle interpreter, written against the paper's prose
  rather than our optimized code;
* :mod:`~repro.conformance.differential` — a lockstep replay engine
  that runs the same trace through production and oracle, reports the
  first divergence (prediction, buffer state, squash cycles), and
  shrinks a failing trace to a minimal reproducer via seeded
  delta-debugging;
* :mod:`~repro.conformance.golden` — regression of the experiment
  tables against the paper's published values (declared tolerance
  bands) and against committed golden JSON of our own trajectory.

:mod:`~repro.conformance.fuzz` feeds the differential engine with
deterministic seeded traces; :mod:`~repro.conformance.harness` ties
everything into the ``repro-branches conformance`` CLI subcommand and
the telemetry event stream.
"""

from repro.conformance.differential import (
    Divergence,
    cycle_divergence,
    engine_divergence,
    replay_divergence,
    shrink_trace,
)
from repro.conformance.fuzz import TraceFuzzer
from repro.conformance.golden import (
    GOLDEN_PATH,
    check_golden,
    check_paper_bands,
    write_golden,
)
from repro.conformance.harness import ConformanceReport, run_conformance
from repro.conformance.oracles import (
    OracleCBTB,
    OracleCycleInterpreter,
    OracleFS,
    OracleSBTB,
    oracle_for,
)

__all__ = [
    "Divergence",
    "ConformanceReport",
    "GOLDEN_PATH",
    "OracleCBTB",
    "OracleCycleInterpreter",
    "OracleFS",
    "OracleSBTB",
    "TraceFuzzer",
    "check_golden",
    "check_paper_bands",
    "cycle_divergence",
    "engine_divergence",
    "oracle_for",
    "replay_divergence",
    "run_conformance",
    "shrink_trace",
    "write_golden",
]
