"""Whole-pipeline IR diagnostics.

One record type (:mod:`repro.analysis.findings`) for the structural
verifier and the analysis rules (:mod:`.rules`) behind one engine
(:mod:`.engine`); drives ``repro-branches lint`` including its
``--json`` and ``--strict`` modes.
"""

from repro.analysis.diagnostics.engine import (
    DiagnosticsReport,
    run_diagnostics,
)
from repro.analysis.diagnostics.rules import (
    degenerate_branches,
    loop_invariant_branches,
    slot_regions,
    slot_use_before_def,
    squash_unsafe_slots,
    unreachable_after_layout,
)
from repro.analysis.findings import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Finding,
    line_of,
)

__all__ = [
    "DiagnosticsReport",
    "ERROR",
    "Finding",
    "INFO",
    "SEVERITIES",
    "WARNING",
    "degenerate_branches",
    "line_of",
    "loop_invariant_branches",
    "run_diagnostics",
    "slot_regions",
    "slot_use_before_def",
    "squash_unsafe_slots",
    "unreachable_after_layout",
]
