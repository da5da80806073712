"""The diagnostics engine: one entry point over all rules.

:func:`run_diagnostics` unifies the structural verifier with the
rule set of :mod:`.rules` into a single :class:`DiagnosticsReport` of
:class:`~repro.analysis.findings.Finding` records.  The
``stage`` argument names the pipeline point the program came from
(``"compiled"``, ``"optimized"``, ``"layout"``, ``"slots"``, ...);
layout-aware rules only run when the caller passes the
:class:`~repro.traceopt.layout.LayoutResult` and the pre-layout
program.

Like the verifier, the engine degrades gracefully on broken input:
structural errors short-circuit the analysis rules (a CFG over a
malformed text is meaningless), so the report is always produced and
never raises on a syntactically loadable program.
"""

from typing import Any, Dict, List, Optional

from repro.analysis.diagnostics.rules import (
    degenerate_branches,
    loop_invariant_branches,
    slot_use_before_def,
    squash_unsafe_slots,
    unreachable_after_layout,
)
from repro.analysis.findings import SEVERITIES, Finding
from repro.analysis.verify import verify_with_graph
from repro.isa.program import Program
from repro.traceopt.layout import LayoutResult

_SEVERITY_RANK = {severity: rank
                  for rank, severity in enumerate(SEVERITIES)}


class DiagnosticsReport:
    """Every finding of one program at one pipeline stage."""

    __slots__ = ("name", "stage", "findings")

    def __init__(self, name: str, stage: str,
                 findings: List[Finding]) -> None:
        self.name = name
        self.stage = stage
        self.findings = findings

    @property
    def errors(self) -> List[Finding]:
        return [finding for finding in self.findings
                if finding.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [finding for finding in self.findings
                if finding.severity == "warning"]

    @property
    def infos(self) -> List[Finding]:
        return [finding for finding in self.findings
                if finding.severity == "info"]

    @property
    def ok(self) -> bool:
        """No errors (the default lint gate)."""
        return not self.errors

    @property
    def strict_ok(self) -> bool:
        """No errors and no warnings (the ``--strict`` gate)."""
        return not any(finding.fails_strict
                       for finding in self.findings)

    def counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(SEVERITIES, 0)
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "stage": self.stage,
            "counts": self.counts(),
            "findings": [finding.to_dict()
                         for finding in self.findings],
        }

    def __repr__(self) -> str:
        counts = self.counts()
        return ("DiagnosticsReport(%r, %s, %d errors, %d warnings, "
                "%d infos)" % (self.name, self.stage, counts["error"],
                               counts["warning"], counts["info"]))


def run_diagnostics(program: Program,
                    stage: str = "compiled",
                    name: Optional[str] = None,
                    layout: Optional[LayoutResult] = None,
                    original: Optional[Program] = None,
                    warnings: bool = True) -> DiagnosticsReport:
    """Run the verifier and every applicable rule on one program.

    Args:
        program: resolved program to diagnose.
        stage: pipeline stage label, recorded in the report.
        name: report name (defaults to the program's).
        layout: the :class:`LayoutResult` that produced ``program``;
            enables the ``unreachable-after-layout`` rule (requires
            ``original`` too).
        original: the pre-layout program for layout-aware rules.
        warnings: False reports only error-severity findings (the
            lint ``--no-warnings`` mode).
    """
    report_name = name if name is not None else program.name
    findings, graph = verify_with_graph(program)
    findings = slot_use_before_def(program, findings)

    if not any(finding.is_error for finding in findings):
        findings.extend(squash_unsafe_slots(program))
        findings.extend(degenerate_branches(graph))
        findings.extend(loop_invariant_branches(graph))
        if layout is not None and original is not None:
            findings.extend(unreachable_after_layout(graph, layout,
                                                     original))

    if not warnings:
        findings = [finding for finding in findings
                    if finding.is_error]
    findings.sort(key=lambda finding: (
        _SEVERITY_RANK[finding.severity],
        -1 if finding.address is None else finding.address))
    return DiagnosticsReport(report_name, stage, findings)
