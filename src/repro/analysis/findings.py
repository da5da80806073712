"""Structured diagnostics findings.

A :class:`Finding` is one diagnosed fact about a program: a stable
rule id, a severity, a message, the instruction address it anchors to,
and — when the program carries a line mapping — the source line that
address came from.  The verifier, the layout translation validator and
the diagnostics rules all report through this one shape, so
``lint --json`` can serialise everything.

Severities:

``error``    the program is invalid; the VM or a later pass would
             misbehave.  Fails lint (and ``--strict``).
``warning``  suspicious but executable — e.g. a squash-unsafe
             instruction in a forward-slot region.  Fails ``--strict``
             only.
``info``     observations and optimisation opportunities (unreachable
             code, hoistable loop-invariant branches).  Never fails.

The verifier's ``unreachable`` rule is ``info``: compiled
real-program corpora legitimately contain unreachable blocks (dead
library functions), so treating them as strict failures would make
``--strict`` unusable as a gate.
"""

from typing import Any, Dict, Optional

from repro.isa.program import Program

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: All severities, most severe first (also the report sort order).
SEVERITIES = (ERROR, WARNING, INFO)


class Finding:
    """One diagnosed fact about a program."""

    __slots__ = ("rule", "severity", "message", "address", "line")

    def __init__(self, rule: str, severity: str, message: str,
                 address: Optional[int] = None,
                 line: Optional[int] = None) -> None:
        if severity not in SEVERITIES:
            raise ValueError("unknown severity %r" % severity)
        self.rule = rule
        self.severity = severity
        self.message = message
        self.address = address
        self.line = line

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    @property
    def fails_strict(self) -> bool:
        """True when ``--strict`` mode counts this finding as a failure."""
        return self.severity in (ERROR, WARNING)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "address": self.address,
            "line": self.line,
        }

    def __str__(self) -> str:
        suffix = "" if self.line is None else " (line %d)" % self.line
        return "%s:%s: [%s] %s%s" % (
            self.severity,
            "-" if self.address is None else self.address,
            self.rule, self.message, suffix)

    def __repr__(self) -> str:
        return "Finding(%s)" % self


def line_of(program: Program, address: Optional[int]) -> Optional[int]:
    """The source line an instruction address came from, if mapped."""
    if address is None or not program.lines:
        return None
    return program.lines.get(address)
