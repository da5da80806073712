"""The diagnostics engine and its analysis-level rules.

Each rule test builds a small assembly program that exhibits exactly
the defect (or opportunity) the rule looks for and asserts the engine
reports it with the right rule id and severity — including the two
slot-hazard rules, driven through the *real* forward-slot filler
rather than hand-faked slot metadata.
"""

import pytest

from repro.analysis.dataflow import FlowGraph
from repro.analysis.diagnostics import (
    DiagnosticsReport,
    Finding,
    run_diagnostics,
)
from repro.analysis.diagnostics.rules import (
    slot_regions,
    unreachable_after_layout,
)
from repro.isa import assemble
from repro.traceopt import fill_forward_slots


def rules_of(report):
    return {finding.rule for finding in report.findings}


# -- squash-unsafe slot fills ------------------------------------------------

def squash_unsafe_program():
    """A likely branch whose target path starts with an I/O effect.

    The paper's filler copies I/O instructions into slots verbatim, so
    the fill itself injects the squash hazard the rule must catch.
    """
    program = assemble("""
func main:
    li r1, 1
    li r2, 2
    bgt r2, r1, out
    add r1, r1, r2
    halt
out:
    puti r1
    halt
""")
    program.instructions[2].likely = True
    slotted, _ = fill_forward_slots(program, 1)
    return slotted


def test_injected_squash_unsafe_slot_fill_is_caught():
    slotted = squash_unsafe_program()
    # Sanity: the filler really copied the PUTI into the slot region.
    regions = slot_regions(slotted)
    assert regions == {3: 2}
    assert slotted.instructions[3].op.value == "puti"

    report = run_diagnostics(slotted, stage="slots")
    findings = [finding for finding in report.findings
                if finding.rule == "squash-unsafe-slot"]
    assert len(findings) == 1
    assert findings[0].address == 3
    assert findings[0].severity == "warning"
    assert "branch at 2" in findings[0].message
    assert report.ok             # a warning, not an error...
    assert not report.strict_ok  # ...but --strict must fail on it


def test_pure_slot_fills_stay_silent():
    program = assemble("""
func main:
    li r1, 1
    li r2, 2
    bgt r2, r1, out
    add r1, r1, r2
    halt
out:
    li r3, 9
    jump fin
fin:
    halt
""")
    program.instructions[2].likely = True
    slotted, _ = fill_forward_slots(program, 1)  # copies the pure LI
    report = run_diagnostics(slotted, stage="slots")
    assert report.ok
    assert "squash-unsafe-slot" not in rules_of(report)


# -- slot-introduced use-before-def ------------------------------------------

def use_before_def_slot_program():
    """The A/B/L shape: the slot copy reads a register its own branch
    path never defines.

    Block A defines r5 and jumps to L; block B likely-branches to L
    without defining r5.  L's first instruction reads r5 — fine on the
    original program (A's definition reaches L) — but the slot copy of
    that read after B's branch sits on a path with no definition at
    all: a hazard the copy introduced.
    """
    program = assemble("""
func main:
    li r1, 1
    li r2, 2
    bgt r2, r1, bside
    li r5, 7
    jump lblock
bside:
    add r1, r1, r2
    bgt r1, r2, lblock
    halt
lblock:
    puti r5
    halt
""")
    program.instructions[6].likely = True
    # The filler's own verification (rightly) rejects this hazard;
    # disable it so the diagnostics engine is the one that reports.
    slotted, _ = fill_forward_slots(program, 1, verify=False)
    return slotted


def test_slot_copy_use_before_def_is_an_error():
    slotted = use_before_def_slot_program()
    assert slot_regions(slotted) == {7: 6}
    report = run_diagnostics(slotted, stage="slots")
    findings = [finding for finding in report.findings
                if finding.rule == "use-before-def-slots"]
    assert len(findings) == 1
    assert findings[0].severity == "error"
    assert findings[0].address == 7
    assert "slot region of the branch at 6" in findings[0].message
    assert not report.ok
    # The original read in L is *not* flagged: A's definition reaches
    # it.  Only the copy introduced the hazard.
    assert all(finding.address == 7 for finding in report.findings
               if "use-before-def" in finding.rule)


def test_use_before_def_outside_slots_keeps_the_generic_rule():
    program = assemble("""
func main:
    li r1, 1
    add r1, r1, r9
    puti r1
    halt
""")
    report = run_diagnostics(program)
    assert "use-before-def" in rules_of(report)
    assert "use-before-def-slots" not in rules_of(report)


# -- degenerate branches -----------------------------------------------------

def test_degenerate_branch_is_a_warning():
    report = run_diagnostics(assemble("""
func main:
    li r1, 1
    beq r1, r1, out
    puti r1
out:
    halt
"""))
    findings = [finding for finding in report.findings
                if finding.rule == "degenerate-branch"]
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert findings[0].address == 1
    assert "always branches" in findings[0].message
    assert report.ok and not report.strict_ok


def test_runtime_dependent_branch_is_not_degenerate():
    report = run_diagnostics(assemble("""
func main:
    getc r1, 0
    li r2, 0
    bgt r1, r2, out
    puti r2
out:
    halt
"""))
    assert "degenerate-branch" not in rules_of(report)


# -- loop-invariant branches -------------------------------------------------

def test_loop_invariant_branch_is_an_info_hoisting_candidate():
    report = run_diagnostics(assemble("""
func main:
    li r1, 0
    li r2, 5
    li r3, 1
loop:
    add r1, r1, r3
    bgt r2, r3, loop
    halt
"""))
    findings = [finding for finding in report.findings
                if finding.rule == "loop-invariant-branch"]
    assert len(findings) == 1
    assert findings[0].severity == "info"
    assert findings[0].address == 4
    assert "r2" in findings[0].message and "r3" in findings[0].message
    # Info findings never fail, even under --strict.
    assert report.ok and report.strict_ok


def test_branch_reading_a_loop_written_register_is_not_flagged():
    report = run_diagnostics(assemble("""
func main:
    li r1, 0
    li r2, 5
loop:
    add r1, r1, r2
    bgt r2, r1, loop
    halt
"""))
    assert "loop-invariant-branch" not in rules_of(report)


# -- unreachable-after-layout ------------------------------------------------

class _FakeLayout:
    def __init__(self, old_address_of):
        self.old_address_of = old_address_of


def test_layout_dropped_block_is_flagged():
    original = assemble("""
func main:
    li r1, 1
    bgt r1, r1, dead
    halt
dead:
    puti r1
    halt
""")
    # "Layout" that replaced the conditional with a jump, orphaning
    # `dead` — same text addresses, so the mapping is the identity.
    broken = assemble("""
func main:
    li r1, 1
    jump end
end:
    halt
dead:
    puti r1
    halt
""")
    findings = unreachable_after_layout(
        FlowGraph.from_program(broken),
        _FakeLayout(list(range(len(broken.instructions)))), original)
    assert [finding.rule for finding in findings] \
        == ["unreachable-after-layout"]
    assert findings[0].address == 3
    assert findings[0].severity == "warning"


def test_block_unreachable_on_both_sides_is_not_a_layout_defect():
    source = """
func main:
    li r1, 1
    jump end
end:
    halt
dead:
    puti r1
    halt
"""
    original = assemble(source)
    after = assemble(source)
    findings = unreachable_after_layout(
        FlowGraph.from_program(after),
        _FakeLayout(list(range(len(after.instructions)))), original)
    assert findings == []


# -- engine behaviour --------------------------------------------------------

def test_verifier_unreachable_maps_to_info():
    report = run_diagnostics(assemble("""
func main:
    jump end
    li r1, 1
    puti r1
end:
    halt
"""))
    findings = [finding for finding in report.findings
                if finding.rule == "unreachable"]
    assert findings and all(finding.severity == "info"
                            for finding in findings)
    assert report.strict_ok


def test_structural_errors_short_circuit_analysis_rules():
    program = squash_unsafe_program()
    program.instructions[2].target = 999  # make it structurally broken
    report = run_diagnostics(program)
    assert not report.ok
    # The CFG-level rules never ran on the malformed text.
    assert "squash-unsafe-slot" not in rules_of(report)


def test_report_sorts_errors_first_then_by_address():
    slotted = use_before_def_slot_program()
    report = run_diagnostics(slotted)
    severities = [finding.severity for finding in report.findings]
    order = {"error": 0, "warning": 1, "info": 2}
    assert severities == sorted(severities, key=order.__getitem__)


def test_warnings_false_reports_only_errors():
    report = run_diagnostics(squash_unsafe_program(), warnings=False)
    assert report.findings == []
    assert report.ok


def test_counts_and_to_dict():
    report = run_diagnostics(use_before_def_slot_program(),
                             stage="slots", name="abl")
    counts = report.counts()
    assert counts["error"] == 1
    data = report.to_dict()
    assert data["name"] == "abl"
    assert data["stage"] == "slots"
    assert data["counts"] == counts
    assert len(data["findings"]) == len(report.findings)
    for entry in data["findings"]:
        assert set(entry) == {"rule", "severity", "message", "address",
                              "line"}


def test_finding_str_and_severity_validation():
    finding = Finding("demo-rule", "warning", "something odd", 12, 34)
    assert str(finding) == \
        "warning:12: [demo-rule] something odd (line 34)"
    assert finding.fails_strict and not finding.is_error
    bare = Finding("demo-rule", "info", "note")
    assert str(bare) == "info:-: [demo-rule] note"
    assert not bare.fails_strict
    with pytest.raises(ValueError):
        Finding("demo-rule", "fatal", "nope")


def test_report_repr_mentions_the_counts():
    report = DiagnosticsReport("x", "compiled", [
        Finding("a", "error", "m"), Finding("b", "info", "m")])
    assert "1 errors" in repr(report)
    assert "1 infos" in repr(report)
