"""Functional simulator (virtual machine) for the intermediate ISA.

The VM executes :class:`~repro.isa.program.Program` objects, supplies
byte-stream I/O to the benchmarks, and emits the dynamic branch trace
that drives every experiment in the paper.  It also implements the
Forward Semantic execution semantics (forward slots after likely-taken
branches) in two modes so the compiler transformation can be validated
end-to-end:

* ``slot_mode="direct"`` — a taken likely branch transfers straight to
  its original target.  Because forward slots are faithful copies of the
  target path, this is functionally identical to executing the slots and
  is the fast mode used for trace collection: it runs as compiled basic
  blocks (:mod:`repro.vm.compiled`), checked against the reference
  interpreter ``Machine._run``.
* ``slot_mode="execute"`` — a taken likely branch falls through into its
  forward slots with an alternate-PC countdown, exactly as the fetch
  hardware would behave.  Used by the semantic-preservation tests.
"""

from repro.vm.tracing import (
    BranchClass,
    BranchRecord,
    BranchTrace,
    TraceStats,
)
from repro.vm.machine import Machine, MachineError, ExecutionLimitExceeded, run_program

__all__ = [
    "BranchClass",
    "BranchRecord",
    "BranchTrace",
    "TraceStats",
    "Machine",
    "MachineError",
    "ExecutionLimitExceeded",
    "run_program",
]
