"""The paper's pipelined microarchitecture model.

The pipeline has four units in series (Figure 1): instruction fetch
(one next-address-selection stage plus k memory stages), instruction
decode (l stages, average flush penalty l_bar), instruction execution
(m stages, average flush penalty m_bar), and state update.

:mod:`repro.pipeline.cost_model` implements the paper's branch-cost
equation ``cost = A + (k + l_bar + m_bar)(1 - A)``;
:mod:`repro.pipeline.cycle_sim` is a cycle-level simulator of the same
machine used to validate the analytic model (an ablation — the paper
itself uses the equation).
"""

from repro.pipeline.config import PipelineConfig
from repro.pipeline.cost_model import branch_cost
from repro.pipeline.cycle_sim import CycleSimulator, CycleStats
from repro.pipeline.fetch_stream import (
    TraceInconsistency,
    fetch_addresses,
    fetch_segments,
)
from repro.pipeline.hardware_cost import (
    StorageCost,
    btb_storage,
    cbtb_storage,
    compare_storage,
    forward_semantic_storage,
    sbtb_storage,
)

__all__ = [
    "PipelineConfig",
    "branch_cost",
    "CycleSimulator",
    "CycleStats",
    "TraceInconsistency",
    "fetch_addresses",
    "fetch_segments",
    "StorageCost",
    "btb_storage",
    "sbtb_storage",
    "cbtb_storage",
    "forward_semantic_storage",
    "compare_storage",
]
