"""StaticProfile — estimated profiles, drop-in for measured ones.

:func:`estimate_profile` runs the heuristic branch predictor and the
frequency propagation, then quantises the resulting expected
frequencies into the integer-count shape of
:class:`repro.profiling.profiler.Profile`.  Everything downstream of
profiling — trace selection, layout, likely bits, forward slots, the
FS cost model — consumes Profile's count dictionaries and ratios, so a
StaticProfile flows through the whole `traceopt` pipeline unmodified
and no profiling run is ever needed.

Quantisation keeps every count a non-negative ``int`` and the counts
within :meth:`~repro.profiling.profiler.Profile.check`, so trace
selection's fall-through weight ``execs - taken`` is never negative
and ``taken_fraction`` reproduces the estimated probability to
quantisation accuracy.  A reachable block's count is floored at 1 so
layout keeps it placeable.
"""

from typing import Dict, Optional

from repro.analysis.dataflow import FlowGraph
from repro.analysis.staticpred.frequency import (
    StaticFrequencies,
    program_frequencies,
)
from repro.analysis.staticpred.heuristics import (
    BranchEstimate,
    predict_branches,
)
from repro.cfg import ControlFlowGraph
from repro.isa.program import Program
from repro.profiling.profiler import Profile

#: Integer counts per unit of estimated frequency.  One "run" of the
#: entry function becomes 10 000 counts, so probabilities survive
#: quantisation to 4 decimal places.
DEFAULT_SCALE = 10_000


class StaticProfile(Profile):
    """A :class:`Profile` synthesised from static analysis.

    Behaves exactly like a measured profile (same count dictionaries,
    same query methods); additionally carries the per-branch
    :class:`BranchEstimate` map and the propagated
    :class:`StaticFrequencies` for reporting, plus ``source =
    "static"`` so manifests and cache entries can record provenance.
    """

    source = "static"

    def __init__(self) -> None:
        super().__init__()
        self.estimates: Dict[int, BranchEstimate] = {}
        self.frequencies: Optional[StaticFrequencies] = None
        self.scale: int = DEFAULT_SCALE


def estimate_profile(program: Program,
                     cfg: Optional[ControlFlowGraph] = None,
                     scale: int = DEFAULT_SCALE) -> StaticProfile:
    """Estimate an execution profile from the IR alone.

    The returned :class:`StaticProfile` is drop-in compatible with
    :func:`repro.profiling.profiler.profile_program` output — pass it
    to ``build_fs_program`` / ``lay_out_traces`` unchanged.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if cfg is None:
        cfg = ControlFlowGraph.from_program(program)
    graph = FlowGraph(cfg)
    estimates = predict_branches(program, cfg=cfg, graph=graph)
    frequencies = program_frequencies(program, estimates, cfg=cfg,
                                      graph=graph)

    profile = StaticProfile()
    profile.estimates = estimates
    profile.frequencies = frequencies
    profile.scale = scale

    counts: Dict[int, int] = {}
    for leader, frequency in frequencies.block_freq.items():
        count = int(round(frequency * scale))
        # Reachable blocks stay visible to layout even when the
        # estimate rounds to nothing.
        counts[leader] = max(count, 1)
    profile.block_counts = counts

    for block in cfg.blocks:
        site = block.end - 1
        terminator = program.instructions[site]
        if terminator.is_conditional:
            estimate = estimates.get(site)
            probability = (estimate.taken_probability
                           if estimate is not None else 0.5)
            execs = counts.get(block.start, 0)
            taken = min(execs, max(0, int(round(execs * probability))))
            profile.branch_execs[site] = execs
            profile.branch_taken[site] = taken
    return profile
