"""Cycle-level simulation of the paper's pipeline.

An in-order, single-issue machine with one-cycle stages: fetch
(1 select + k memory stages), decode (l stages), execute (m stages),
state update.  Instructions retire one per cycle except after a branch
whose handling scheme failed to cover the refill:

* a mispredicted **conditional** branch is discovered at the end of the
  execute unit: the machine squashes the k + l + m instructions fetched
  behind it and refetches, costing k + l + m extra cycles;
* an uncovered **unconditional** branch (e.g. a BTB miss on a jump, or
  any unknown-target indirect jump) is discovered at the end of the
  decode unit: it costs k + l extra cycles;
* a covered (correctly predicted / slot-masked) branch costs nothing
  extra.

Because the machine never stalls for any other reason, total cycles =
pipeline fill + instructions retired + squash penalties, which this
simulator computes from the predictor's per-record outcomes over a
branch trace.  Comparing its cycles-per-branch against the analytic
equation (which replaces the per-class penalties with the averaged
k + l_bar + m_bar) is the model-validation ablation in DESIGN.md.
"""

from repro.vm.tracing import BranchClass


class CycleStats:
    """Outcome of a cycle simulation.

    ``squashed_by_class`` attributes the squash penalty to branch
    classes (:class:`~repro.vm.tracing.BranchClass` codes): which kind
    of branch a scheme actually pays for.
    """

    __slots__ = ("cycles", "instructions", "branches", "squashed_cycles",
                 "mispredictions", "fill_cycles", "squashed_by_class")

    def __init__(self, cycles, instructions, branches, squashed_cycles,
                 mispredictions, fill_cycles, squashed_by_class=None):
        self.cycles = cycles
        self.instructions = instructions
        self.branches = branches
        self.squashed_cycles = squashed_cycles
        self.mispredictions = mispredictions
        self.fill_cycles = fill_cycles
        self.squashed_by_class = dict(squashed_by_class or {})

    @property
    def cycles_per_instruction(self):
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def cost_per_branch(self):
        """Cycles attributable to each branch: 1 + its share of squash.

        This is the quantity the paper's cost equation predicts.
        """
        if self.branches == 0:
            return 0.0
        return 1.0 + self.squashed_cycles / self.branches

    @property
    def squashed_conditional(self):
        """Squash cycles paid at mispredicted conditional branches."""
        return self.squashed_by_class.get(BranchClass.CONDITIONAL, 0)

    @property
    def squashed_unconditional(self):
        """Squash cycles paid at uncovered unconditional branches."""
        return sum(cycles for branch_class, cycles
                   in self.squashed_by_class.items()
                   if branch_class != BranchClass.CONDITIONAL)

    def __repr__(self):
        return ("CycleStats(%d cycles, %d instructions, CPI=%.3f, "
                "cost/branch=%.3f)" % (self.cycles, self.instructions,
                                       self.cycles_per_instruction,
                                       self.cost_per_branch))


class CycleSimulator:
    """Replays a branch trace through the pipeline with a predictor.

    Args:
        config: :class:`~repro.pipeline.config.PipelineConfig`; the
            simulator uses the integer stage counts k, l, m (not the
            averaged penalties — those belong to the analytic model).
        predictor: a pristine predictor with a batch kernel
            (:func:`repro.kernels.supports`).
        ras_returns: model the shared return-address mechanism (returns
            always covered); matches the accounting of
            :func:`repro.predictors.base.simulate`.

    Every run goes through the batch cycle kernel
    (:mod:`repro.kernels.cycle`), which leaves the predictor object
    untouched.  The record-at-a-time reference is
    :class:`~repro.conformance.oracles.OracleCycleInterpreter`.
    """

    def __init__(self, config, predictor, ras_returns=True):
        self.config = config
        self.predictor = predictor
        self.ras_returns = ras_returns

    def run(self, trace):
        """Simulate ``trace``; returns :class:`CycleStats`.

        Raises ValueError for a predictor with no kernel or with warm
        state, which the kernel cannot reproduce.
        """
        from repro.kernels import is_pristine, supports
        from repro.kernels.cycle import cycle_kernel

        name = type(self.predictor).__name__
        if not supports(self.predictor):
            raise ValueError("no cycle kernel for %s" % name)
        if not is_pristine(self.predictor):
            raise ValueError("cycle simulation needs a pristine %s "
                             "(reset() it first)" % name)
        stats = CycleStats(**cycle_kernel(self.config, self.predictor,
                                          trace, self.ras_returns))
        self._report(stats)
        return stats

    def _report(self, stats):
        from repro.telemetry.core import TELEMETRY
        if TELEMETRY.enabled:
            TELEMETRY.count("cycle_sim.runs")
            TELEMETRY.count("cycle_sim.squashed_cycles",
                            stats.squashed_cycles)
            TELEMETRY.event(
                "cycle_sim.run", predictor=self.predictor.name,
                cycles=stats.cycles,
                instructions=stats.instructions,
                branches=stats.branches,
                mispredictions=stats.mispredictions,
                cycles_per_instruction=stats.cycles_per_instruction,
                cost_per_branch=stats.cost_per_branch,
                squashed_by_class={
                    BranchClass.NAMES[code]: cycles
                    for code, cycles in stats.squashed_by_class.items()})

    def run_with_icache(self, trace, entry, icache, miss_penalty=8):
        """Simulate with an instruction cache in the fetch path.

        The fetch stream is reconstructed from the (single-run) trace
        via :mod:`repro.pipeline.fetch_stream`; every cache-line miss
        stalls the pipeline ``miss_penalty`` cycles on top of the
        squash accounting of :meth:`run`.

        Returns (:class:`CycleStats`, cache miss count).  ``icache``
        accumulates its own :class:`~repro.icache.CacheStats`.
        """
        from repro.pipeline.fetch_stream import fetch_segments

        base = self.run(trace)
        misses = 0
        for start, length in fetch_segments(trace, entry):
            misses += icache.access_range(start, length)
        cycles = base.cycles + misses * miss_penalty
        stats = CycleStats(cycles, base.instructions, base.branches,
                           base.squashed_cycles, base.mispredictions,
                           base.fill_cycles, base.squashed_by_class)
        return stats, misses
