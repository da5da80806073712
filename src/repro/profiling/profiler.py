"""Block and branch profiles accumulated over one or more runs."""

import numpy as np

from repro.cfg import ControlFlowGraph
from repro.vm.machine import Machine
from repro.vm.tracing import BranchClass


def _fold(counts, keys):
    """Add the occurrence count of each value of ``keys`` to ``counts``."""
    values, tallies = np.unique(keys, return_counts=True)
    for key, tally in zip(values.tolist(), tallies.tolist()):
        counts[key] = counts.get(key, 0) + tally


class Profile:
    """Execution profile of a program over an input suite.

    Attributes:
        block_counts: leader address -> number of times the block ran.
        branch_execs: conditional branch site -> executions.
        branch_taken: conditional branch site -> taken count.
        edge_counts: (site, target) -> taken-transfer count, for
            conditional (taken direction), JUMP, CALL, and JIND records.
        runs: number of profiling runs accumulated.
        total_instructions: dynamic instructions over all runs.
    """

    def __init__(self):
        self.block_counts = {}
        self.branch_execs = {}
        self.branch_taken = {}
        self.edge_counts = {}
        self.runs = 0
        self.total_instructions = 0

    # -- accumulation ------------------------------------------------------

    def add_run(self, probe_counts, trace):
        """Fold one profiling run (probe counts + branch trace) in."""
        for leader, count in probe_counts.items():
            self.block_counts[leader] = self.block_counts.get(leader, 0) + count
        self.add_trace(trace)
        self.runs += 1

    def add_trace(self, trace):
        """Fold a branch trace's per-site statistics in.

        Columnar: each statistic is one ``np.unique`` count over the
        records it covers, folded into the dicts as Python ints.
        """
        sites = trace.sites
        conditional = trace.classes == BranchClass.CONDITIONAL
        taken = conditional & trace.takens
        _fold(self.branch_execs, sites[conditional])
        _fold(self.branch_taken, sites[taken])
        # Taken conditionals plus every unconditional transfer except
        # returns (their targets follow from the call stack).
        edge = taken | ~(conditional
                         | (trace.classes == BranchClass.RETURN))
        targets = trace.targets[edge]
        if len(targets):
            # Pack (site, target) into one int64 key: site * span +
            # target offset sorts exactly like the pair.
            low = int(targets.min())
            span = int(targets.max()) - low + 1
            keys = sites[edge] * span + (targets - low)
            keys, counts = np.unique(keys, return_counts=True)
            edges = self.edge_counts
            for key, count in zip(keys.tolist(), counts.tolist()):
                site, offset = divmod(key, span)
                edge_key = (site, low + offset)
                edges[edge_key] = edges.get(edge_key, 0) + count
        self.total_instructions += trace.total_instructions

    # -- queries -------------------------------------------------------------

    def block_weight(self, leader):
        """Execution count of the block starting at ``leader``."""
        return self.block_counts.get(leader, 0)

    def taken_fraction(self, site):
        """Fraction of executions of conditional branch ``site`` taken.

        Returns None when the branch never executed in the profile.
        """
        execs = self.branch_execs.get(site, 0)
        if execs == 0:
            return None
        return self.branch_taken.get(site, 0) / execs

    def edge_count(self, source_site, target):
        return self.edge_counts.get((source_site, target), 0)

    # -- serialisation ----------------------------------------------------------

    def to_dict(self):
        """A JSON-serialisable representation (for on-disk caching)."""
        return {
            "block_counts": sorted(self.block_counts.items()),
            "branch_execs": sorted(self.branch_execs.items()),
            "branch_taken": sorted(self.branch_taken.items()),
            "edge_counts": sorted(
                ([site, target], count)
                for (site, target), count in self.edge_counts.items()
            ),
            "runs": self.runs,
            "total_instructions": self.total_instructions,
        }

    @classmethod
    def from_dict(cls, data):
        profile = cls()
        profile.block_counts = {key: value for key, value in data["block_counts"]}
        profile.branch_execs = {key: value for key, value in data["branch_execs"]}
        profile.branch_taken = {key: value for key, value in data["branch_taken"]}
        profile.edge_counts = {
            (edge[0], edge[1]): count for edge, count in data["edge_counts"]
        }
        profile.runs = data["runs"]
        profile.total_instructions = data["total_instructions"]
        return profile

    def __repr__(self):
        return "Profile(%d runs, %d blocks, %d cond sites, %d instructions)" % (
            self.runs, len(self.block_counts), len(self.branch_execs),
            self.total_instructions)


def profile_program(program, input_suite, cfg=None,
                    max_instructions=200_000_000):
    """Profile ``program`` over ``input_suite``.

    Args:
        program: resolved program.
        input_suite: list of runs, each a sequence of input streams.
        cfg: optional pre-built :class:`ControlFlowGraph`.
        max_instructions: per-run instruction budget.

    Returns:
        (profile, outputs) — the accumulated :class:`Profile` and the
        list of per-run output byte strings (useful for checking the
        transformed program later).
    """
    if cfg is None:
        cfg = ControlFlowGraph.from_program(program)
    leaders = cfg.leaders
    profile = Profile()
    outputs = []
    for streams in input_suite:
        machine = Machine(program, inputs=streams, trace=True,
                          probe_addresses=leaders,
                          max_instructions=max_instructions)
        result = machine.run()
        profile.add_run(result.probe_counts, result.trace)
        outputs.append(result.output)
    return profile, outputs

