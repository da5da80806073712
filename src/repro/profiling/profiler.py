"""Block and branch profiles folded from the block paths of runs."""

import numpy as np

from repro.cfg import compute_leaders
from repro.vm.machine import run_program
from repro.vm.tracing import BranchClass


class Profile:
    """Execution profile of a program over an input suite.

    Holds what trace selection and the likely bits read: block counts
    and branch directions.

    Attributes:
        block_counts: leader address -> number of times the block ran.
        branch_execs: conditional branch site -> executions.
        branch_taken: conditional branch site -> taken count.
    """

    def __init__(self):
        self.block_counts = {}
        self.branch_execs = {}
        self.branch_taken = {}

    @classmethod
    def from_paths(cls, program, paths):
        """The profile of runs of ``program`` that followed ``paths``
        (:class:`~repro.vm.compiled.BlockPath`).

        Block counts are a ``bincount`` of the starts at the CFG
        leaders (exact, because compiled blocks split at every leader;
        a leader that never ran counts 0).  Directions follow
        :meth:`~repro.vm.compiled.BlockTables.taken`, as in traces.
        """
        # Imported here, so importing the profiler does not load the
        # compiled VM: only a cold run folds a profile.
        from repro.vm.compiled import block_tables

        leaders = compute_leaders(program)
        tables = block_tables(program, leaders)
        size = len(program.instructions)
        blocks = np.zeros(size, dtype=np.int64)
        execs = np.zeros(size, dtype=np.int64)
        taken = np.zeros(size, dtype=np.int64)
        for path in paths:
            starts = path.starts.astype(np.intp, copy=False)
            blocks += np.bincount(starts, minlength=size)
            # A path ends in its HALT block, so every branch has a
            # following start.
            records = np.flatnonzero(
                tables.kinds[starts] == BranchClass.CONDITIONAL)
            entered = starts[records]
            sites = tables.ends[entered]
            execs += np.bincount(sites, minlength=size)
            takens = tables.taken(entered, starts[records + 1],
                                  path.directions)
            taken += np.bincount(sites[takens], minlength=size)
        profile = cls()
        profile.block_counts = dict(zip(leaders, blocks[leaders].tolist()))
        profile.branch_execs = {site: count for site, count
                                in enumerate(execs.tolist()) if count}
        profile.branch_taken = {site: count for site, count
                                in enumerate(taken.tolist()) if count}
        return profile

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

    def check(self, program):
        """Raise ValueError unless the counts fit ``program``'s CFG:
        every counted site ends a CFG block with a conditional, whose
        executions equal its block's count, and ``0 <= taken <= execs``.
        Measured and estimated profiles both hold these."""
        leaders = compute_leaders(program)
        ends = leaders[1:] + [len(program.instructions)]
        blocks = {}     # conditional site -> its block's count
        for start, end in zip(leaders, ends):
            if program.instructions[end - 1].is_conditional:
                blocks[end - 1] = self.block_counts.get(start, 0)
        for site in blocks.keys() | self.branch_execs.keys() \
                | self.branch_taken.keys():
            execs = self.branch_execs.get(site, 0)
            taken = self.branch_taken.get(site, 0)
            if blocks.get(site) != execs or not 0 <= taken <= execs:
                raise ValueError(
                    "branch site %d: %d executions, %d taken, block "
                    "count %s" % (site, execs, taken, blocks.get(site)))

    # -- serialisation ----------------------------------------------------------

    def to_dict(self):
        """A JSON-serialisable representation (for on-disk caching)."""
        return {
            "block_counts": sorted(self.block_counts.items()),
            "branch_execs": sorted(self.branch_execs.items()),
            "branch_taken": sorted(self.branch_taken.items()),
        }

    @classmethod
    def from_dict(cls, data):
        profile = cls()
        profile.block_counts = {key: value for key, value in data["block_counts"]}
        profile.branch_execs = {key: value for key, value in data["branch_execs"]}
        profile.branch_taken = {key: value for key, value in data["branch_taken"]}
        return profile

    def __repr__(self):
        return "%s(%d blocks, %d cond sites)" % (
            type(self).__name__, len(self.block_counts),
            len(self.branch_execs))


def checked_paths(program, paths):
    """``paths``, the block paths of runs of ``program`` in input order.

    Raises RuntimeError naming the program and the first input whose
    run went to the reference interpreter, which records no path.
    """
    missing = [index for index, path in enumerate(paths) if path is None]
    if missing:
        raise RuntimeError(
            "%s: input %d of %d ran on the reference interpreter, so it "
            "has no block path to profile and lay out (an indirect jump "
            "to a pc that starts no compiled block, or a call chain too "
            "deep for the compiled VM)"
            % (program.name, missing[0] + 1, len(paths)))
    return paths


def profile_program(program, input_suite, max_instructions=200_000_000):
    """Run ``program`` on each entry of ``input_suite`` (a list of
    input-stream sequences) within ``max_instructions`` per run.

    Returns ``(profile, outputs)``: the :class:`Profile` folded from the
    runs' block paths and each run's output bytes.
    """
    results = [run_program(program, inputs=streams,
                           max_instructions=max_instructions)
               for streams in input_suite]
    paths = checked_paths(program, [result.block_path for result in results])
    return (Profile.from_paths(program, paths),
            [result.output for result in results])
