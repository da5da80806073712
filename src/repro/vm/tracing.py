"""Branch traces and trace statistics.

A *branch record* captures one dynamic execution of a branch
instruction; the sequence of records plus the total dynamic instruction
count is everything the predictors, the cost model, and Tables 1-3 need.

Records are stored column-wise as NumPy arrays, each in the narrowest
dtype that holds its range, the one form a trace takes from the VM's
last instruction through the ``.npz`` trace cache
(:meth:`BranchTrace.to_arrays`) to the simulation kernels.
"""

import numpy as np


class BranchClass:
    """Integer codes classifying a dynamic branch."""

    CONDITIONAL = 0
    UNCONDITIONAL_KNOWN = 1    # direct jump / call
    UNCONDITIONAL_UNKNOWN = 2  # indirect jump (switch jump table)
    RETURN = 3                 # procedure return: known-target via the
                               # call-return discipline (see DESIGN.md)

    NAMES = {
        CONDITIONAL: "conditional",
        UNCONDITIONAL_KNOWN: "unconditional-known",
        UNCONDITIONAL_UNKNOWN: "unconditional-unknown",
        RETURN: "return",
    }


#: The trace columns, in record-tuple order.
_COLUMNS = ("sites", "classes", "takens", "targets", "gaps")

#: The arrays of the on-disk layout (see :meth:`BranchTrace.to_arrays`).
_STORED = ("sites", "targets", "gaps", "flags", "total_instructions")


class BranchRecord:
    """One dynamic branch execution (a convenience row view)."""

    __slots__ = ("site", "branch_class", "taken", "target", "gap")

    def __init__(self, site, branch_class, taken, target, gap):
        self.site = site
        self.branch_class = branch_class
        self.taken = taken
        self.target = target
        self.gap = gap

    @property
    def is_conditional(self):
        return self.branch_class == BranchClass.CONDITIONAL

    @property
    def target_known(self):
        """Known-target branches in the Table 2 sense.

        Conditional branches, direct jumps/calls, and returns (whose
        targets follow from the call-return discipline) are "known";
        only jump-table indirections are "unknown".
        """
        return self.branch_class != BranchClass.UNCONDITIONAL_UNKNOWN

    def __repr__(self):
        return "BranchRecord(site=%d, %s, taken=%s, target=%d, gap=%d)" % (
            self.site, BranchClass.NAMES[self.branch_class],
            self.taken, self.target, self.gap,
        )

    def __eq__(self, other):
        if not isinstance(other, BranchRecord):
            return NotImplemented
        return (self.site == other.site
                and self.branch_class == other.branch_class
                and self.taken == other.taken
                and self.target == other.target
                and self.gap == other.gap)


class BranchTrace:
    """The dynamic branch stream of one (or several merged) program runs.

    Column-wise storage, one NumPy array per field:
        sites: branch instruction address per record,
        classes: :class:`BranchClass` code per record (int8),
        takens: True when the branch transferred control (bool),
        targets: actual target address (meaningful when taken; for
            not-taken conditionals it is the would-be taken target),
        gaps: non-branch instructions executed since the previous
            branch.

    Sites, targets and gaps are each held in the narrowest signed
    dtype that holds the column's range: int8, int16 or int32, and
    int64 only beyond int32.  Arithmetic that can leave that range
    (sums, offsets, masks wider than the dtype) widens first.

    ``total_instructions`` counts every executed instruction including
    the branches themselves; it defaults to ``sum(gaps) + len``, the
    count of a trace whose last record ends the run.  The constructor
    raises ``ValueError`` unless the five columns are 1-D and of equal
    length.  A trace is never grown after it is built: merge runs with
    :meth:`concatenate`.
    """

    def __init__(self, sites=(), classes=(), takens=(), targets=(),
                 gaps=(), total_instructions=None):
        self.sites = _narrowed(sites)
        self.classes = np.asarray(classes, dtype=np.int8)
        self.takens = np.asarray(takens, dtype=bool)
        self.targets = _narrowed(targets)
        self.gaps = _narrowed(gaps)
        shapes = {getattr(self, column).shape for column in _COLUMNS}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(
                "trace columns must be 1-D and of equal length, got "
                + ", ".join("%s %s" % (column, getattr(self, column).shape)
                            for column in _COLUMNS))
        if total_instructions is None:
            total_instructions = (int(self.gaps.sum(dtype=np.int64))
                                  + len(self.sites))
        self.total_instructions = int(total_instructions)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_records(cls, records, total_instructions=None):
        """Build from ``(site, branch_class, taken, target, gap)`` rows."""
        columns = tuple(zip(*records)) or ((),) * 5
        return cls(*columns, total_instructions=total_instructions)

    @classmethod
    def concatenate(cls, traces):
        """One trace of ``traces``' records in order (merging runs)."""
        return cls(*(np.concatenate([getattr(trace, column)
                                     for trace in traces])
                     for column in _COLUMNS),
                   total_instructions=sum(trace.total_instructions
                                          for trace in traces))

    # -- access -------------------------------------------------------------

    def __len__(self):
        return len(self.sites)

    def __getitem__(self, index):
        return BranchRecord(*(getattr(self, column)[index].item()
                              for column in _COLUMNS))

    def records(self):
        """Iterate over (site, branch_class, taken, target, gap) tuples
        of plain Python ints and bools."""
        return zip(*(getattr(self, column).tolist()
                     for column in _COLUMNS))

    # -- statistics -----------------------------------------------------------

    def stats(self):
        """Compute :class:`TraceStats` over all records."""
        stats = TraceStats()
        stats.total_instructions = self.total_instructions
        conditional = self.classes == BranchClass.CONDITIONAL
        taken_conditional = int(
            np.count_nonzero(self.takens & conditional))
        stats.conditional_taken = taken_conditional
        stats.conditional_not_taken = (
            int(np.count_nonzero(conditional)) - taken_conditional)
        stats.unconditional_unknown = int(np.count_nonzero(
            self.classes == BranchClass.UNCONDITIONAL_UNKNOWN))
        # Direct jumps, calls, and returns all have known targets.
        stats.unconditional_known = (
            len(self) - stats.conditional - stats.unconditional_unknown)
        return stats

    # -- serialisation -----------------------------------------------------------

    def to_arrays(self):
        """The arrays of the on-disk cache layout.

        Sites, targets and gaps are stored as held, in their narrowest
        dtypes, and class and taken share one int8 ``flags`` column
        (``class << 1 | taken``).
        """
        flags = self.classes << 1
        flags |= self.takens
        return {
            "sites": self.sites,
            "targets": self.targets,
            "gaps": self.gaps,
            "flags": flags,
            "total_instructions": np.int64(self.total_instructions),
        }

    @classmethod
    def from_arrays(cls, arrays):
        """Rebuild a trace saved by :meth:`to_arrays`, its columns in
        their stored (narrowest) dtypes.

        Raises ``ValueError`` unless every column is a signed integer
        array, every flag lies in [0, 7], no gap is negative and the
        records fit ``total_instructions`` (``sum(gaps) + len`` may
        fall short of it only by instructions after a run's last
        branch).
        """
        columns = {key: arrays[key] for key in _STORED}
        for key, column in columns.items():
            if not np.issubdtype(column.dtype, np.signedinteger):
                raise ValueError("trace column %s has dtype %s, not a "
                                 "signed integer" % (key, column.dtype))
        flags, gaps = columns["flags"], columns["gaps"]
        if columns["total_instructions"].shape:
            raise ValueError("trace total_instructions is not a scalar")
        total = int(columns["total_instructions"])
        if flags.size and not 0 <= flags.min() <= flags.max() <= 7:
            raise ValueError("trace flags outside [0, 7]")
        if gaps.size and gaps.min() < 0:
            raise ValueError("trace has a negative gap")
        if int(gaps.sum(dtype=np.int64)) + gaps.size > total:
            raise ValueError("trace records exceed its %d instructions"
                             % total)
        return cls(columns["sites"], flags >> 1, flags & 1,
                   columns["targets"], gaps, total_instructions=total)


#: (dtype, lowest, highest) of the narrow signed dtypes, narrowest
#: first; read once, since ``np.iinfo`` costs a microsecond a call.
_NARROW = tuple((dtype, int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
                for dtype in (np.int8, np.int16, np.int32))


def _narrowed(column):
    """``column`` as an array in the narrowest signed dtype holding its
    range (int64 beyond int32); no copy when it already is one."""
    column = np.asarray(column)
    if column.dtype.kind != "i":
        column = column.astype(np.int64)
    if not column.size:
        return column.astype(np.int8, copy=False)
    low, high = int(column.min()), int(column.max())
    for dtype, lowest, highest in _NARROW:
        if lowest <= low and high <= highest:
            return column.astype(dtype, copy=False)
    return column


class TraceStats:
    """Aggregate branch statistics of a trace (Tables 1 and 2)."""

    def __init__(self):
        self.total_instructions = 0
        self.conditional_taken = 0
        self.conditional_not_taken = 0
        self.unconditional_known = 0
        self.unconditional_unknown = 0

    @property
    def conditional(self):
        return self.conditional_taken + self.conditional_not_taken

    @property
    def unconditional(self):
        return self.unconditional_known + self.unconditional_unknown

    @property
    def branches(self):
        return self.conditional + self.unconditional

    @property
    def control_fraction(self):
        """Fraction of dynamic instructions that are branches (Table 1)."""
        if self.total_instructions == 0:
            return 0.0
        return self.branches / self.total_instructions

    @property
    def taken_fraction(self):
        """Fraction of conditional branches that are taken (Table 2)."""
        if self.conditional == 0:
            return 0.0
        return self.conditional_taken / self.conditional

    @property
    def known_fraction(self):
        """Fraction of unconditional branches with known targets (Table 2)."""
        if self.unconditional == 0:
            return 0.0
        return self.unconditional_known / self.unconditional

    def __repr__(self):
        return ("TraceStats(instructions=%d, cond=%d (%.1f%% taken), "
                "uncond=%d (%.1f%% known))" % (
                    self.total_instructions, self.conditional,
                    100.0 * self.taken_fraction, self.unconditional,
                    100.0 * self.known_fraction))
