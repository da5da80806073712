"""Column-array view of branch traces for the batch kernels.

:class:`~repro.vm.tracing.BranchTrace` already holds its five columns
as NumPy arrays; :class:`EncodedTrace` wraps those same arrays (no
copy) and adds what only the kernels need: memoized derived
structures — the stable per-site grouping, per-cache-set groupings,
the distinct-site table, filtered sub-encodings — because a sweep
simulates several schemes over the same trace and the sort work is
identical across them.  The encoding is memoized on the trace object,
which is sound because a trace is never grown after it is built.

A context-switch run adds a sixth column, each record's flush epoch
(:meth:`EncodedTrace.flushed`); that encoding keys its groupings by
``(epoch, key)`` in its own memo, never under the plain keys.

This module deliberately imports nothing from ``repro`` outside the
kernels package, so the trace layer can depend on it without cycles.
"""

import numpy as np


def flush_epochs(gaps, interval):
    """Flushes before each record, as the reference loop counts them.

    The loop flushes at most once per record, so with
    ``q = cumsum(gaps + 1) // interval`` the count is
    ``F_i = min(q_i, F_(i-1) + 1)``, ``F_(-1) = 0``: in closed form
    ``i + min(1, min over j <= i of (q_j - j))``.
    """
    if interval < 1:
        raise ValueError("flush_interval must be at least 1")
    index = np.arange(gaps.shape[0], dtype=np.int64)
    due = np.cumsum(gaps.astype(np.int64) + 1) // interval
    return index + np.minimum(1, np.minimum.accumulate(due - index))


class EncodedTrace:
    """The trace columns as NumPy arrays, in record order; ``epochs``
    is None or each record's flush epoch."""

    __slots__ = ("sites", "classes", "takens", "targets", "gaps", "epochs",
                 "_memo")

    def __init__(self, sites, classes, takens, targets, gaps, epochs=None):
        self.sites = sites
        self.classes = classes
        self.takens = takens
        self.targets = targets
        self.gaps = gaps
        self.epochs = epochs
        self._memo = {}

    def __len__(self):
        return int(self.sites.shape[0])

    @classmethod
    def of(cls, trace):
        """The (memoized) encoding of a :class:`BranchTrace`."""
        encoded = getattr(trace, "_encoded", None)
        if encoded is None:
            encoded = trace._encoded = cls(
                trace.sites, trace.classes, trace.takens, trace.targets,
                trace.gaps)
        return encoded

    def flushed(self, interval):
        """This encoding with flush epochs; call it before filtering."""
        return EncodedTrace(self.sites, self.classes, self.takens,
                            self.targets, self.gaps,
                            flush_epochs(self.gaps, interval))

    def qualify(self, keys, rows=None):
        """``keys`` (of the records ``rows``, default all) made distinct
        per flush epoch; unchanged without epochs."""
        if self.epochs is None or not keys.shape[0]:
            return keys
        epochs = self.epochs if rows is None else self.epochs[rows]
        return epochs * (int(keys.max()) + 1) + keys

    def set_ids(self, n_sets):
        """Each record's cache set out of ``n_sets``."""
        return self.qualify(self.sites % n_sets)

    # -- memoized derived structures --------------------------------------

    def subset(self, key, mask):
        """The records where ``mask`` (memoized; ``key`` names the rule)."""
        cached = self._memo.get(("subset", key))
        if cached is None:
            cached = self._memo[("subset", key)] = EncodedTrace(
                self.sites[mask], self.classes[mask], self.takens[mask],
                self.targets[mask], self.gaps[mask],
                None if self.epochs is None else self.epochs[mask])
        return cached

    def site_groups(self):
        """Records grouped by branch site (memoized)."""
        from repro.kernels.scan import Groups

        cached = self._memo.get("site_groups")
        if cached is None:
            cached = self._memo["site_groups"] = Groups(
                self.qualify(self.sites))
        return cached

    def set_groups(self, n_sets):
        """Records grouped by cache set (memoized per set count)."""
        from repro.kernels.scan import Groups

        cached = self._memo.get(("set_groups", n_sets))
        if cached is None:
            cached = Groups(self.set_ids(n_sets))
            self._memo[("set_groups", n_sets)] = cached
        return cached

    def unique_sites(self):
        """``(distinct_sites, inverse)`` as from np.unique (memoized)."""
        cached = self._memo.get("unique_sites")
        if cached is None:
            cached = np.unique(self.sites, return_inverse=True)
            self._memo["unique_sites"] = cached
        return cached
