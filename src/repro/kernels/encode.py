"""Column-array view of branch traces for the batch kernels.

:class:`~repro.vm.tracing.BranchTrace` already holds its five columns
as NumPy arrays; :class:`EncodedTrace` wraps those same arrays (no
copy) and adds what only the kernels need: memoized derived
structures — the stable per-site grouping, per-cache-set groupings,
the distinct-site table, filtered sub-encodings — because a sweep
simulates several schemes over the same trace and the sort work is
identical across them.  The encoding is memoized on the trace object,
which is sound because a trace is never grown after it is built.

This module deliberately imports nothing from ``repro`` outside the
kernels package, so the trace layer can depend on it without cycles.
"""

import numpy as np


class EncodedTrace:
    """The five trace columns as NumPy arrays, in record order."""

    __slots__ = ("sites", "classes", "takens", "targets", "gaps", "_memo")

    def __init__(self, sites, classes, takens, targets, gaps):
        self.sites = sites
        self.classes = classes
        self.takens = takens
        self.targets = targets
        self.gaps = gaps
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

    def select(self, mask):
        """A new encoding holding only the records where ``mask``."""
        return EncodedTrace(
            self.sites[mask], self.classes[mask], self.takens[mask],
            self.targets[mask], self.gaps[mask])

    # -- memoized derived structures --------------------------------------

    def subset(self, key, mask):
        """Memoized :meth:`select` — ``key`` names the filter rule."""
        cached = self._memo.get(("subset", key))
        if cached is None:
            cached = self._memo[("subset", key)] = self.select(mask)
        return cached

    def site_groups(self):
        """Records grouped by branch site (memoized)."""
        from repro.kernels.scan import Groups

        cached = self._memo.get("site_groups")
        if cached is None:
            cached = self._memo["site_groups"] = Groups(self.sites)
        return cached

    def set_groups(self, n_sets):
        """Records grouped by cache set (memoized per set count)."""
        from repro.kernels.scan import Groups

        cached = self._memo.get(("set_groups", n_sets))
        if cached is None:
            cached = Groups(self.sites % n_sets)
            self._memo[("set_groups", n_sets)] = cached
        return cached

    def unique_sites(self):
        """``(distinct_sites, inverse)`` as from np.unique (memoized)."""
        cached = self._memo.get("unique_sites")
        if cached is None:
            cached = np.unique(self.sites, return_inverse=True)
            self._memo["unique_sites"] = cached
        return cached

