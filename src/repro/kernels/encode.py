"""Column-array view of branch traces for the batch kernels.

:class:`~repro.vm.tracing.BranchTrace` already holds its five columns
as NumPy arrays; :class:`EncodedTrace` wraps those same arrays (no
copy) and adds what only the kernels need: memoized derived
structures — the stable per-site grouping and what is read off it
(the distinct-site table, each record's previous same-site record),
per-cache-set groupings, filtered sub-encodings — because a sweep
simulates several schemes over the same trace and the sort work is
identical across them.  A trace's sites are sorted once: the
distinct sites come from the site grouping, not from a second sort.
The encoding is memoized on the trace object, which is sound because
a trace is never grown after it is built; a caller done with every
simulation it will run over a trace frees the memo with
:meth:`EncodedTrace.release`.

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
    is None or each record's flush epoch, and ``gaps`` is None in a
    :meth:`subset`."""

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

    @staticmethod
    def release(trace):
        """Drop ``trace``'s memoized encoding and everything derived
        from it; the next :meth:`of` builds a fresh one."""
        trace.__dict__.pop("_encoded", None)

    def flushed(self, interval):
        """This encoding with flush epochs; call it before filtering
        (a subset has no gaps to count epochs from)."""
        if self.gaps is None:
            raise ValueError("flush epochs count every record: call "
                             "flushed() before subset()")
        return EncodedTrace(self.sites, self.classes, self.takens,
                            self.targets, self.gaps,
                            flush_epochs(self.gaps, interval))

    def qualify(self, keys, rows=None):
        """``keys`` (of the records ``rows``, default all) made distinct
        per flush epoch; unchanged without epochs.

        Keys are offset by their minimum first, so that negative keys
        of one epoch cannot meet the keys of the next.
        """
        if self.epochs is None or not keys.shape[0]:
            return keys
        epochs = self.epochs if rows is None else self.epochs[rows]
        low = int(keys.min())
        return epochs * (int(keys.max()) - low + 1) + (keys - low)

    def set_ids(self, n_sets):
        """Each record's cache set out of ``n_sets``."""
        return self.qualify(self.sites % n_sets)

    # -- memoized derived structures --------------------------------------

    def _memoized(self, key, build):
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = build()
        return cached

    def subset(self, key, mask):
        """The records where ``mask`` (memoized; ``key`` names the rule).

        A subset carries no gaps: no kernel reads them, and flush
        epochs are counted over every record before filtering.
        """
        return self._memoized(("subset", key), lambda: EncodedTrace(
            self.sites[mask], self.classes[mask], self.takens[mask],
            self.targets[mask], None,
            None if self.epochs is None else self.epochs[mask]))

    def site_groups(self):
        """Records grouped by branch site, per flush epoch (memoized)."""
        from repro.kernels.scan import Groups

        return self._memoized("site_groups",
                              lambda: Groups(self.qualify(self.sites)))

    def plain_site_groups(self):
        """Records grouped by branch site alone, across flush epochs
        (memoized; :meth:`site_groups` itself when there are none)."""
        from repro.kernels.scan import Groups

        if self.epochs is None:
            return self.site_groups()
        return self._memoized("plain_site_groups",
                              lambda: Groups(self.sites))

    def set_groups(self, n_sets):
        """Records grouped by cache set (memoized per set count)."""
        from repro.kernels.scan import Groups

        return self._memoized(("set_groups", n_sets),
                              lambda: Groups(self.set_ids(n_sets)))

    def previous_index(self):
        """Each record's previous same-site record, -1 for none, per
        flush epoch (memoized: the SBTB and CBTB share it)."""
        from repro.kernels.scan import previous_index

        return self._memoized(
            "previous_index", lambda: previous_index(self.site_groups()))

    def unique_sites(self):
        """The distinct sites, ascending, as ``np.unique`` returns them
        (memoized).  Read off :meth:`plain_site_groups`, whose sort
        already put equal sites together: no second sort."""
        def build():
            groups = self.plain_site_groups()
            return self.sites[groups.order[groups.starts]]

        return self._memoized("unique_sites", build)

    def site_inverse(self):
        """Each record's index into :meth:`unique_sites`, as
        ``np.unique``'s ``return_inverse`` (memoized, built on first
        use)."""
        def build():
            groups = self.plain_site_groups()
            inverse = np.empty(len(self), dtype=np.intp)
            inverse[groups.order] = groups.seg_ids
            return inverse

        return self._memoized("site_inverse", build)
