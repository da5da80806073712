"""Column-array view of branch traces for the batch kernels.

:class:`~repro.vm.tracing.BranchTrace` already holds its five columns
as NumPy arrays; :class:`EncodedTrace` wraps those same arrays (no
copy) and memoizes what the kernels derive from them, because a sweep
simulates several schemes over the same trace and the sort work is
identical across them.

Every kernel reads a :class:`SiteView`: the records one simulation
sees, filtered and stably sorted by site in one pass, with their
outcome, class and target columns gathered into that order once.
Every buffer question is per site, and every fold of the answers only
counts, so the kernels run and are scored in view order.  The view
keeps ``order`` for the two answers that need trace order: the
direction schemes' counter and history bits, computed over the
conditional records of the view's source encoding (no filter drops a
conditional record) and gathered into view order, and the eviction
replay (:meth:`SiteView.in_trace_order`).

The encoding is memoized on the trace object, which is sound because
a trace is never grown after it is built; a caller done with every
simulation it will run over a trace frees the memo, views included,
with :meth:`EncodedTrace.release`.

A context-switch run adds a sixth column, each record's flush epoch
(:meth:`EncodedTrace.flushed`, memoized per interval on the plain
encoding); that encoding keys its groupings and views by
``(epoch, key)`` in its own memo, never under the plain keys.

This module deliberately imports nothing from ``repro`` outside the
kernels package at import time, so the trace layer can depend on it
without cycles.
"""

import numpy as np

from repro.kernels import scan


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
    view's :meth:`SiteView.in_trace_order`."""

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
        """This encoding with flush epochs (memoized per interval), so
        runs with the same interval share its views."""
        return self._memoized(("flushed", interval), lambda: EncodedTrace(
            self.sites, self.classes, self.takens, self.targets,
            self.gaps, flush_epochs(self.gaps, interval)))

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
        # Narrow keys would wrap in ``keys - low``: offset them in int64.
        return (epochs * (int(keys.max()) - low + 1)
                + np.subtract(keys, low, dtype=np.int64))

    def set_ids(self, n_sets):
        """Each record's cache set out of ``n_sets`` (int64: a set
        count may not fit the sites' dtype)."""
        return self.qualify(np.remainder(self.sites, n_sets,
                                         dtype=np.int64))

    # -- memoized derived structures --------------------------------------

    def _memoized(self, key, build):
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = build()
        return cached

    def set_groups(self, n_sets):
        """Records grouped by cache set (memoized per set count)."""
        return self._memoized(("set_groups", n_sets),
                              lambda: scan.Groups(self.set_ids(n_sets)))

    def site_view(self, rule, drop):
        """The :class:`SiteView` of the records this encoding keeps
        under ``rule`` (memoized per rule); ``drop(self)`` is the mask
        of the records the rule filters out, or ``drop`` is None."""
        return self._memoized(("site_view", rule),
                              lambda: SiteView(self, drop))


class SiteView:
    """The records one simulation shows a predictor, sorted by site.

    A stable sort of the encoding's records by (epoch-qualified) site,
    with the records a filter drops sorted past the end and cut off,
    so each site's records in one flush epoch form a contiguous
    *segment* in trace order.  Every kernel answers its buffer
    questions per segment, so it runs and is scored in view order;
    ``order`` takes trace-order answers (the direction bits) into view
    order and view-order ones back for the eviction replay.

    Attributes (over view rows, unless named per segment):
        source: the unfiltered encoding the view sorts (no copy).
        order: each row's record index in ``source``.
        starts: True at each segment's first row.
        lengths: rows per segment.
        distinct_sites: the distinct sites, ascending (across epochs).
        segment_site: each segment's index into ``distinct_sites``.
        takens, classes, targets: the source's columns, gathered.
    """

    __slots__ = ("source", "order", "starts", "lengths", "distinct_sites",
                 "segment_site", "takens", "classes", "targets",
                 "_class_totals", "_in_trace_order")

    def __init__(self, enc, drop):
        from repro.telemetry.core import TELEMETRY

        with TELEMETRY.span("kernels.sort_view", records=len(enc)):
            self._build(enc, None if drop is None else drop(enc))

    def _build(self, enc, drop):
        order, starts = scan.sort_segments(enc.qualify(enc.sites), drop)
        first = np.flatnonzero(starts)
        self.order = order
        self.starts = starts
        self.lengths = np.diff(first, append=order.shape[0])
        self.distinct_sites, self.segment_site = np.unique(
            enc.sites[order[first]], return_inverse=True)
        self.takens = enc.takens[order]
        self.classes = enc.classes[order]
        self.targets = enc.targets[order]
        # A fresh wrapper, not ``enc``: the view lives in enc's memo.
        self.source = EncodedTrace(enc.sites, enc.classes, enc.takens,
                                   enc.targets, None, enc.epochs)
        self._class_totals = None
        self._in_trace_order = None

    def __len__(self):
        return int(self.order.shape[0])

    def class_totals(self):
        """Rows per branch class code 0..3 (shared by every scheme)."""
        if self._class_totals is None:
            # Four compare-and-count passes beat a bincount, which
            # first copies the classes to intp.
            self._class_totals = [
                int(np.count_nonzero(self.classes == code))
                for code in range(4)]
        return self._class_totals

    def per_segment(self, values):
        """``values`` (one per distinct site) gathered per row."""
        return np.repeat(values[self.segment_site], self.lengths)

    def in_trace_order(self):
        """The view's records as an :class:`EncodedTrace` in trace
        order, and each of its records' view row (memoized)."""
        if self._in_trace_order is None:
            source = self.source
            position = np.full(len(source), -1, dtype=np.int64)
            position[self.order] = np.arange(len(self), dtype=np.int64)
            rows = np.flatnonzero(position >= 0)
            encoded = EncodedTrace(
                source.sites[rows], None, source.takens[rows],
                source.targets[rows], None,
                None if source.epochs is None else source.epochs[rows])
            self._in_trace_order = encoded, position[rows]
        return self._in_trace_order
