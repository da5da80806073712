"""Column-array view of branch traces for the batch kernels.

:class:`~repro.vm.tracing.BranchTrace` already holds its five columns
as NumPy arrays; :class:`EncodedTrace` wraps those same arrays (no
copy) and memoizes what the kernels derive from them, because a sweep
simulates several schemes over the same trace and the sort work is
identical across them.

The paper's schemes (SBTB, CBTB, FS, the static baselines) read a
:class:`SiteView`: the records one simulation sees, filtered and
stably sorted by site in one pass, with their outcome, class and
target columns gathered into that order once.  Every question those
kernels ask is per site, and every fold of their answers only counts,
so they run and are scored in view order; the view keeps ``order``
only to restore trace order for the eviction replay
(:meth:`SiteView.in_trace_order`).  The direction schemes, whose
history is global, read a trace-order encoding and its per-site and
per-set groupings instead.

The encoding is memoized on the trace object, which is sound because
a trace is never grown after it is built; a caller done with every
simulation it will run over a trace frees the memo, views included,
with :meth:`EncodedTrace.release`.

A context-switch run adds a sixth column, each record's flush epoch
(:meth:`EncodedTrace.flushed`); that encoding keys its groupings and
views by ``(epoch, key)`` in its own memo, never under the plain keys.

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
        """Records grouped by branch site, per flush epoch (memoized);
        the trace-order kernels' target store reads it."""
        return self._memoized("site_groups",
                              lambda: scan.Groups(self.qualify(self.sites)))

    def set_groups(self, n_sets):
        """Records grouped by cache set (memoized per set count)."""
        return self._memoized(("set_groups", n_sets),
                              lambda: scan.Groups(self.set_ids(n_sets)))

    def unique_sites(self):
        """The distinct sites, ascending, as ``np.unique`` returns them
        (memoized); read off :meth:`site_groups`, whose sort already
        put equal sites together."""
        def build():
            groups = self.site_groups()
            return np.unique(self.sites[groups.order[groups.starts]])

        return self._memoized("unique_sites", build)

    def class_totals(self):
        """Records per branch class code 0..3 (memoized)."""
        return self._memoized("class_totals",
                              lambda: class_totals(self.classes))

    def site_view(self, rule, drop):
        """The :class:`SiteView` of the records this encoding keeps
        under ``rule`` (memoized per rule); ``drop(self)`` is the mask
        of the records the rule filters out, or ``drop`` is None."""
        return self._memoized(("site_view", rule),
                              lambda: SiteView(self, drop))


def class_totals(classes):
    """How many of ``classes`` hold each branch class code 0..3."""
    # Four compare-and-count passes beat a bincount, which first
    # copies the classes to intp.
    return [int(np.count_nonzero(classes == code)) for code in range(4)]


class SiteView:
    """The records one simulation shows a predictor, sorted by site.

    A stable sort of the encoding's records by (epoch-qualified) site,
    with the records a filter drops sorted past the end and cut off,
    so each site's records in one flush epoch form a contiguous
    *segment* in trace order.  The paper's schemes answer every
    question per segment, so they run and are scored in view order;
    only the eviction replay needs trace order back, via ``order``.

    Attributes (over view rows, unless named per segment):
        order: each row's record index in the encoding.
        starts: True at each segment's first row.
        lengths: rows per segment.
        distinct_sites: the distinct sites, ascending (across epochs).
        segment_site: each segment's index into ``distinct_sites``.
        takens, classes, targets: the encoding's columns, gathered.
    """

    __slots__ = ("order", "starts", "lengths", "distinct_sites",
                 "segment_site", "takens", "classes", "targets",
                 "_source", "_class_totals")

    def __init__(self, enc, drop):
        from repro.telemetry.core import TELEMETRY

        with TELEMETRY.span("kernels.sort_view", records=len(enc)):
            self._build(enc, None if drop is None else drop(enc))

    def _build(self, enc, drop):
        keys = enc.qualify(enc.sites)
        n = keys.shape[0]
        sentinel = int(keys.max()) + 1 if n else 0
        # Keys in [0, 65536) sort as uint16: NumPy's stable sort is a
        # radix sort for 16-bit keys, several times faster than its
        # merge sort of int64 keys, and gives the same permutation.
        narrow = n and int(keys.min()) >= 0 and sentinel < scan.NARROW
        keys = keys.astype(np.uint16 if narrow else np.int64)
        kept = n
        if drop is not None:
            keys[drop] = sentinel
            kept -= int(np.count_nonzero(drop))
        order = np.argsort(keys, kind="stable")[:kept]
        sorted_keys = keys[order]
        del keys
        starts = np.empty(kept, dtype=bool)
        starts[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
        del sorted_keys
        first = np.flatnonzero(starts)
        self.order = order
        self.starts = starts
        self.lengths = np.diff(first, append=kept)
        self.distinct_sites, self.segment_site = np.unique(
            enc.sites[order[first]], return_inverse=True)
        self.takens = enc.takens[order]
        self.classes = enc.classes[order]
        self.targets = enc.targets[order]
        self._source = (enc.sites, enc.takens, enc.targets, enc.epochs)
        self._class_totals = None

    def __len__(self):
        return int(self.order.shape[0])

    def class_totals(self):
        """Rows per branch class code 0..3 (shared by every scheme)."""
        if self._class_totals is None:
            self._class_totals = class_totals(self.classes)
        return self._class_totals

    def per_segment(self, values):
        """``values`` (one per distinct site) gathered per row."""
        return np.repeat(values[self.segment_site], self.lengths)

    def in_trace_order(self):
        """The view's records as an :class:`EncodedTrace` in trace
        order, and each view row's index into it."""
        sites, takens, targets, epochs = self._source
        kept = np.zeros(sites.shape[0], dtype=bool)
        kept[self.order] = True
        rows = np.flatnonzero(kept)
        encoded = EncodedTrace(
            sites[rows], None, takens[rows], targets[rows], None,
            None if epochs is None else epochs[rows])
        return encoded, (np.cumsum(kept) - 1)[self.order]
