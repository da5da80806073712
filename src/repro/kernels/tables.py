"""Batch kernels for the paper's associative-table schemes.

Both BTB kernels read a :class:`~repro.kernels.encode.SiteView`, the
records sorted by site with each site's records (per flush epoch) a
contiguous segment in trace order.  While no cache set has ever
evicted, buffer contents are a pure function of each site's own
history, so presence, counters and stored targets are all questions
about earlier rows of the same segment:

* **SBTB** — an entry exists for a site exactly when the site's
  previous execution was taken (taken inserts/refreshes, not-taken
  deletes), and its target is whatever that execution wrote: a shift
  by one row within each segment.
* **CBTB** — an entry exists once the site has executed at all (first
  execution allocates, nothing deletes), its counter follows the
  site's private saturating walk (the run-compressed scan of
  :func:`repro.kernels.scan.sorted_exclusive_states`), and its target
  is the last allocation-or-taken write.

Eviction is detected exactly, per set, from the same closed forms: the
no-eviction occupancy trajectory coincides with the real one up to the
first eviction, and that first eviction is precisely the first record
where the trajectory would exceed the set's way count.  Sets that
never cross the line keep the closed-form answers; the records of sets
that do are replayed in trace order through one LRU per set by
:mod:`repro.kernels.evict`, bit-identical to the AssociativeCache
recency contract, and the fixes are written back into view order.
Before any of that the screen checks whether some set has more
distinct sites than ways at all; when none does, no set can overflow,
trace order is never restored and the occupancy scan is skipped.  The
paper's configuration — 256 entries, fully associative, against
benchmarks with at most 237 distinct branch sites — therefore never
scans, and the scan and the eviction path are exercised by the
small-buffer ablations and the equivalence tests, not the headline
workload.

Each kernel returns ``(pred_taken, target_match, hit)`` bool arrays
over the view's rows; scoring and aggregation live in
:mod:`repro.kernels.aggregate`.
"""

import numpy as np

from repro.kernels import evict, scan


def sbtb_kernel(predictor, view):
    """SimpleBTB: present iff the previous execution was taken."""
    cache = predictor._cache
    takens, targets = view.takens, view.targets

    # Within a site's segment the previous execution is the previous
    # row; a segment's first row has none.
    present = np.zeros(len(view), dtype=bool)
    present[1:] = takens[:-1]
    present &= ~view.starts
    stored = np.zeros(len(view), dtype=targets.dtype)
    stored[1:] = targets[:-1]

    # Eviction screen: +1 on allocation (taken, absent), -1 on deletion
    # (not taken, present), per set.
    evict.replay_overflow(
        view, cache, takens.view(np.int8) - present.view(np.int8),
        evict.sbtb_evict, fixes=(present, stored))

    target_match = present & (stored == targets)
    return present, target_match, present


def cbtb_kernel(predictor, view):
    """CounterBTB: presence from first execution, counters scanned."""
    cache = predictor._cache
    threshold = predictor.threshold
    counter_max = predictor.counter_max
    n = len(view)
    first, takens, targets = view.starts, view.takens, view.targets

    # Counter before each execution, via each site's saturating walk.
    # The allocating first execution is a constant map (insert
    # overwrites whatever the state "was"), so init_state is moot.
    delta = takens.astype(np.int32)
    delta *= 2
    delta -= 1
    low = np.zeros(n, dtype=np.int32)
    high = np.full(n, counter_max, dtype=np.int32)
    allocations = np.flatnonzero(first)
    allocated = threshold - 1 + takens[allocations]
    delta[allocations] = 0
    low[allocations] = allocated
    high[allocations] = allocated
    counter = scan.sorted_exclusive_states(first, delta, low, high, 0)
    # Per-record transients go as soon as they are consumed, so they
    # are not alive through the target pass and the eviction replay.
    del delta, low, high
    present = ~first
    pred_taken = (counter >= threshold) & present
    del counter

    # Stored target: written at allocation and on every taken update.
    # A segment starts with a write, so the latest write at or before
    # each row (a running max of written row numbers) never reaches
    # into the previous segment; a row reads the previous row's.
    written = np.arange(n, dtype=np.int64)
    written *= takens | first
    np.maximum.accumulate(written, out=written)
    stored = np.zeros(n, dtype=targets.dtype)
    np.take(targets, written[:-1], out=stored[1:])

    # Eviction screen: occupancy only grows (allocation per distinct
    # site, no deletion), so a set overflows iff its distinct-site
    # count ever exceeds the way count.
    evict.replay_overflow(view, cache, first, evict.cbtb_evict,
                          threshold, counter_max,
                          fixes=(present, pred_taken, stored))
    target_match = pred_taken & (stored == targets)
    return pred_taken, target_match, present
