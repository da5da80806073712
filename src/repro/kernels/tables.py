"""Batch kernels for the paper's associative-table schemes.

Both BTB kernels exploit the same structure: while no cache set has
ever evicted, buffer contents are a pure function of each site's own
history, so presence, counters, and stored targets all come from the
segmented scans in :mod:`repro.kernels.scan`:

* **SBTB** — an entry exists for a site exactly when the site's
  previous execution was taken (taken inserts/refreshes, not-taken
  deletes), and its target is whatever that execution wrote.
* **CBTB** — an entry exists once the site has executed at all (first
  execution allocates, nothing deletes), its counter follows the
  site's private saturating walk, and its target is the last
  allocation-or-taken write.

Eviction is detected exactly, per set, from the same closed forms: the
no-eviction occupancy trajectory coincides with the real one up to the
first eviction, and that first eviction is precisely the first record
where the trajectory would exceed the set's way count.  Sets that
never cross the line keep the closed-form answers; the records of sets
that do are replayed in trace order through one LRU per set by
:mod:`repro.kernels.evict`, bit-identical to the AssociativeCache
recency contract.  Before any of that the screen checks whether some
set has more distinct sites than ways at all; when none does, no set
can overflow and the occupancy scan is skipped.  The paper's
configuration — 256 entries, fully associative, against benchmarks
with at most 237 distinct branch sites — therefore never scans, and
the scan and the eviction path are exercised by the small-buffer
ablations and the equivalence tests, not the headline workload.

Each kernel returns ``(pred_taken, target_match, hit)`` arrays over
the encoded records; scoring and aggregation live in
:mod:`repro.kernels.aggregate`.
"""

import numpy as np

from repro.kernels import evict, scan


def sbtb_kernel(predictor, enc):
    """SimpleBTB: present iff the previous execution was taken."""
    cache = predictor._cache
    sites, takens, targets = enc.sites, enc.takens, enc.targets

    # A first execution's prev is -1: it reads the last record, which
    # the mask discards (and its stored target is never compared).
    prev = enc.previous_index()
    present = takens[prev] & (prev >= 0)
    stored = targets[prev]

    # Eviction screen: +1 on allocation (taken, absent), -1 on deletion
    # (not taken, present), per set.
    overflow = evict.overflow_rows(
        enc, cache, takens.view(np.int8) - present.view(np.int8))
    if overflow is not None:
        rows, set_ids = overflow
        evict.sbtb_evict(rows, set_ids, sites, takens, targets,
                         cache.associativity, present, stored)

    target_match = present & (stored == targets)
    return present, target_match, present.astype(np.int8)


def cbtb_kernel(predictor, enc):
    """CounterBTB: presence from first execution, counters scanned."""
    cache = predictor._cache
    threshold = predictor.threshold
    counter_max = predictor.counter_max
    n = len(enc)
    sites, takens, targets = enc.sites, enc.takens, enc.targets
    present = enc.previous_index() >= 0

    # The counter walk and the stored target are per-site questions,
    # answered in the site grouping's sorted order (``_s``): each
    # site's records in a row, its allocating first record leading.
    groups = enc.site_groups()
    first_s = groups.starts
    taken_s = takens[groups.order]
    target_s = targets[groups.order]

    # Counter before each execution, via the per-site saturating walk.
    # The allocating first execution is a constant map (insert
    # overwrites whatever the state "was"), so init_state is moot.
    delta = taken_s.astype(np.int32) * 2 - 1
    low = np.zeros(n, dtype=np.int32)
    high = np.full(n, counter_max, dtype=np.int32)
    allocations = np.flatnonzero(first_s)
    allocated = threshold - 1 + taken_s[allocations]
    delta[allocations] = 0
    low[allocations] = allocated
    high[allocations] = allocated
    counter_s = scan.sorted_exclusive_states(first_s, delta, low, high, 0)
    pred_s = (counter_s >= threshold) & ~first_s

    # Stored target: written at allocation and on every taken update.
    # A first execution's last write is -1: it reads the last record,
    # which pred_s discards.
    stored_s = target_s[scan.sorted_last_marked(first_s, taken_s | first_s)]

    pred_taken = groups.unsort(pred_s)
    # Eviction screen: occupancy only grows (allocation per distinct
    # site, no deletion), so a set overflows iff its distinct-site
    # count ever exceeds the way count.
    overflow = evict.overflow_rows(enc, cache, ~present)
    if overflow is None:
        target_match = groups.unsort(pred_s & (stored_s == target_s))
    else:
        rows, set_ids = overflow
        stored = groups.unsort(stored_s)
        evict.cbtb_evict(rows, set_ids, sites, takens, targets,
                         cache.associativity, threshold, counter_max,
                         present, pred_taken, stored)
        target_match = pred_taken & (stored == targets)
    return pred_taken, target_match, present.astype(np.int8)
