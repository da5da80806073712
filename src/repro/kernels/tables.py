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
recency contract.  The paper's
configuration — 256 entries, fully associative, against benchmarks
with at most a couple hundred static branch sites — never overflows,
so the eviction path is exercised by the small-buffer ablations and
the equivalence tests, not the headline workload.

Each kernel returns ``(pred_taken, target_match, hit)`` arrays over
the encoded records; scoring and aggregation live in
:mod:`repro.kernels.aggregate`.
"""

import numpy as np

from repro.kernels import evict, scan


def sbtb_kernel(predictor, enc):
    """SimpleBTB: present iff the previous execution was taken."""
    cache = predictor._cache
    n = len(enc)
    sites, takens, targets = enc.sites, enc.takens, enc.targets

    site_groups = enc.site_groups()
    prev = scan.previous_index(site_groups)
    has_prev = prev >= 0
    present = np.zeros(n, dtype=bool)
    present[has_prev] = takens[prev[has_prev]]
    stored = np.zeros(n, dtype=np.int64)
    stored[has_prev] = targets[prev[has_prev]]

    # Eviction screen: +1 on allocation, -1 on deletion, per set.
    set_ids = enc.set_ids(cache.n_sets)
    delta = np.zeros(n, dtype=np.int64)
    delta[takens & ~present] = 1
    delta[~takens & present] = -1
    occupancy = scan.running_total(enc.set_groups(cache.n_sets), delta)
    mask = evict.overflow_rows(set_ids, occupancy, cache.associativity)
    if mask is not None:
        evict.sbtb_evict(np.nonzero(mask)[0], set_ids, sites, takens,
                         targets, cache.associativity, present, stored)

    target_match = present & (stored == targets)
    return present, target_match, present.astype(np.int8)


def cbtb_kernel(predictor, enc):
    """CounterBTB: presence from first execution, counters scanned."""
    cache = predictor._cache
    threshold = predictor.threshold
    counter_max = predictor.counter_max
    n = len(enc)
    sites, takens, targets = enc.sites, enc.takens, enc.targets

    site_groups = enc.site_groups()
    prev = scan.previous_index(site_groups)
    present = prev >= 0
    is_first = ~present

    # Counter before each execution, via the per-site saturating walk.
    # The allocating first execution is a constant map (insert
    # overwrites whatever the state "was"), so init_state is moot.
    delta = np.where(takens, np.int32(1), np.int32(-1))
    low = np.zeros(n, dtype=np.int32)
    high = np.full(n, counter_max, dtype=np.int32)
    allocated = np.where(takens, np.int32(threshold),
                         np.int32(threshold - 1))
    delta[is_first] = 0
    low[is_first] = allocated[is_first]
    high[is_first] = allocated[is_first]
    counter = scan.exclusive_states(site_groups, delta, low, high, 0)

    # Stored target: written at allocation and on every taken update.
    wrote = takens | is_first
    last_write = scan.last_marked_index(site_groups, wrote)
    has_write = last_write >= 0
    stored = np.zeros(n, dtype=np.int64)
    stored[has_write] = targets[last_write[has_write]]

    pred_taken = present & (counter >= threshold)

    # Eviction screen: occupancy only grows (allocation per distinct
    # site, no deletion), so a set overflows iff its distinct-site
    # count ever exceeds the way count.
    set_ids = enc.set_ids(cache.n_sets)
    occupancy = scan.running_total(enc.set_groups(cache.n_sets),
                                   is_first)
    mask = evict.overflow_rows(set_ids, occupancy, cache.associativity)
    if mask is not None:
        evict.cbtb_evict(np.nonzero(mask)[0], set_ids, sites, takens,
                         targets, cache.associativity, threshold,
                         counter_max, present, pred_taken, stored)

    target_match = pred_taken & (stored == targets)
    return pred_taken, target_match, present.astype(np.int8)
