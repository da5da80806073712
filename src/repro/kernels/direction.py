"""Batch kernels for the direction-table schemes (gshare, bimodal,
tournament).

Both schemes split cleanly into two independent machines:

* a **direction predictor** — tagless 2-bit counters, so no
  eviction ever: the counter walk is exact for the whole trace.  For
  gshare the table index needs the global history before each
  conditional record, which is just the previous ``history_bits``
  conditional outcomes packed into an integer — a handful of
  shift-and-add passes, no scan needed.  For bimodal the index is the
  site address masked.
* a **target store** — the same 256-entry BTB as the paper's schemes.
  Taken executions insert, nothing deletes, so while a set has not
  evicted, presence is "some earlier taken execution" and the stored
  target is the latest such execution's.  The eviction screen and the
  LRU replay (:mod:`repro.kernels.evict`) mirror
  :mod:`repro.kernels.tables`; the replay needs one extra input, the
  direction bit, because only predicted-taken conditionals touch (and
  therefore refresh) the store on the predict path.

Hit/miss accounting collapses nicely: in every predict case the hit
flag equals target-store presence (a confirmed lookup, a
predicted-taken lookup miss, or the not-taken path's ``contains``).

The tournament adds one more 2-bit counter walk, its chooser, to the
two component kernels.  With flush epochs every table, target-store
set and global history restarts per epoch.
"""

import numpy as np

from repro.kernels import evict, scan
from repro.vm.tracing import BranchClass


def gshare_kernel(predictor, enc):
    conditional = enc.classes == BranchClass.CONDITIONAL
    sites = enc.sites[conditional]
    takens = enc.takens[conditional]
    epochs = None if enc.epochs is None else enc.epochs[conditional]
    history = _global_history(takens, predictor.history_bits, epochs)
    index = (sites ^ history) & predictor.table_mask
    counter = _counter_scan(enc.qualify(index, conditional),
                            np.where(takens, 1, -1))
    direction = np.ones(len(enc), dtype=bool)
    direction[conditional] = counter >= 2
    return _with_target_store(predictor._targets, enc, conditional,
                              direction)


def bimodal_kernel(predictor, enc):
    conditional = enc.classes == BranchClass.CONDITIONAL
    index = enc.sites[conditional] & predictor.table_mask
    counter = _counter_scan(enc.qualify(index, conditional),
                            np.where(enc.takens[conditional], 1, -1))
    direction = np.ones(len(enc), dtype=bool)
    direction[conditional] = counter >= 2
    return _with_target_store(predictor._targets, enc, conditional,
                              direction)


def tournament_kernel(predictor, enc):
    """Both component kernels, then the chooser walk over conditionals.

    The chooser steps up when only the second component was right and
    down when only the first was; conditionals take the second's
    outcome when it reads at least 2, other records the first's.  Each
    component evolves as alone: non-conditional records are always
    taken, so their insert refreshes the entry the scalar tournament
    does not look up in the second component.
    """
    from repro.kernels import kernel_for

    first = kernel_for(predictor.first)(predictor.first, enc)
    second = kernel_for(predictor.second)(predictor.second, enc)
    conditional = enc.classes == BranchClass.CONDITIONAL
    takens = enc.takens[conditional]
    first_right = first[0][conditional] == takens
    second_right = second[0][conditional] == takens
    index = enc.sites[conditional] & predictor.chooser_mask
    chooser = _counter_scan(enc.qualify(index, conditional),
                            second_right.astype(np.int32) - first_right)
    use_second = np.zeros(len(enc), dtype=bool)
    use_second[conditional] = chooser >= 2
    return tuple(np.where(use_second, b, a)
                 for a, b in zip(first, second))


def _global_history(takens, history_bits, epochs):
    """History before each conditional record: bit b holds outcome
    k-1-b when that record is in the same flush epoch."""
    n = takens.shape[0]
    history = np.zeros(n, dtype=np.int64)
    outcomes = takens.astype(np.int64)
    # Bits beyond the record count never contribute (and a negative
    # slice bound would wrap), so stop at n - 1 shifts.
    for bit in range(min(history_bits, max(n - 1, 0))):
        lag = bit + 1
        shifted = outcomes[:n - lag] << bit
        if epochs is not None:
            shifted[epochs[lag:] != epochs[:n - lag]] = 0
        history[lag:] += shifted
    return history


def _counter_scan(index, delta):
    """Pre-record 2-bit counter values, per table index, init 1;
    ``delta`` is each record's step."""
    n = index.shape[0]
    low = np.zeros(n, dtype=np.int32)
    high = np.full(n, 3, dtype=np.int32)
    return scan.exclusive_states(scan.Groups(index), delta, low, high,
                                 1)


def _with_target_store(cache, enc, conditional, direction):
    """Score records given per-record direction predictions.

    ``direction`` is True for non-conditional records (their predicted
    direction is presence itself), so uniformly:
    predicted-taken = present & direction, hit = present.
    """
    n = len(enc)
    sites, takens, targets = enc.sites, enc.takens, enc.targets

    site_groups = enc.site_groups()
    last_taken = scan.last_marked_index(site_groups, takens)
    present = last_taken >= 0
    stored = np.zeros(n, dtype=np.int64)
    stored[present] = targets[last_taken[present]]

    # Eviction screen: only a first taken execution allocates, nothing
    # deletes, so occupancy is the running count of those events.
    overflow = None
    if not evict.cannot_overflow(enc.unique_sites(), cache.n_sets,
                                 cache.associativity):
        overflow = evict.overflow_rows(enc, cache, takens & ~present)
    if overflow is not None:
        rows, set_ids = overflow
        refreshes = ~conditional | direction
        evict.store_evict(rows, set_ids, sites, takens, targets,
                          refreshes, cache.associativity, present,
                          stored)

    pred_taken = present & direction
    target_match = pred_taken & (stored == targets)
    return pred_taken, target_match, present
