"""Batch kernels for the direction-table schemes (gshare, bimodal,
tournament).

Both schemes split cleanly into two independent machines:

* a **direction predictor** — tagless 2-bit counters, so no
  eviction ever: the counter walk is exact for the whole trace.  For
  gshare the table index needs the global history before each
  conditional record, which is just the previous ``history_bits``
  conditional outcomes packed into an integer — a handful of
  shift-and-add passes, no scan needed.  For bimodal the index is the
  site address masked.  History is global, so the direction bits are
  computed in trace order, over the conditional records of the view's
  source encoding (no filter ever drops a conditional record), and
  reach view order by one gather through ``view.order``.
* a **target store** — the same 256-entry BTB as the paper's schemes,
  read in view order like them.  Taken executions insert, nothing
  deletes, so while a set has not evicted, presence is "some earlier
  taken execution of the site" and the stored target is the latest
  such execution's: a question about earlier rows of the site's
  segment.  The eviction screen and the LRU replay
  (:func:`repro.kernels.evict.replay_overflow`) are the SBTB's and
  CBTB's; the replay needs one extra column, the direction bit,
  because only predicted-taken conditionals touch (and therefore
  refresh) the store on the predict path.

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


def gshare_kernel(predictor, view):
    enc = view.source
    conditional = enc.classes == BranchClass.CONDITIONAL
    sites = enc.sites[conditional]
    takens = enc.takens[conditional]
    epochs = None if enc.epochs is None else enc.epochs[conditional]
    history = _global_history(takens, predictor.history_bits, epochs)
    index = _masked(sites ^ history, predictor.table_mask)
    counter = _counter_scan(enc.qualify(index, conditional),
                            np.where(takens, 1, -1))
    return _with_target_store(predictor._targets, view, conditional,
                              counter)


def bimodal_kernel(predictor, view):
    enc = view.source
    conditional = enc.classes == BranchClass.CONDITIONAL
    index = _masked(enc.sites[conditional], predictor.table_mask)
    counter = _counter_scan(enc.qualify(index, conditional),
                            np.where(enc.takens[conditional], 1, -1))
    return _with_target_store(predictor._targets, view, conditional,
                              counter)


def tournament_kernel(predictor, view):
    """Both component kernels, then the chooser walk over conditionals.

    The chooser steps up when only the second component was right and
    down when only the first was; conditionals take the second's
    outcome when it reads at least 2, other records the first's.  Each
    component evolves as alone: non-conditional records are always
    taken, so their insert refreshes the entry the scalar tournament
    does not look up in the second component.
    """
    from repro.kernels import kernel_for

    first = kernel_for(predictor.first)(predictor.first, view)
    second = kernel_for(predictor.second)(predictor.second, view)
    enc = view.source
    conditional = enc.classes == BranchClass.CONDITIONAL
    # The chooser's step, per record in trace order (the records the
    # view drops are never conditional, so never read).
    step = np.empty(len(enc), dtype=np.int32)
    step[view.order] = ((second[0] == view.takens).astype(np.int32)
                        - (first[0] == view.takens))
    index = _masked(enc.sites[conditional], predictor.chooser_mask)
    chooser = _counter_scan(enc.qualify(index, conditional),
                            step[conditional])
    use_second = _to_view_order(view, conditional, chooser >= 2, False)
    return tuple(np.where(use_second, b, a)
                 for a, b in zip(first, second))


def _masked(keys, mask):
    """A table index, ``keys & mask`` in int64: the mask may not fit
    the keys' narrow dtype."""
    return np.bitwise_and(keys, mask, dtype=np.int64)


def _to_view_order(view, conditional, bits, other):
    """Per-view-row ``bits`` of the conditional records (given in
    trace order), ``other`` for every other record."""
    out = np.full(conditional.shape[0], other)
    out[conditional] = bits
    return out[view.order]


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


def _with_target_store(cache, view, conditional, counter):
    """Score the view's rows given the conditional records' direction
    counters (in trace order).

    The direction is True for non-conditional rows (their predicted
    direction is presence itself), so uniformly:
    predicted-taken = present & direction, hit = present.  The predict
    path looks the store up, and so refreshes its recency, exactly
    where the direction is True.
    """
    direction = _to_view_order(view, conditional, counter >= 2, True)
    takens, targets = view.takens, view.targets
    last_taken = scan.sorted_last_marked(view.starts, takens)
    present = last_taken >= 0
    # Rows with no earlier taken execution read some other row's
    # target; ``present`` masks it out of every answer.
    stored = targets[last_taken]

    # Eviction screen: only a first taken execution allocates, nothing
    # deletes, so occupancy is the running count of those events.
    evict.replay_overflow(view, cache, takens & ~present,
                          evict.store_evict, reads=(direction,),
                          fixes=(present, stored))

    pred_taken = present & direction
    target_match = pred_taken & (stored == targets)
    return pred_taken, target_match, present
