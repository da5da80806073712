"""LRU replay of the overflowing BTB sets.

The closed-form kernels in :mod:`repro.kernels.tables` and
:mod:`repro.kernels.direction` are exact until a cache set evicts.
The records of the sets that do evict are replayed here in trace
order, one record at a time, through one ``OrderedDict`` LRU per set
(least recently used first).  Each scheme is a table of ops on a hit
or a miss — *move* (to MRU), *delete*, *insert* (at MRU, evicting the
LRU entry when the set is full) or *no-op* — stated in the docstrings
of :func:`sbtb_evict`, :func:`cbtb_evict` and :func:`store_evict`.
The replay follows the AssociativeCache recency contract without
calling it, so the equivalence tests still compare two separate
implementations: a predict-path lookup or a new allocation refreshes
an entry, an in-place update does not.

Only the overflowing sets pay the per-record cost; every other set
keeps its closed-form answers.  The paper's 256-entry buffers never
overflow, so the replay runs for the small and set-associative
buffers of the sweeps, the conformance fuzz and the characterize
probes.

The eviction *screen* lives here too (:func:`overflow_rows`) so every
kernel shares the same exact boundary rule: a set routes to the
replay only when its no-eviction occupancy trajectory strictly
exceeds the way count — ``occupancy == ways`` fills the set without
evicting and stays on the closed-form path.
"""

from collections import OrderedDict, defaultdict

import numpy as np


def overflow_rows(set_ids, occupancy, ways):
    """Mask of records in sets whose occupancy ever exceeds ``ways``.

    ``occupancy`` is the no-eviction occupancy trajectory (valid up to
    the first eviction, which is exactly what the screen needs).
    Returns ``None`` when no set overflows.  The comparison is strict:
    a set that exactly fills its ways never evicts, so it keeps the
    closed-form answers.
    """
    overflowed = occupancy > ways
    if not overflowed.any():
        return None
    hot = np.unique(set_ids[overflowed])
    return np.isin(set_ids, hot)


def sbtb_evict(rows, set_ids, sites, takens, targets, ways, present,
               stored):
    """Replay overflowing SBTB sets; fixes ``present``/``stored``.

    Op table: hit & taken — move to MRU and store the new target;
    hit & not-taken — delete; miss & taken — insert (evicting the LRU
    entry when full); miss & not-taken — no-op.
    """
    _replay("sbtb", rows, set_ids, sites, takens, targets, ways,
            present=present, stored=stored)


def cbtb_evict(rows, set_ids, sites, takens, targets, ways, threshold,
               counter_max, present, pred_taken, stored):
    """Replay overflowing CBTB sets.

    Every hit moves the entry to MRU (the predict-path lookup refresh)
    and then bumps its counter in place — up saturating at
    ``counter_max`` on taken (also rewriting the target), down
    saturating at 0 otherwise.  Every miss allocates at
    ``threshold``/``threshold - 1``, evicting the LRU entry when full.
    """
    _replay("cbtb", rows, set_ids, sites, takens, targets, ways,
            present=present, stored=stored, pred_taken=pred_taken,
            threshold=threshold, counter_max=counter_max)


def store_evict(rows, set_ids, sites, takens, targets, refreshes, ways,
                present, stored):
    """Replay overflowing direction-scheme target-store sets.

    The predict path refreshes recency only when it performs a lookup
    (``refreshes``: non-conditionals, and conditionals whose direction
    predictor said taken); the update path inserts on taken.  Net ops:
    hit & (taken | refresh) — move (storing the target when taken);
    miss & taken — insert; anything else — no-op.
    """
    _replay("store", rows, set_ids, sites, takens, targets, ways,
            present=present, stored=stored, refreshes=refreshes)


def _replay(mode, rows, set_ids, sites, takens, targets, ways, *,
            present, stored, pred_taken=None, refreshes=None,
            threshold=0, counter_max=0):
    """Replay ``rows`` in trace order and scatter per-record results.

    Each LRU maps a site to ``[target, counter]``; only the CBTB uses
    the counter.
    """
    lrus = defaultdict(OrderedDict)
    hits, olds, predicted = [], [], []
    refresh = (refreshes[rows].tolist() if refreshes is not None
               else [False] * len(rows))
    for set_id, site, taken, target, refreshed in zip(
            set_ids[rows].tolist(), sites[rows].tolist(),
            takens[rows].tolist(), targets[rows].tolist(), refresh):
        lru = lrus[set_id]
        entry = lru.get(site)
        hits.append(entry is not None)
        if entry is None:
            olds.append(0)
            predicted.append(False)
            if taken or mode == "cbtb":
                if len(lru) == ways:
                    lru.popitem(last=False)
                lru[site] = [target,
                             threshold if taken else threshold - 1]
            continue
        olds.append(entry[0])
        predicted.append(entry[1] >= threshold)
        if mode == "sbtb" and not taken:
            del lru[site]
            continue
        if mode != "store" or taken or refreshed:
            lru.move_to_end(site)
        if taken:
            entry[0] = target
        if mode == "cbtb":
            entry[1] = (min(entry[1] + 1, counter_max) if taken
                        else max(entry[1] - 1, 0))
    present[rows] = hits
    stored[rows] = olds
    if pred_taken is not None:
        pred_taken[rows] = predicted
