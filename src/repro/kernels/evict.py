"""LRU replay of the overflowing BTB sets.

The closed-form kernels in :mod:`repro.kernels.tables` and
:mod:`repro.kernels.direction` read a
:class:`~repro.kernels.encode.SiteView` and are exact until a cache
set evicts.  The records of the sets that do evict are replayed here
in trace order, one record at a time, through one ``OrderedDict`` LRU
per set (least recently used first).  Each scheme is a table of ops
on a hit or a miss — *move* (to MRU), *delete*, *insert* (at MRU,
evicting the LRU entry when the set is full) or *no-op* — stated in
the docstrings of :func:`sbtb_evict`, :func:`cbtb_evict` and
:func:`store_evict`.
The replay follows the AssociativeCache recency contract without
calling it, so the equivalence tests still compare two separate
implementations: a predict-path lookup or a new allocation refreshes
an entry, an in-place update does not.

Only the overflowing sets pay the per-record cost; every other set
keeps its closed-form answers.  The paper's 256-entry buffers never
overflow, so the replay runs for the small and set-associative
buffers of the sweeps, the conformance fuzz and the characterize
probes.

The eviction *screen* lives here too (:func:`cannot_overflow`,
:func:`overflow_rows`) so every kernel shares the same exact boundary
rule: a set routes to the replay only when its no-eviction occupancy
trajectory strictly exceeds the way count — ``occupancy == ways``
fills the set without evicting and stays on the closed-form path.
The screen first asks the cheap question (:func:`cannot_overflow`): a
set never holds more entries than it has distinct sites, in any flush
epoch, so when no set has more distinct sites than ways the
occupancy scan is skipped.  Every kernel passes that check through
:func:`replay_overflow`, which restores trace order only when it
fails.
"""

from collections import OrderedDict, defaultdict

import numpy as np

from repro.kernels import scan


def cannot_overflow(sites, n_sets, ways):
    """True when no set of ``n_sets`` has more than ``ways`` of the
    distinct ``sites``, so no set can ever evict."""
    per_set = np.bincount(np.remainder(sites, n_sets, dtype=np.int64),
                          minlength=1)
    return int(per_set.max()) <= ways


def overflow_rows(enc, cache, delta):
    """Records of the sets whose occupancy ever exceeds their ways.

    ``enc`` is in trace order, and ``delta`` is each record's change to
    its set's occupancy while no set evicts (+1 allocation, -1
    deletion); its running total per set is the no-eviction occupancy
    trajectory, valid up to the first eviction, which is exactly what
    the screen needs.  Returns ``(rows, set_ids)`` — the overflowing
    sets' record indices in trace order, and every record's set — or
    ``None`` when no set overflows.  The comparison is strict: a set
    that exactly fills its ways never evicts, so it keeps the
    closed-form answers.
    """
    n_sets, ways = cache.n_sets, cache.associativity
    set_ids = enc.set_ids(n_sets)
    occupancy = scan.running_total(enc.set_groups(n_sets), delta)
    overflowed = occupancy > ways
    if not overflowed.any():
        return None
    hot = np.unique(set_ids[overflowed])
    return np.nonzero(np.isin(set_ids, hot))[0], set_ids


def replay_overflow(view, cache, delta, replay, *args, reads=(),
                    fixes):
    """Screen a site view's sets and replay the overflowing ones.

    ``delta`` and the ``reads`` and ``fixes`` columns are in view
    order.  When some set has more distinct sites than ways, the
    records go back to trace order (``view.in_trace_order``) for
    :func:`overflow_rows` and ``replay(rows, set_ids, sites, takens,
    targets, ways, *args, *reads, *fixes)``, and the replayed rows'
    answers are written back into ``fixes`` in place.
    """
    ways = cache.associativity
    if cannot_overflow(view.distinct_sites, cache.n_sets, ways):
        return
    enc, view_rows = view.in_trace_order()
    overflow = overflow_rows(enc, cache, delta[view_rows])
    if overflow is None:
        return
    rows, set_ids = overflow
    from repro.telemetry.core import TELEMETRY

    TELEMETRY.count("kernels.evict_replayed_rows", len(rows))
    # The replay writes the fixes of ``rows`` only, and reads none.
    fixed = [np.empty(len(enc), dtype=column.dtype) for column in fixes]
    replay(rows, set_ids, enc.sites, enc.takens, enc.targets, ways,
           *args, *(column[view_rows] for column in reads), *fixed)
    replayed = view_rows[rows]
    for column, trace_order in zip(fixes, fixed):
        column[replayed] = trace_order[rows]


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


def store_evict(rows, set_ids, sites, takens, targets, ways, refreshes,
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
