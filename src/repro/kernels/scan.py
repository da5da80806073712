"""Segmented array primitives shared by the batch kernels.

Every kernel reduces to the same few questions asked per record about
*earlier records in some group* (same branch site, same cache set, same
counter index):

* :func:`sorted_last_marked` — where did it last occur *with a write*?
* :func:`running_total` — how much has accumulated in the group so far?
* :func:`exclusive_states` — what state had the group's small state
  machine reached?

One sort answers them all: :func:`sort_segments` stably sorts records
by group key, so each group is a contiguous *segment* in sorted order,
and returns the segment starts.  A :class:`~repro.kernels.encode.SiteView`
is that sort of a trace's sites, and its kernels ask their questions in
the sorted order itself (:func:`sorted_last_marked`,
:func:`sorted_exclusive_states`: the previous same-site record is
simply the previous row of a segment).  A :class:`Groups` is the same
sort kept beside the records, for the counter tables and cache sets
the kernels key in trace order; :func:`running_total` and
:func:`exclusive_states` scatter their answers back to record order.

The state scan exploits that every transition in the predictor zoo —
saturating increment, saturating decrement, allocation to a constant —
is a *clamped add* ``f(s) = clip(s + delta, low, high)``, a family
closed under composition:

    (g o f)(s) = clip(s + d_f + d_g,
                      clip(low_f + d_g, low_g, high_g),
                      clip(high_f + d_g, low_g, high_g))

so a segmented scan needs only three integers per record instead of a
full transition table, independent of the number of counter states.
A run of equal transitions is one clamped add in closed form, so
inputs are scanned per run of a group rather than per record.

Two scan strategies implement the same composition, selected by input
size.  Small inputs use a segmented Hillis-Steele doubling scan
(``O(n log n)``, minimal setup).  Large inputs use a blocked
work-efficient scan: the sorted domain is cut into fixed-size blocks,
each block is swept once with every block's sweep vectorized together
(one NumPy op per block *column*, not per element), block totals are
combined with a tiny doubling scan, and a final vectorized pass
composes each block's carry into its elements — ``O(n)`` element work
with ``O(block)`` interpreter overhead.  Segment boundaries are
carried as start flags through both scans (Blelloch's segmented
operator: a flagged right operand resets the composition), so a block
never needs to know where segments begin.
"""

import numpy as np


#: Keys all in ``[0, NARROW)`` are sorted as uint16: NumPy's stable
#: sort is a radix sort for 16-bit keys, several times faster than its
#: merge sort of int64 keys, and a stable sort of the same values gives
#: the same permutation.
NARROW = 1 << 16


def sort_segments(keys, drop=None):
    """Stable sort of ``keys`` and the segment starts of the result.

    Returns ``(order, starts)``: the stable permutation sorting the
    keys, and True at each sorted row whose key differs from the
    previous row's.  Records where the bool mask ``drop`` is set get a
    key past every other, sort to the end and are cut off ``order``.
    Keys in ``[0, NARROW)``, the past-the-end key included, sort as
    uint16; the permutation is that of the wide keys.  Any other keys
    sort as int64, and the telemetry counter ``kernels.sort_wide``
    counts each such sort.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    top = int(keys.max()) + (drop is not None) if n else 0
    narrow = n and int(keys.min()) >= 0 and top < NARROW
    if not narrow and n:
        from repro.telemetry.core import TELEMETRY

        TELEMETRY.count("kernels.sort_wide")
    keys = keys.astype(np.uint16 if narrow else np.int64,
                       copy=drop is not None)
    kept = n
    if drop is not None:
        keys[drop] = top
        kept -= int(np.count_nonzero(drop))
    order = np.argsort(keys, kind="stable")[:kept]
    sorted_keys = keys[order]
    del keys
    starts = np.empty(kept, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return order, starts


class Groups:
    """Records grouped by an integer key, order-preserving per group.

    Attributes (all over the *sorted* domain ``order``):
        order: stable permutation sorting records by key — within a
            group, sorted rows keep original record order.
        starts: True at each group's first sorted row.
        seg_ids: group ordinal per sorted row.
    """

    __slots__ = ("n", "order", "starts", "seg_ids")

    def __init__(self, keys):
        self.order, self.starts = sort_segments(keys)
        self.n = int(self.order.shape[0])
        self.seg_ids = np.cumsum(self.starts, dtype=np.int64) - 1


def sorted_last_marked(starts, marked):
    """The latest *earlier* marked row of each row's segment.

    ``starts`` is True at each segment's first row (as
    :func:`sort_segments` returns it); ``marked`` and the returned
    int64 rows are in that sorted order, -1 where no earlier row of
    the segment is marked.
    """
    n = starts.shape[0]
    out = np.empty(n, dtype=np.int64)
    out[:1] = -1
    # A running max over row numbers of marked rows *and* group starts
    # never reaches back past the row's own group start; the latest
    # such row before row j is a mark of j's group unless it is an
    # unmarked start, in which case the group has no earlier mark.
    carrier = np.arange(n, dtype=np.int64)
    carrier *= marked | starts
    latest = np.maximum.accumulate(carrier)[:-1]
    out[1:] = np.where(marked[latest] & ~starts[1:], latest, -1)
    return out


def running_total(groups, values):
    """Inclusive per-group cumulative sum, in original record order."""
    n = groups.n
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    sorted_values = np.asarray(values)[groups.order]
    total = np.cumsum(sorted_values, dtype=np.int64)
    start_rows = np.nonzero(groups.starts)[0]
    segment_base = np.where(start_rows > 0, total[start_rows - 1], 0)
    out[groups.order] = total - segment_base[groups.seg_ids]
    return out


#: Identity-map bound: wider than any real counter range, narrow
#: enough that compositions never overflow int32.
_UNBOUNDED = np.int32(1) << 20

#: Inputs at least this long use the blocked work-efficient scan; the
#: doubling scan wins below it (less setup, and tiny traces are cheap
#: either way).
_BLOCKED_MIN = 4096

#: Block width of the work-efficient scan: the sweep runs this many
#: vectorized steps, each touching one element per block, so interpreter
#: overhead is ``O(block)`` while element work stays ``O(n)``.
_BLOCK = 32


def _doubling_inclusive(delta, low, high, flags):
    """Segmented inclusive scan by doubling, in place; O(n log n)."""
    n = delta.shape[0]
    stride = 1
    while stride < n:
        b_f = flags[stride:]
        d_f, lo_f, hi_f = delta[:-stride], low[:-stride], high[:-stride]
        d_g, lo_g, hi_g = delta[stride:], low[stride:], high[stride:]
        n_d = np.where(b_f, d_g, d_f + d_g)
        n_lo = np.where(b_f, lo_g,
                        np.minimum(np.maximum(lo_f + d_g, lo_g), hi_g))
        n_hi = np.where(b_f, hi_g,
                        np.minimum(np.maximum(hi_f + d_g, lo_g), hi_g))
        n_f = b_f | flags[:-stride]
        delta[stride:] = n_d
        low[stride:] = n_lo
        high[stride:] = n_hi
        flags[stride:] = n_f
        stride <<= 1


def _blocked_inclusive(delta, low, high, flags):
    """Segmented inclusive scan, blocked work-efficient; O(n) work.

    Returns new (delta, low, high) arrays of the input length; the
    inputs are consumed (padded copies are made internally).
    """
    n = delta.shape[0]
    m = -(-n // _BLOCK)
    pad = m * _BLOCK - n
    if pad:
        # Padding rows are flagged segment starts: they can never
        # absorb a real prefix and are sliced off at the end.
        delta = np.concatenate(
            [delta, np.zeros(pad, dtype=np.int32)])
        low = np.concatenate(
            [low, np.full(pad, -_UNBOUNDED, dtype=np.int32)])
        high = np.concatenate(
            [high, np.full(pad, _UNBOUNDED, dtype=np.int32)])
        flags = np.concatenate([flags, np.ones(pad, dtype=bool)])
    # Transposed layout: row j holds element j of *every* block, so
    # each sweep step reads and writes contiguous m-vectors.
    d = np.ascontiguousarray(delta.reshape(m, _BLOCK).transpose())
    lo = np.ascontiguousarray(low.reshape(m, _BLOCK).transpose())
    hi = np.ascontiguousarray(high.reshape(m, _BLOCK).transpose())
    f = np.ascontiguousarray(flags.reshape(m, _BLOCK).transpose())
    # Intra-block sweep: one vectorized step per block position turns
    # each row into the inclusive composition from its block (or
    # segment) start; the flag row becomes "prefix saw a start".
    for j in range(1, _BLOCK):
        b_f = f[j]
        d_g, lo_g, hi_g = d[j], lo[j], hi[j]
        n_d = d[j - 1] + d_g
        n_lo = np.minimum(np.maximum(lo[j - 1] + d_g, lo_g), hi_g)
        n_hi = np.minimum(np.maximum(hi[j - 1] + d_g, lo_g), hi_g)
        d[j] = np.where(b_f, d_g, n_d)
        lo[j] = np.where(b_f, lo_g, n_lo)
        hi[j] = np.where(b_f, hi_g, n_hi)
        f[j] |= f[j - 1]
    # Inter-block: exclusive carries from the block totals (the last
    # row), via the doubling scan over m entries.
    c_d = np.empty(m, dtype=np.int32)
    c_lo = np.empty(m, dtype=np.int32)
    c_hi = np.empty(m, dtype=np.int32)
    c_f = np.empty(m, dtype=bool)
    c_d[0], c_lo[0], c_hi[0], c_f[0] = 0, -_UNBOUNDED, _UNBOUNDED, False
    c_d[1:] = d[-1, :-1]
    c_lo[1:] = lo[-1, :-1]
    c_hi[1:] = hi[-1, :-1]
    c_f[1:] = f[-1, :-1]
    _doubling_inclusive(c_d, c_lo, c_hi, c_f)
    # Apply: elements whose in-block prefix saw no segment start
    # compose the block carry underneath; flagged prefixes already
    # start at their segment start.
    out_d = np.where(f, d, c_d + d)
    out_lo = np.where(f, lo, np.minimum(np.maximum(c_lo + d, lo), hi))
    out_hi = np.where(f, hi, np.minimum(np.maximum(c_hi + d, lo), hi))
    return (out_d.transpose().ravel()[:n],
            out_lo.transpose().ravel()[:n],
            out_hi.transpose().ravel()[:n])


def _inclusive_compose(delta, low, high, flags):
    """Dispatch the segmented inclusive scan; consumes its inputs."""
    if delta.shape[0] >= _BLOCKED_MIN:
        return _blocked_inclusive(delta, low, high, flags)
    _doubling_inclusive(delta, low, high, flags)
    return delta, low, high


def exclusive_states(groups, deltas, lows, highs, init_state):
    """Run each group's state machine; the state *before* each record.

    Record ``j``'s transition is the clamped add
    ``clip(s + deltas[j], lows[j], highs[j])`` (all in original record
    order): saturating up/down steps bound by the counter range, or an
    allocation encoded as ``delta 0, low == high == value``.  Each
    group starts in ``init_state`` — moot for groups whose first
    transition is an allocation.  Returns int32 pre-record states in
    original record order.
    """
    n = groups.n
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    order = groups.order
    out = np.empty(n, dtype=np.int32)
    out[order] = sorted_exclusive_states(
        groups.starts, np.asarray(deltas, dtype=np.int32)[order],
        np.asarray(lows, dtype=np.int32)[order],
        np.asarray(highs, dtype=np.int32)[order], init_state)
    return out


def sorted_exclusive_states(starts, delta, low, high, init_state):
    """:func:`exclusive_states` in the sorted domain of a grouping.

    ``starts`` is True at each segment's first row (as
    :func:`sort_segments` returns it); the int32 transitions and the
    returned states are in that sorted order.

    The scan runs over *runs*, not rows: consecutive equal transitions
    of one group, as branch outcomes mostly come.  ``k`` applications
    of ``f = clip(s + d, lo, hi)`` are one clamped add —
    ``(k*d, min(lo + (k-1)*d, hi), hi)`` for ``d > 0``,
    ``(k*d, lo, max(hi + (k-1)*d, lo))`` for ``d < 0``, ``f`` itself
    for ``d == 0`` — and inside a run entered in state ``s`` the state
    moves monotonically from ``f(s)``, so the run's ``k``-th row
    (``k >= 1``) starts in ``clip(f(s) + (k-1)*d, lo, hi)``.
    """
    n = delta.shape[0]
    head = starts.copy()
    head[1:] |= delta[1:] != delta[:-1]
    head[1:] |= low[1:] != low[:-1]
    head[1:] |= high[1:] != high[:-1]
    first = np.flatnonzero(head)
    length = np.diff(first, append=n)
    d, lo, hi = delta[first], low[first], high[first]
    repeats = (length - 1).astype(np.int32) * d
    entered = _exclusive_states_of_runs(
        starts[first], d + repeats,
        np.where(d > 0, np.minimum(lo + repeats, hi), lo),
        np.where(d < 0, np.maximum(hi + repeats, lo), hi), init_state)
    # Row k >= 1 of a run: k - 1 further steps from f(entered).
    stepped = np.arange(n, dtype=np.int32)
    stepped -= np.repeat(first.astype(np.int32) + 1, length)
    stepped *= np.repeat(d, length)
    stepped += np.repeat(np.minimum(np.maximum(entered + d, lo), hi),
                         length)
    np.maximum(stepped, np.repeat(lo, length), out=stepped)
    np.minimum(stepped, np.repeat(hi, length), out=stepped)
    stepped[first] = entered
    return stepped


def _exclusive_states_of_runs(starts, delta, low, high, init_state):
    """State before each run: the exclusive in-group prefix of the run
    transitions, applied to ``init_state``."""
    n = delta.shape[0]
    # The exclusive shift: run j carries the previous in-group run's
    # transition, group firsts the identity; the segmented scan then
    # composes each run into its exclusive in-group prefix.
    shifted = []
    for values, identity in ((delta, 0), (low, -_UNBOUNDED),
                             (high, _UNBOUNDED)):
        column = np.empty(n, dtype=np.int32)
        column[1:] = values[:-1]
        column[starts] = identity
        shifted.append(column)
    delta, low, high = _inclusive_compose(*shifted, starts.copy())
    return np.minimum(np.maximum(np.int32(init_state) + delta, low), high)
