"""Score the records a simulation shows a predictor, in array form.

A kernel answers three per-record questions — predicted direction,
predicted-target match, buffer hit (None for a scheme with no
buffer).  :func:`outcomes` turns them into what the scalar
simulator's loop computes, in one place: the flush epochs, the record
filters (``conditional_only``, the return-address substitution) and
the scoring rule of :func:`repro.predictors.base.is_correct`.

The records reach every kernel as a
:class:`~repro.kernels.encode.SiteView` (sorted by site, the filter
applied in the sort), memoized per filter rule on the (flushed)
encoding, so every scheme run over a trace shares one sort per rule.
:func:`assemble_stats`, :func:`site_counts` and
:func:`repro.kernels.cycle.cycle_kernel` fold the scored rows in view
order; each fold only counts, so the order does not change its
result.  Stats keep the per-class key-presence semantics:
a class appears in ``by_class_correct`` only once a record of that
class was predicted correctly.
"""

import numpy as np

from repro.vm.tracing import BranchClass

#: Each record filter's rule: the mask of the records it drops.
_DROPS = {
    "all": None,
    "no-returns": lambda enc: enc.classes == BranchClass.RETURN,
    "conditional": lambda enc: enc.classes != BranchClass.CONDITIONAL,
}


def outcomes(predictor, enc, conditional_only=False, ras_returns=True,
             flush_interval=None):
    """Run ``predictor``'s kernel over the records it sees.

    Returns ``(records, correct, hit, credited)``: the
    :class:`~repro.kernels.encode.SiteView` of the records that reach
    the predictor, their correctness and hit flags (None for a scheme
    with no buffer), and the count of return records the
    return-address mechanism scores instead.  Flush epochs count every
    record, as the loop does.
    """
    from repro.kernels import kernel_for

    if flush_interval is not None:
        enc = enc.flushed(flush_interval)
    rule = ("conditional" if conditional_only
            else "no-returns" if ras_returns else "all")
    records = enc.site_view(rule, _DROPS[rule])
    credited = len(enc) - len(records) if rule == "no-returns" else 0
    if not len(records):
        return records, np.zeros(0, dtype=bool), None, credited
    pred_taken, target_match, hit = kernel_for(predictor)(predictor,
                                                          records)
    # Taken records need the direction and the target, others only
    # the direction (bool algebra: np.where is far slower on bools).
    correct = records.takens & pred_taken & target_match
    correct |= ~(records.takens | pred_taken)
    return records, correct, hit, credited


def assemble_stats(predictor, enc, conditional_only=False,
                   ras_returns=True, flush_interval=None):
    """One simulation's ``PredictionStats`` from :func:`outcomes`."""
    from repro.predictors.base import PredictionStats

    records, correct, hit, credited = outcomes(
        predictor, enc, conditional_only=conditional_only,
        ras_returns=ras_returns, flush_interval=flush_interval)
    n = len(records)
    stats = PredictionStats()
    stats.total = n + credited
    stats.correct = int(np.count_nonzero(correct)) + credited
    if hit is not None:
        # A buffered scheme looks up every record it predicts.
        stats.buffer_accesses = n
        stats.buffer_misses = n - int(np.count_nonzero(hit))
    wrong = np.bincount(records.classes[~correct], minlength=4)
    totals = records.class_totals()
    for branch_class in range(4):
        extra = credited if branch_class == BranchClass.RETURN else 0
        total = totals[branch_class] + extra
        right = totals[branch_class] - int(wrong[branch_class]) + extra
        if total:
            stats.by_class_total[branch_class] = total
        if right:
            stats.by_class_correct[branch_class] = right
    return stats


def site_counts(predictor, enc, ras_returns=True):
    """``{site: [executions, correct]}`` in first-execution order."""
    view, correct, _hit, _credited = outcomes(predictor, enc,
                                              ras_returns=ras_returns)
    if not len(view):
        return {}
    first = np.flatnonzero(view.starts)
    rights = np.add.reduceat(correct, first, dtype=np.int64)
    sites = view.distinct_sites[view.segment_site]
    order = np.argsort(view.order[first])
    return {site: [execs, right] for site, execs, right in zip(
        sites[order].tolist(), view.lengths[order].tolist(),
        rights[order].tolist())}
