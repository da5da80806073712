"""Score the records a simulation shows a predictor, in array form.

A kernel answers three per-record questions — predicted direction,
predicted-target match, buffer hit (-1 none / 0 miss / 1 hit).
:func:`outcomes` turns them into what the scalar simulator's loop
computes, in one place: the flush epochs, the record filters
(``conditional_only``, the return-address substitution) and the
scoring rule of :func:`repro.predictors.base.is_correct`.
:func:`assemble_stats`, :func:`site_counts` and
:func:`repro.kernels.cycle.cycle_kernel` fold its result.  Stats keep
the per-class key-presence semantics: a class appears in
``by_class_correct`` only once a record of that class was predicted
correctly.
"""

import numpy as np

from repro.vm.tracing import BranchClass


def outcomes(predictor, enc, conditional_only=False, ras_returns=True,
             flush_interval=None):
    """Run ``predictor``'s kernel over the records it sees.

    Returns ``(sub, correct, hit, credited)``: the encoding of the
    records that reach the predictor, their correctness and hit flags,
    and the count of return records the return-address mechanism
    scores instead.  Flush epochs count every record, as the loop does.
    """
    from repro.kernels import kernel_for

    if flush_interval is not None:
        enc = enc.flushed(flush_interval)
    credited = 0
    if conditional_only:
        sub = enc.subset("conditional",
                         enc.classes == BranchClass.CONDITIONAL)
    elif ras_returns:
        is_return = enc.classes == BranchClass.RETURN
        credited = int(np.count_nonzero(is_return))
        sub = enc.subset("no-returns", ~is_return) if credited else enc
    else:
        sub = enc
    if not len(sub):
        return sub, np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int8), \
            credited
    pred_taken, target_match, hit = kernel_for(predictor)(predictor, sub)
    # Taken records need the direction and the target, others only
    # the direction (bool algebra: np.where is far slower on bools).
    correct = sub.takens & pred_taken & target_match
    correct |= ~(sub.takens | pred_taken)
    return sub, correct, hit, credited


def assemble_stats(predictor, enc, conditional_only=False,
                   ras_returns=True, flush_interval=None):
    """One simulation's ``PredictionStats`` from :func:`outcomes`."""
    from repro.predictors.base import PredictionStats

    sub, correct, hit, credited = outcomes(
        predictor, enc, conditional_only=conditional_only,
        ras_returns=ras_returns, flush_interval=flush_interval)
    stats = PredictionStats()
    stats.total = len(sub) + credited
    stats.correct = int(np.count_nonzero(correct)) + credited
    stats.buffer_accesses = int(np.count_nonzero(hit >= 0))
    stats.buffer_misses = int(np.count_nonzero(hit == 0))
    for branch_class in range(4):
        # Four compare-and-count passes beat a bincount, which first
        # copies the classes to intp.
        of_class = sub.classes == branch_class
        extra = credited if branch_class == BranchClass.RETURN else 0
        total = int(np.count_nonzero(of_class)) + extra
        right = int(np.count_nonzero(of_class & correct)) + extra
        if total:
            stats.by_class_total[branch_class] = total
        if right:
            stats.by_class_correct[branch_class] = right
    return stats


def site_counts(predictor, enc, ras_returns=True):
    """``{site: [executions, correct]}`` in first-execution order."""
    sub, correct, _hit, _credited = outcomes(predictor, enc,
                                             ras_returns=ras_returns)
    groups = sub.plain_site_groups()
    sites, inverse = sub.unique_sites(), sub.site_inverse()
    first = groups.order[groups.starts]
    executions = np.bincount(inverse, minlength=sites.shape[0])
    rights = np.bincount(inverse[correct], minlength=sites.shape[0])
    order = np.argsort(first)
    return {site: [execs, right] for site, execs, right in zip(
        sites[order].tolist(), executions[order].tolist(),
        rights[order].tolist())}
