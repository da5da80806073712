"""Batch kernels for the software-only schemes (FS, static baselines).

These predictors carry no run-time state at all — predictions are a
pure per-site function — so their kernels are table lookups over a
:class:`~repro.kernels.encode.SiteView`: look each distinct site up in
the predictor's dicts once, then repeat the answers over each site's
segment.  A flush cannot touch state that lives in the program text,
so a flushed view's (epoch, site) segments share their site's answer.
None of them accesses a buffer; the hit column is None ("no buffer"),
keeping them out of miss-ratio accounting exactly like the scalar
``hit=None``.

Direction-only schemes score with an any-target sentinel in the
scalar loop; here that is simply ``target_match = pred_taken``.
"""

import numpy as np

from repro.vm.tracing import BranchClass


def fs_kernel(predictor, view):
    sites = view.distinct_sites.tolist()
    likely = np.fromiter((predictor._likely.get(site, False)
                          for site in sites), bool, count=len(sites))
    # None marks a site without program text: it falls back to the
    # any-target sentinel (statically-encoded target, direction-only
    # scoring).
    static = [predictor._targets.get(site) for site in sites]
    has_target = np.array([target is not None for target in static],
                          dtype=bool)
    static_target = np.array([target or 0 for target in static],
                             dtype=np.int64)

    classes = view.classes
    pred_taken = view.per_segment(likely)
    pred_taken &= classes == BranchClass.CONDITIONAL
    pred_taken |= classes == BranchClass.UNCONDITIONAL_KNOWN
    target_match = view.per_segment(~has_target)
    target_match |= view.per_segment(static_target) == view.targets
    target_match &= pred_taken
    return pred_taken, target_match, None


def always_taken_kernel(predictor, view):
    pred_taken = np.ones(len(view), dtype=bool)
    return pred_taken, pred_taken, None


def always_not_taken_kernel(predictor, view):
    pred_taken = np.zeros(len(view), dtype=bool)
    return pred_taken, pred_taken, None


def btfnt_kernel(predictor, view):
    sites = view.distinct_sites.tolist()
    backward = np.fromiter((predictor._backward.get(site, False)
                            for site in sites), bool, count=len(sites))
    pred_taken = view.per_segment(backward)
    return pred_taken, pred_taken, None
