"""Batch kernels for the software-only schemes (FS, static baselines).

These predictors carry no run-time state at all — predictions are a
pure per-site function — so their kernels are table lookups: map each
distinct site through the predictor's dicts once, then gather.  None
of them accesses a buffer; the hit column is -1 ("no buffer") for
every record, keeping them out of miss-ratio accounting exactly like
the scalar ``hit=None``.

Direction-only schemes score with an any-target sentinel in the
scalar loop; here that is simply ``target_match = pred_taken``.
A flush cannot touch state that lives in the program text, so these
kernels ignore flush epochs.
"""

import numpy as np

from repro.vm.tracing import BranchClass


def _no_buffer(n):
    return np.full(n, -1, dtype=np.int8)


def _site_table(enc, fn, dtype):
    """Evaluate ``fn`` once per distinct site, gathered per record."""
    unique = enc.unique_sites()
    values = np.fromiter((fn(int(site)) for site in unique), dtype,
                         count=unique.shape[0])
    return values[enc.site_inverse()]


def fs_kernel(predictor, enc):
    n = len(enc)
    likely = _site_table(
        enc, lambda s: predictor._likely.get(s, False), bool)
    has_target = _site_table(
        enc, lambda s: s in predictor._targets, bool)
    static_target = _site_table(
        enc, lambda s: predictor._targets.get(s, 0), np.int64)

    conditional = enc.classes == BranchClass.CONDITIONAL
    direct = enc.classes == BranchClass.UNCONDITIONAL_KNOWN
    pred_taken = (conditional & likely) | direct
    # Sites without program text fall back to the any-target sentinel
    # (statically-encoded target, direction-only scoring).
    target_match = pred_taken & (~has_target
                                 | (static_target == enc.targets))
    return pred_taken, target_match, _no_buffer(n)


def always_taken_kernel(predictor, enc):
    n = len(enc)
    pred_taken = np.ones(n, dtype=bool)
    return pred_taken, pred_taken.copy(), _no_buffer(n)


def always_not_taken_kernel(predictor, enc):
    n = len(enc)
    pred_taken = np.zeros(n, dtype=bool)
    return pred_taken, pred_taken.copy(), _no_buffer(n)


def btfnt_kernel(predictor, enc):
    n = len(enc)
    pred_taken = _site_table(
        enc, lambda s: predictor._backward.get(s, False), bool)
    return pred_taken, pred_taken.copy(), _no_buffer(n)
