"""Vectorized simulation kernels (the vector simulation path).

The scalar simulator in :mod:`repro.predictors.base` walks a branch
trace one record at a time through Python objects — honest, simple,
and the reference every kernel is checked against.  This package
re-expresses every predictor type of :mod:`repro.predictors` as NumPy
array programs:

* a trace already is column arrays; the kernels wrap them without
  copying (:class:`~repro.kernels.encode.EncodedTrace`) and memoize
  what they derive from them;
* every kernel runs in the *site-sorted domain*: one
  :class:`~repro.kernels.encode.SiteView` per filtered trace sorts
  the records by site once, and the SBTB/CBTB kernels
  (:mod:`~repro.kernels.tables`), the FS and static baselines
  (:mod:`~repro.kernels.static`) and the direction schemes' target
  store (:mod:`~repro.kernels.direction`) answer their per-site
  questions in that order;
* gshare, bimodal and the tournament compute their direction bits in
  trace order, because their history is global, and gather them into
  view order through the view's ``order``;
* the associative-table kernels partition work by cache set and
  replay record by record, in trace order, only the sets under real
  capacity pressure (:mod:`~repro.kernels.evict`; see
  docs/PERFORMANCE.md for the closed forms) — the one place a view's
  answers go back to trace order;
* a context switch is a key, not a hook: stateful kernels group by
  ``(flush epoch, key)``, so each epoch starts pristine;
* :mod:`~repro.kernels.aggregate` filters and scores the records and
  folds the outcomes into ``PredictionStats``, per-site counts or
  cycle accounting (:mod:`~repro.kernels.cycle`); each fold only
  counts, so it gives the same result in either order.

The contract is **bit identity**: for every supported predictor and
every trace, the vector path returns a ``PredictionStats`` equal
field-for-field to the scalar simulator's.  The differential
equivalence tests, the conformance engine cross-check, and the golden
tables all enforce it; a kernel that is fast but drifts is a bug.

Path selection lives in :func:`~repro.kernels.engine.resolve_engine`,
and it is not an option: ``simulate()`` uses a kernel whenever one
exists for the predictor's type, and the scalar loop otherwise.  Both
paths start every run from the predictor's initial state; the vector
path never mutates the predictor object it is handed.
"""

from repro.kernels.encode import EncodedTrace
from repro.kernels.engine import resolve_engine


def kernel_for(predictor):
    """The batch kernel for ``predictor``, or None when unsupported.

    Dispatch is by exact type, not isinstance: a subclass may override
    ``predict``/``update`` in ways the closed forms do not model, so it
    runs on the scalar loop until it registers its own kernel.  A
    tournament qualifies when its components are two distinct Bimodal
    or GShare objects.
    """
    from repro.kernels import direction, static, tables
    from repro.predictors.bimodal import Bimodal, Tournament
    from repro.predictors.cbtb import CounterBTB
    from repro.predictors.fs import ForwardSemanticPredictor
    from repro.predictors.sbtb import SimpleBTB
    from repro.predictors.static_schemes import (
        AlwaysNotTaken,
        AlwaysTaken,
        BackwardTakenForwardNotTaken,
    )
    from repro.predictors.twolevel import GShare

    registry = {
        SimpleBTB: tables.sbtb_kernel,
        CounterBTB: tables.cbtb_kernel,
        GShare: direction.gshare_kernel,
        Bimodal: direction.bimodal_kernel,
        Tournament: direction.tournament_kernel,
        ForwardSemanticPredictor: static.fs_kernel,
        AlwaysTaken: static.always_taken_kernel,
        AlwaysNotTaken: static.always_not_taken_kernel,
        BackwardTakenForwardNotTaken: static.btfnt_kernel,
    }
    if type(predictor) is Tournament and not (
            predictor.first is not predictor.second
            and type(predictor.first) in (Bimodal, GShare)
            and type(predictor.second) in (Bimodal, GShare)):
        return None
    return registry.get(type(predictor))


def supports(predictor):
    """True when the vector path has a kernel for ``predictor``."""
    return kernel_for(predictor) is not None


def simulate_vector(predictor, trace, flush_interval=None,
                    conditional_only=False, ras_returns=True):
    """Run ``predictor`` over ``trace`` with its batch kernel.

    Same arguments and result as
    :func:`repro.predictors.base.simulate_scalar`.  Raises ValueError
    for unsupported predictors and for a ``flush_interval`` below 1.
    """
    from repro.kernels.aggregate import assemble_stats

    if not supports(predictor):
        raise ValueError("no vector kernel for %r" % type(predictor).__name__)
    return assemble_stats(predictor, EncodedTrace.of(trace),
                          conditional_only=conditional_only,
                          ras_returns=ras_returns,
                          flush_interval=flush_interval)


__all__ = [
    "EncodedTrace",
    "kernel_for",
    "resolve_engine",
    "simulate_vector",
    "supports",
]
