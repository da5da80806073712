"""Vectorized simulation kernels (the vector simulation path).

The scalar simulator in :mod:`repro.predictors.base` walks a branch
trace one record at a time through Python objects — honest, simple,
and the throughput ceiling of every sweep and fuzz campaign.  This
package re-expresses the same predictors as NumPy array programs:

* a trace already is column arrays; the kernels wrap them without
  copying (:class:`~repro.kernels.encode.EncodedTrace`) and memoize
  the groupings they derive from them;
* per-predictor kernels compute every record's prediction outcome in
  a handful of whole-trace array passes (:mod:`~repro.kernels.tables`
  for the SBTB/CBTB associative buffers,
  :mod:`~repro.kernels.direction` for gshare/bimodal,
  :mod:`~repro.kernels.static` for the FS and static baselines);
* the associative-table kernels partition work by cache set and drop
  to a tight per-set scalar replay only for sets under real capacity
  pressure (see docs/PERFORMANCE.md for the closed forms);
* :mod:`~repro.kernels.aggregate` folds per-record outcomes into the
  same :class:`~repro.predictors.base.PredictionStats` the scalar
  simulator produces.

The contract is **bit identity**: for every supported predictor and
every trace, the vector path returns a ``PredictionStats`` equal
field-for-field to the scalar simulator's.  The differential
equivalence tests, the conformance engine cross-check, and the golden
tables all enforce it; a kernel that is fast but drifts is a bug.

Path selection lives in :func:`~repro.kernels.engine.resolve_engine`,
and it is not an option: ``simulate()`` uses a kernel when one exists,
the predictor is pristine, there is no flush and the trace is large
enough to amortise array setup, and the scalar loop otherwise.  The
vector path never mutates the predictor object it is handed, so
buffer-internal telemetry (occupancy, eviction counts) appears only on
scalar runs.
"""

from repro.kernels.encode import EncodedTrace
from repro.kernels.engine import AUTO_THRESHOLD, resolve_engine


def kernel_for(predictor):
    """The batch kernel for ``predictor``, or None when unsupported.

    Dispatch is by exact type, not isinstance: a subclass may override
    ``predict``/``update`` in ways the closed forms do not model, so it
    runs on the scalar loop until it registers its own kernel.
    """
    from repro.kernels import direction, static, tables
    from repro.predictors.bimodal import Bimodal
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
        ForwardSemanticPredictor: static.fs_kernel,
        AlwaysTaken: static.always_taken_kernel,
        AlwaysNotTaken: static.always_not_taken_kernel,
        BackwardTakenForwardNotTaken: static.btfnt_kernel,
    }
    return registry.get(type(predictor))


def supports(predictor):
    """True when the vector path has a kernel for ``predictor``."""
    return kernel_for(predictor) is not None


def is_pristine(predictor):
    """True when ``predictor`` is in its freshly-constructed state.

    The closed forms reconstruct buffer contents from the trace alone,
    which is only valid when the simulation starts from empty buffers
    and initial counters — how every runner and sweep builds its
    predictors.  A warm predictor (reused across simulate calls
    without ``reset()``) is routed to the scalar loop instead.
    """
    from repro.predictors.bimodal import Bimodal
    from repro.predictors.cbtb import CounterBTB
    from repro.predictors.sbtb import SimpleBTB
    from repro.predictors.twolevel import GShare

    if isinstance(predictor, (SimpleBTB, CounterBTB)):
        return len(predictor._cache) == 0
    if isinstance(predictor, GShare):
        return (predictor.history == 0
                and len(predictor._targets) == 0
                and predictor.counters.count(1) == len(predictor.counters))
    if isinstance(predictor, Bimodal):
        return (len(predictor._targets) == 0
                and predictor.counters.count(1) == len(predictor.counters))
    return True     # the software schemes carry no run-time state


def simulate_vector(predictor, trace, conditional_only=False,
                    ras_returns=True):
    """Run ``predictor`` over ``trace`` with its batch kernel.

    Mirrors :func:`repro.predictors.base.simulate_scalar` exactly
    (without ``flush_interval``, which :func:`resolve_engine` routes to
    the scalar loop).  Raises ValueError for unsupported predictors.
    """
    from repro.kernels.aggregate import assemble_stats

    kernel = kernel_for(predictor)
    if kernel is None:
        raise ValueError("no vector kernel for %r" % type(predictor).__name__)
    return assemble_stats(kernel, predictor, EncodedTrace.of(trace),
                          conditional_only=conditional_only,
                          ras_returns=ras_returns)


__all__ = [
    "AUTO_THRESHOLD",
    "EncodedTrace",
    "is_pristine",
    "kernel_for",
    "resolve_engine",
    "simulate_vector",
    "supports",
]
