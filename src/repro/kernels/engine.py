"""Simulation path selection: scalar reference loop vs batch kernels.

:func:`repro.predictors.base.simulate` runs every simulation on one of
two plain functions:

* :func:`~repro.predictors.base.simulate_scalar` — the record-at-a-time
  loop, the reference;
* :func:`~repro.kernels.simulate_vector` — the batch kernels of this
  package.

The choice is the code's, not the user's: :func:`resolve_engine` picks
the kernels whenever they can reproduce the run bit-for-bit and the
trace is long enough to amortise array setup.  Both paths give
identical results, so the choice is purely a throughput decision; the
resolved name is what telemetry reports.
"""

#: Records below which simulations stay scalar: the per-call fixed cost
#: of the array passes (encoding, the eviction replay) is not amortised
#: by short traces such as characterize probes and conformance fuzz.
AUTO_THRESHOLD = 2048


def resolve_engine(predictor, trace, flush_interval=None):
    """The path a simulation runs on: ``"vector"`` or ``"scalar"``.

    ``"vector"`` when a kernel exists for the predictor type, the
    predictor is pristine (the closed forms assume an initial state),
    there is no ``flush_interval`` (the context-switch ablation needs a
    hook between records), and the trace has at least
    :data:`AUTO_THRESHOLD` records; ``"scalar"`` otherwise.
    """
    from repro.kernels import is_pristine, supports

    if (flush_interval is None and len(trace) >= AUTO_THRESHOLD
            and supports(predictor) and is_pristine(predictor)):
        return "vector"
    return "scalar"
