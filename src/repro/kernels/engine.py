"""Simulation path selection: batch kernels or the scalar loop.

:func:`repro.predictors.base.simulate` runs every simulation on
:func:`~repro.kernels.simulate_vector` when a kernel exists for the
predictor's type, and on the reference loop
:func:`~repro.predictors.base.simulate_scalar` otherwise (subclasses,
users' own predictors).  Both give identical results; the resolved
name is what telemetry reports.
"""


def resolve_engine(predictor, trace):
    """The path a simulation runs on: ``"vector"`` or ``"scalar"``.

    ``"vector"`` exactly when a kernel exists for the predictor.  The
    trace does not affect the choice; it is passed so that a caller
    wrapping this function can count the records sent down each path.
    """
    from repro.kernels import supports

    return "vector" if supports(predictor) else "scalar"
