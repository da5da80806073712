"""Branch prediction schemes.

Hardware schemes (Section 2.2 of the paper):

* :class:`SimpleBTB` — the SBTB: a fully-associative LRU buffer of
  *taken* branches; a hit predicts taken, a hit that turns out
  not-taken deletes the entry.
* :class:`CounterBTB` — the CBTB: a buffer of all executed branches,
  each with an n-bit saturating up/down counter (2 bits, threshold 2 in
  the paper).

Software scheme:

* :class:`ForwardSemanticPredictor` — per-site likely bits assigned by
  the profiling compiler (the layout pass).

Static baselines from the related work the paper surveys:

* :class:`AlwaysTaken`, :class:`AlwaysNotTaken`,
  :class:`BackwardTakenForwardNotTaken` (J. E. Smith's rule).

All predictors share the correctness accounting of
:func:`repro.predictors.base.simulate`: a prediction is correct when the
predicted direction matches and, for predicted-taken branches, the
supplied target matches the actual target.  Returns are handled by a
return-address mechanism common to all schemes (see DESIGN.md).
"""

from repro.predictors.base import (
    Prediction,
    PredictionStats,
    Predictor,
    simulate,
    simulate_scalar,
    site_report,
    site_statistics,
)
from repro.predictors.assoc_cache import AssociativeCache
from repro.predictors.sbtb import SimpleBTB
from repro.predictors.cbtb import CounterBTB
from repro.predictors.static_schemes import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTakenForwardNotTaken,
)
from repro.predictors.fs import ForwardSemanticPredictor
from repro.predictors.twolevel import GShare
from repro.predictors.bimodal import Bimodal, Tournament

__all__ = [
    "GShare",
    "Bimodal",
    "Tournament",
    "Prediction",
    "PredictionStats",
    "Predictor",
    "simulate",
    "simulate_scalar",
    "site_report",
    "site_statistics",
    "AssociativeCache",
    "SimpleBTB",
    "CounterBTB",
    "AlwaysNotTaken",
    "AlwaysTaken",
    "BackwardTakenForwardNotTaken",
    "ForwardSemanticPredictor",
]
