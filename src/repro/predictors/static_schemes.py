"""Static (hardware-free, profile-free) baseline predictors.

These reproduce the related-work numbers the paper surveys: predicting
every branch taken is ~63-77% accurate depending on workload; J. E.
Smith's backward-taken/forward-not-taken rule averaged 76.5% on
FORTRAN code.  Score them with ``simulate(..., conditional_only=True)``
as the cited studies report conditional-branch accuracy.

Direction-only baselines cannot supply a target, so on predicted-taken
branches they supply the *actual* target (equivalent to measuring
direction accuracy only, as the original studies did).
"""

from repro.predictors.base import ANY_TARGET, Prediction, Predictor


class _StaticScheme(Predictor):
    """Common plumbing: stateless, direction-only, no buffer."""

    def update(self, site, branch_class, taken, target):
        pass

    def flush(self):
        pass

    def declared_parameters(self):
        return {"buffered": False, "history_depth": 0,
                "flush_sensitive": False}


class AlwaysTaken(_StaticScheme):
    """Predict every branch taken (direction accuracy only)."""

    name = "always-taken"

    def predict(self, site, branch_class):
        return Prediction(True, target=ANY_TARGET)


class AlwaysNotTaken(_StaticScheme):
    """Predict every branch not-taken — the paper's no-special-treatment
    fetch unit (next-address selection always falls through)."""

    name = "always-not-taken"

    def predict(self, site, branch_class):
        return Prediction(False)


class BackwardTakenForwardNotTaken(_StaticScheme):
    """J. E. Smith's static rule: backward branches (loops) taken,
    forward branches not-taken.  Needs the branch targets, supplied at
    construction from the program text."""

    name = "btfnt"

    def __init__(self, program):
        self._backward = {
            address: instr.target is not None and instr.target <= address
            for address, instr in program.branch_addresses()
            if instr.is_conditional
        }

    def predict(self, site, branch_class):
        if self._backward.get(site, False):
            return Prediction(True, target=ANY_TARGET)
        return Prediction(False)
