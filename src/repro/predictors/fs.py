"""The Forward Semantic as a predictor.

The scheme's prediction state is the likely-taken bit the profiling
compiler wrote into each conditional branch, plus the statically known
targets of direct jumps and calls.  There is no buffer: the prediction
is part of the program text, which is also why a context switch cannot
degrade it (``flush`` is a no-op — the paper's key robustness claim).

Unknown-target indirect jumps are predicted not-taken (the fetch unit
can only fall through), which is always wrong — they "pose a problem
for all three schemes".
"""

from repro.predictors.base import ANY_TARGET, Prediction, Predictor
from repro.vm.tracing import BranchClass


class ForwardSemanticPredictor(Predictor):
    """Per-site likely bits from the laid-out program."""

    name = "FS"

    def __init__(self, program=None, likely_sites=None):
        """Build from a laid-out program or an explicit site map.

        Args:
            program: program whose conditional branches carry likely
                bits (the layout pass output); branch targets are read
                from the text for predicted-taken branches.
            likely_sites: alternatively, a dict of conditional-branch
                address -> bool.
        """
        if (program is None) == (likely_sites is None):
            raise ValueError("pass exactly one of program / likely_sites")
        self._likely = {}
        self._targets = {}
        if program is not None:
            for address, instr in program.branch_addresses():
                if instr.is_conditional:
                    self._likely[address] = bool(instr.likely)
                    # Forward slots make the original target path follow
                    # the branch; architecturally the fetch unit follows
                    # the (slot-adjusted) target encoded in the branch.
                    # For prediction scoring the original target is the
                    # taken path.
                    target = instr.orig_target
                    self._targets[address] = (
                        target if target is not None else instr.target)
                elif instr.target_known:
                    self._targets[address] = instr.target
        else:
            self._likely = dict(likely_sites)

    def predict(self, site, branch_class):
        if branch_class == BranchClass.CONDITIONAL:
            if self._likely.get(site, False):
                # Without program text (likely_sites construction) the
                # statically-encoded target is unavailable to us but is
                # by definition the branch's own target: score
                # direction-only via the sentinel.
                target = self._targets.get(site, ANY_TARGET)
                return Prediction(True, target=target)
            return Prediction(False)
        if branch_class == BranchClass.UNCONDITIONAL_KNOWN:
            # The compiler knows the target of direct jumps and calls.
            target = self._targets.get(site)
            if target is not None:
                return Prediction(True, target=target)
            # Program text unavailable (likely_sites construction):
            # still credit the statically known target.
            return Prediction(True, target=ANY_TARGET)
        # Unknown-target indirect jump: nothing to predict.
        return Prediction(False)

    def update(self, site, branch_class, taken, target):
        pass

    def flush(self):
        """Context switches do not affect compiler-encoded predictions."""

    def reset(self):
        pass

    def declared_parameters(self):
        return {"buffered": False, "history_depth": 0,
                "flush_sensitive": False}

    def telemetry_stats(self):
        likely = sum(1 for bit in self._likely.values() if bit)
        return {
            "scheme": self.name,
            "conditional_sites": len(self._likely),
            "likely_taken_sites": likely,
            "static_targets": len(self._targets),
        }
