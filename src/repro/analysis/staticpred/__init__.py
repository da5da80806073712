"""Profile-free static branch prediction.

Ball-Larus branch heuristics (:mod:`.heuristics`) over natural loops
(:mod:`.loops`), Wu-Larus frequency propagation (:mod:`.frequency`),
and a :class:`StaticProfile` (:mod:`.profile`) that drops into every
consumer of measured profiles.  :mod:`.evaluate` scores the predictor
against a measured profile.
"""

from repro.analysis.staticpred.evaluate import (
    AgreementReport,
    SiteComparison,
    compare_to_profile,
)
from repro.analysis.staticpred.frequency import (
    FREQUENCY_CLAMP,
    MAX_CYCLIC_PROBABILITY,
    StaticFrequencies,
    edge_probabilities,
    local_frequencies,
    program_frequencies,
)
from repro.analysis.staticpred.heuristics import (
    HEURISTIC_CONFIDENCE,
    HEURISTIC_ORDER,
    BranchEstimate,
    combine_votes,
    predict_branches,
)
from repro.analysis.staticpred.loops import Loop, LoopNest, find_loops
from repro.analysis.staticpred.profile import (
    DEFAULT_SCALE,
    StaticProfile,
    estimate_profile,
)

__all__ = [
    "AgreementReport",
    "BranchEstimate",
    "DEFAULT_SCALE",
    "FREQUENCY_CLAMP",
    "HEURISTIC_CONFIDENCE",
    "HEURISTIC_ORDER",
    "Loop",
    "LoopNest",
    "MAX_CYCLIC_PROBABILITY",
    "SiteComparison",
    "StaticFrequencies",
    "StaticProfile",
    "combine_votes",
    "compare_to_profile",
    "edge_probabilities",
    "estimate_profile",
    "find_loops",
    "local_frequencies",
    "predict_branches",
    "program_frequencies",
]
