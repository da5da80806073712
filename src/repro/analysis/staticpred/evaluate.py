"""Heuristic-vs-measured agreement evaluation.

Quantifies how much of a measured profile the static predictor
recovers: :func:`compare_to_profile` predicts a program statically and
compares the prediction with the program's measured profile (the one
the experiment runner cached) per conditional branch site.  Two
headline metrics, both weighted by measured executions so hot branches
dominate (a branch that never executed is unmeasurable and is
excluded):

``direction agreement``
    fraction of dynamic branch executions whose site's predicted
    direction (taken vs not) matches the measured majority direction.

``taken-rate agreement``
    ``1 - |p_static - p_measured|`` averaged over executions — a
    stricter, magnitude-sensitive score.  The acceptance gate for the
    profile-free pipeline is >= 0.70 suite-wide.

Per-heuristic hit rates report, for every site a heuristic voted on,
how often its vote matched the measured majority — the same
accounting Ball-Larus use for their published hit rates.
"""

from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import FlowGraph
from repro.analysis.staticpred.heuristics import (
    HEURISTIC_ORDER,
    BranchEstimate,
    predict_branches,
)
from repro.isa.program import Program
from repro.profiling.profiler import Profile


class SiteComparison:
    """Static vs measured prediction for one conditional branch site."""

    __slots__ = ("site", "execs", "measured_fraction",
                 "estimated_probability", "votes")

    def __init__(self, site: int, execs: int, measured_fraction: float,
                 estimated_probability: float,
                 votes: Tuple[Tuple[str, bool], ...]) -> None:
        self.site = site
        self.execs = execs
        self.measured_fraction = measured_fraction
        self.estimated_probability = estimated_probability
        self.votes = votes

    @property
    def measured_taken(self) -> bool:
        return self.measured_fraction > 0.5

    @property
    def predicted_taken(self) -> bool:
        return self.estimated_probability > 0.5

    @property
    def direction_match(self) -> bool:
        return self.measured_taken == self.predicted_taken

    @property
    def rate_agreement(self) -> float:
        return 1.0 - abs(self.estimated_probability
                         - self.measured_fraction)


class AgreementReport:
    """Aggregated agreement over one benchmark (or a whole suite).

    Attributes:
        name: benchmark name, or ``"overall"`` for an aggregate.
        sites: the per-site comparisons (executed sites only).
    """

    __slots__ = ("name", "sites")

    def __init__(self, name: str, sites: List[SiteComparison]) -> None:
        self.name = name
        self.sites = sites

    @property
    def total_execs(self) -> int:
        return sum(site.execs for site in self.sites)

    @property
    def direction_agreement(self) -> float:
        """Execution-weighted direction hit rate (1.0 when no sites)."""
        total = self.total_execs
        if total == 0:
            return 1.0
        hits = sum(site.execs for site in self.sites
                   if site.direction_match)
        return hits / total

    @property
    def taken_rate_agreement(self) -> float:
        """Execution-weighted ``1 - |p_static - p_measured|``."""
        total = self.total_execs
        if total == 0:
            return 1.0
        weighted = sum(site.execs * site.rate_agreement
                       for site in self.sites)
        return weighted / total

    def heuristic_hit_rates(self) -> Dict[str, Tuple[int, float]]:
        """Per-heuristic ``(sites voted, execution-weighted hit rate)``.

        Only heuristics that voted at least once appear.
        """
        rates: Dict[str, Tuple[int, float]] = {}
        for name in HEURISTIC_ORDER:
            voted = [(site, vote_taken)
                     for site in self.sites
                     for vote_name, vote_taken in site.votes
                     if vote_name == name]
            total = sum(site.execs for site, _ in voted)
            if total == 0:
                continue
            hits = sum(site.execs for site, vote_taken in voted
                       if vote_taken == site.measured_taken)
            rates[name] = (len(voted), hits / total)
        return rates

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sites": len(self.sites),
            "executions": self.total_execs,
            "direction_agreement": round(self.direction_agreement, 4),
            "taken_rate_agreement": round(self.taken_rate_agreement, 4),
            "heuristics": {
                name: {"sites": sites, "hit_rate": round(rate, 4)}
                for name, (sites, rate) in
                self.heuristic_hit_rates().items()
            },
        }

    def __repr__(self) -> str:
        return "AgreementReport(%r, %d sites, dir=%.3f, rate=%.3f)" % (
            self.name, len(self.sites), self.direction_agreement,
            self.taken_rate_agreement)


def compare_to_profile(program: Program, profile: Profile, name: str,
                       estimates: Optional[Dict[int, BranchEstimate]]
                       = None) -> AgreementReport:
    """Compare static estimates against an existing measured profile."""
    if estimates is None:
        estimates = predict_branches(FlowGraph.from_program(program))
    sites: List[SiteComparison] = []
    for site, execs in sorted(profile.branch_execs.items()):
        if execs == 0:
            continue
        fraction = profile.taken_fraction(site)
        if fraction is None:
            continue
        estimate = estimates.get(site)
        probability = (estimate.taken_probability
                       if estimate is not None else 0.5)
        votes = estimate.votes if estimate is not None else ()
        sites.append(SiteComparison(site, execs, fraction, probability,
                                    votes))
    return AgreementReport(name, sites)

