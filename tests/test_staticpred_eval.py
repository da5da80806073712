"""The heuristic-vs-measured agreement harness."""

import pytest

from repro.analysis.dataflow import FlowGraph
from repro.analysis.staticpred import (
    AgreementReport,
    SiteComparison,
    compare_to_profile,
    predict_branches,
)
from repro.experiments.runner import SuiteRunner
from repro.isa import assemble
from repro.profiling import profile_program

LOOP_SOURCE = """
func main:
    li r1, 0
    li r2, 10
loop:
    add r1, r1, r1
    li r3, 1
    add r1, r1, r3
    bgt r2, r1, loop
    puti r1
    halt
"""


def measured_report():
    program = assemble(LOOP_SOURCE)
    profile, _ = profile_program(program, [[]])
    return program, profile, compare_to_profile(program, profile, "loopy")


def test_compare_covers_every_executed_site():
    program, profile, report = measured_report()
    executed = {site for site, execs in profile.branch_execs.items()
                if execs > 0}
    assert {site.site for site in report.sites} == executed
    assert report.total_execs == sum(profile.branch_execs[site]
                                     for site in executed)


def test_metrics_are_bounded_and_direction_sane():
    _, _, report = measured_report()
    assert 0.0 <= report.direction_agreement <= 1.0
    assert 0.0 <= report.taken_rate_agreement <= 1.0
    # The loop branch dominates execution and the loop heuristic gets
    # it right, so agreement on this program is high.
    assert report.direction_agreement > 0.5


def test_empty_report_defaults_to_perfect_agreement():
    report = AgreementReport("empty", [])
    assert report.total_execs == 0
    assert report.direction_agreement == 1.0
    assert report.taken_rate_agreement == 1.0
    assert report.heuristic_hit_rates() == {}


def test_site_comparison_properties():
    site = SiteComparison(site=7, execs=100, measured_fraction=0.9,
                          estimated_probability=0.88,
                          votes=(("loop", True),))
    assert site.measured_taken and site.predicted_taken
    assert site.direction_match
    assert site.rate_agreement == pytest.approx(0.98)
    flipped = SiteComparison(site=7, execs=100, measured_fraction=0.9,
                             estimated_probability=0.1, votes=())
    assert not flipped.direction_match
    assert flipped.rate_agreement == pytest.approx(0.2)


def test_heuristic_hit_rates_weight_by_executions():
    hot_hit = SiteComparison(1, 90, 0.9, 0.88, (("loop", True),))
    cold_miss = SiteComparison(2, 10, 0.9, 0.12, (("loop", False),))
    report = AgreementReport("mixed", [hot_hit, cold_miss])
    sites, rate = report.heuristic_hit_rates()["loop"]
    assert sites == 2
    assert rate == pytest.approx(0.9)  # 90 of 100 executions hit


def test_to_dict_shape():
    _, _, report = measured_report()
    data = report.to_dict()
    assert data["name"] == "loopy"
    assert data["sites"] == len(report.sites)
    assert data["executions"] == report.total_execs
    assert 0.0 <= data["direction_agreement"] <= 1.0
    for entry in data["heuristics"].values():
        assert set(entry) == {"sites", "hit_rate"}


def test_unestimated_sites_fall_back_to_even_odds():
    program, profile, _ = measured_report()
    report = compare_to_profile(program, profile, "bare", estimates={})
    for site in report.sites:
        assert site.estimated_probability == 0.5
        assert site.votes == ()


def test_evaluate_benchmark_end_to_end():
    """Scored against the runner's own profile, as the ``staticpred``
    experiment scores it."""
    run = SuiteRunner(scale=0.05, runs=1, cache_dir=False).run("wc")
    report = compare_to_profile(run.program, run.profile, "wc")
    assert report.name == "wc"
    assert report.sites
    assert report.total_execs > 0
    assert 0.0 <= report.taken_rate_agreement <= 1.0
    # The committed suite-wide number is ~0.77 (docs/STATICPRED.md);
    # a single small benchmark should comfortably clear a loose floor.
    assert report.taken_rate_agreement >= 0.5
    rates = report.heuristic_hit_rates()
    assert rates  # at least one heuristic voted on an executed site
    for sites, rate in rates.values():
        assert sites > 0
        assert 0.0 <= rate <= 1.0


def test_estimates_parameter_short_circuits_prediction():
    program, profile, _ = measured_report()
    estimates = predict_branches(FlowGraph.from_program(program))
    via_param = compare_to_profile(program, profile, "x", estimates)
    recomputed = compare_to_profile(program, profile, "x")
    assert {s.site: s.estimated_probability for s in via_param.sites} \
        == {s.site: s.estimated_probability for s in recomputed.sites}
