"""StaticProfile: quantisation invariants and drop-in compatibility.

The whole point of `estimate_profile` is that its output flows through
trace selection, layout, likely bits, and forward slots *unmodified*.
These tests run that pipeline end to end on real benchmarks with no
profiling run and check the program still computes the same answers.
"""

import pytest

from repro.analysis.staticpred import (
    DEFAULT_SCALE,
    StaticProfile,
    estimate_profile,
)
from repro.benchmarksuite import get_benchmark
from repro.cfg import ControlFlowGraph
from repro.lang import compile_source
from repro.profiling.profiler import Profile
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.vm import run_program


def compiled(name):
    return compile_source(get_benchmark(name).source, name=name)


def test_static_profile_is_a_profile():
    profile = estimate_profile(compiled("wc"))
    assert isinstance(profile, Profile)
    assert isinstance(profile, StaticProfile)
    assert profile.source == "static"
    assert profile.scale == DEFAULT_SCALE
    assert profile.estimates  # carries the per-branch evidence


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        estimate_profile(compiled("tee"), scale=0)


@pytest.mark.parametrize("name", ["wc", "grep", "cmp"])
def test_quantisation_invariants(name):
    program = compiled(name)
    cfg = ControlFlowGraph.from_program(program)
    profile = estimate_profile(program)
    for leader, count in profile.block_counts.items():
        assert isinstance(count, int) and count >= 1, leader
    for site, execs in profile.branch_execs.items():
        taken = profile.branch_taken[site]
        assert isinstance(execs, int) and isinstance(taken, int)
        assert 0 <= taken <= execs, site
        assert execs == profile.block_counts.get(
            cfg.block_of(site).start, 0), site
    profile.check(program)


def test_taken_fraction_survives_quantisation():
    program = compiled("wc")
    profile = estimate_profile(program)
    for site, execs in profile.branch_execs.items():
        if execs < 100:
            continue  # too coarse to reproduce the probability
        fraction = profile.taken_fraction(site)
        probability = profile.estimates[site].taken_probability
        assert fraction == pytest.approx(probability, abs=0.01), site


@pytest.mark.parametrize("name", ["wc", "tee", "cmp"])
def test_profile_free_pipeline_preserves_semantics(name):
    # No profiler anywhere: estimate, lay out, fill slots, execute.
    program = compiled(name)
    spec = get_benchmark(name)
    streams = spec.input_suite(scale=0.05, runs=1)[0]
    baseline = run_program(program, inputs=streams,
                           max_instructions=50_000_000)

    profile = estimate_profile(program)
    layout = build_fs_program(program, profile)  # verify=True default
    laid_out = run_program(layout.program, inputs=streams,
                           max_instructions=50_000_000)
    assert laid_out.output == baseline.output

    expanded, _ = fill_forward_slots(layout.program, 2)
    for mode in ("direct", "execute"):
        result = run_program(expanded, inputs=streams, slot_mode=mode,
                             max_instructions=100_000_000)
        assert result.output == baseline.output, mode


def test_layout_marks_likely_sites_from_the_static_profile():
    program = compiled("grep")
    layout = build_fs_program(program, estimate_profile(program))
    # The static profile must give layout enough signal to commit to
    # some likely-taken branches (grep is loop-heavy).
    assert layout.likely_sites
