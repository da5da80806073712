"""Wu-Larus frequency propagation: loops, irreducible CFGs, recursion.

The closed-form loop handling is checked exactly on a self-loop, the
irreducible cleanup pass on a hand-built two-entry cycle, and totality
plus the quantisation invariants on hypothesis-generated Minic pushed
through the real compiler (reusing the fuzz pipeline's program
strategy).
"""

import math

import pytest
from hypothesis import given, settings

from repro.analysis.dataflow import FlowGraph
from repro.analysis.staticpred import (
    FREQUENCY_CLAMP,
    MAX_CYCLIC_PROBABILITY,
    estimate_profile,
    find_loops,
    predict_branches,
    program_frequencies,
)
from repro.cfg import ControlFlowGraph
from repro.isa import assemble
from repro.lang import compile_source
from tests.test_fuzz_fs_pipeline import programs

SELF_LOOP = """
func main:
    li r1, 0
    li r2, 10
loop:
    add r1, r1, r2
    bgt r2, r1, loop
    halt
"""

# A two-entry cycle: the entry branch reaches both `left` and `right`,
# each of which branches to the other — neither dominates, so the
# cycle has no natural-loop back edge (irreducible).
IRREDUCIBLE = """
func main:
    li r1, 0
    li r2, 1
    bgt r2, r1, left
right:
    add r1, r1, r2
    bgt r1, r2, left
    halt
left:
    sub r1, r1, r2
    bgt r1, r2, right
    halt
"""


def flow(source):
    program = assemble(source)
    cfg = ControlFlowGraph.from_program(program)
    return program, cfg, FlowGraph(cfg)


# -- self-loops --------------------------------------------------------------

def test_self_loop_frequency_matches_the_geometric_sum():
    program, cfg, graph = flow(SELF_LOOP)
    estimates = predict_branches(graph)
    taken_p = estimates[3].taken_probability
    frequencies = program_frequencies(graph, estimates)
    # Header multiplier is the closed form 1 / (1 - cyclic probability).
    assert frequencies.block_freq[2] == pytest.approx(1.0 / (1.0 - taken_p))
    # One run enters the loop once and leaves it once.
    assert frequencies.block_freq[0] == pytest.approx(1.0)
    assert frequencies.block_freq[4] == pytest.approx(1.0)
    assert frequencies.edge_freq[(2, 2)] == pytest.approx(
        taken_p / (1.0 - taken_p))


def test_certain_loop_is_capped_not_divergent():
    # beq r1, r1 closes the loop with probability 1.0; the cyclic cap
    # must keep the header frequency at 1 / (1 - 0.99).
    program, cfg, graph = flow("""
func main:
    li r1, 1
loop:
    add r1, r1, r1
    beq r1, r1, loop
    halt
""")
    frequencies = program_frequencies(graph)
    assert frequencies.block_freq[1] == pytest.approx(
        1.0 / (1.0 - MAX_CYCLIC_PROBABILITY))


# -- irreducible regions -----------------------------------------------------

def test_irreducible_cycle_has_no_back_edge():
    program, cfg, graph = flow(IRREDUCIBLE)
    root = graph.index_of(cfg.block_of(program.entry).start)
    nest = find_loops(graph, root)
    assert nest.back_edges == frozenset()
    assert nest.loops == []


def test_irreducible_region_still_gets_total_finite_frequencies():
    program, cfg, graph = flow(IRREDUCIBLE)
    frequencies = program_frequencies(graph)
    leaders = {block.start for block in cfg.blocks}
    assert set(frequencies.block_freq) == leaders
    for leader, value in frequencies.block_freq.items():
        assert math.isfinite(value), leader
        assert 0.0 <= value <= FREQUENCY_CLAMP
    # The entry block runs exactly once.
    assert frequencies.block_freq[0] == pytest.approx(1.0)
    # Edge frequencies stay consistent with their probabilities.
    for edge, value in frequencies.edge_freq.items():
        assert math.isfinite(value)
        assert value >= 0.0


# -- recursion ---------------------------------------------------------------

def test_recursive_call_cycle_terminates_and_stays_clamped():
    program, cfg, graph = flow("""
func f:
    call f
    ret
func main:
    call f
    halt
""")
    frequencies = program_frequencies(graph)
    for value in frequencies.function_freq.values():
        assert math.isfinite(value)
        assert 0.0 <= value <= FREQUENCY_CLAMP
    # The entry function runs exactly once; the recursive callee is
    # called at least as often as its single external call site.
    entry_freq = frequencies.function_freq[program.entry]
    assert entry_freq == pytest.approx(1.0)
    callee = min(address for address in frequencies.function_freq
                 if address != program.entry)
    assert frequencies.function_freq[callee] >= 1.0


# -- fuzzed Minic through the real compiler ----------------------------------

@settings(max_examples=25, deadline=None)
@given(programs())
def test_frequencies_and_profiles_are_total_on_generated_programs(source):
    program = compile_source(source, "fuzz")
    cfg = ControlFlowGraph.from_program(program)
    graph = FlowGraph(cfg)
    frequencies = program_frequencies(graph)
    for value in frequencies.block_freq.values():
        assert math.isfinite(value)
        assert 0.0 <= value <= FREQUENCY_CLAMP

    profile = estimate_profile(program)
    counts = profile.block_counts
    for leader, count in counts.items():
        assert isinstance(count, int)
        assert count >= 1  # reachable blocks never quantise to zero
    for site, execs in profile.branch_execs.items():
        taken = profile.branch_taken[site]
        assert isinstance(execs, int) and isinstance(taken, int)
        assert 0 <= taken <= execs
        leader = cfg.block_of(site).start
        assert execs == counts.get(leader, 0)
    profile.check(program)
