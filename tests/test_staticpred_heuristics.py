"""Ball-Larus heuristics: votes, combination, and totality."""

import pytest

from repro.analysis.staticpred import (
    HEURISTIC_CONFIDENCE,
    combine_votes,
    find_loops,
    predict_branches,
)
from repro.analysis.dataflow import FlowGraph
from repro.cfg import ControlFlowGraph
from repro.isa import assemble


def predictions(source):
    program = assemble(source)
    return program, predict_branches(FlowGraph.from_program(program))


def votes_of(estimate):
    return dict(estimate.votes)


# -- individual heuristics ---------------------------------------------------

LOOP_SOURCE = """
func main:
    li r1, 0
    li r2, 10
loop:
    add r1, r1, r2
    bgt r2, r1, loop
    halt
"""


def test_loop_heuristic_predicts_the_back_edge_taken():
    _, estimates = predictions(LOOP_SOURCE)
    estimate = estimates[3]
    assert votes_of(estimate)["loop"] is True
    assert estimate.predicts_taken
    assert estimate.taken_probability == pytest.approx(
        HEURISTIC_CONFIDENCE["loop"])


def test_loop_exit_heuristic_votes_to_stay_in_the_loop():
    program, estimates = predictions("""
func main:
    li r1, 0
    li r2, 10
loop:
    add r1, r1, r2
    bgt r1, r2, out
    add r1, r1, r2
    jump loop
out:
    halt
""")
    # The branch at 3 exits the loop when taken: vote not-taken.
    estimate = estimates[3]
    assert votes_of(estimate)["loop-exit"] is False
    assert not estimate.predicts_taken


def test_opcode_heuristic_on_equality():
    # Runtime operands (getc), so the degenerate rule cannot claim
    # the branch first.
    _, estimates = predictions("""
func main:
    getc r1, 0
    getc r2, 0
    beq r1, r2, eq
    puti r1
eq:
    halt
""")
    estimate = estimates[2]
    assert votes_of(estimate)["opcode"] is False  # equality rarely holds
    assert not estimate.predicts_taken

    _, estimates = predictions("""
func main:
    getc r1, 0
    getc r2, 0
    bne r1, r2, ne
    puti r1
ne:
    halt
""")
    assert votes_of(estimates[2])["opcode"] is True


def test_opcode_heuristic_on_zero_comparison():
    # r1 < 0 with a block-local constant zero: rarely true.
    _, estimates = predictions("""
func main:
    getc r1, 0
    li r2, 0
    blt r1, r2, neg
    puti r1
neg:
    halt
""")
    assert votes_of(estimates[2])["opcode"] is False
    # Mirrored: 0 < r1 means r1 > 0, which usually holds.
    _, estimates = predictions("""
func main:
    getc r1, 0
    li r2, 0
    blt r2, r1, pos
    puti r1
pos:
    halt
""")
    assert votes_of(estimates[2])["opcode"] is True


def test_degenerate_same_register_compare_is_certain():
    _, estimates = predictions("""
func main:
    li r1, 1
    beq r1, r1, out
    puti r1
out:
    halt
""")
    estimate = estimates[1]
    assert estimate.taken_probability == 1.0
    assert votes_of(estimate) == {"degenerate": True}


def test_degenerate_constant_compare_not_taken():
    _, estimates = predictions("""
func main:
    li r1, 1
    li r2, 2
    bgt r1, r2, out
    puti r1
out:
    halt
""")
    assert estimates[2].taken_probability == 0.0


def test_call_heuristic_votes_away_from_the_calling_block():
    _, estimates = predictions("""
func helper:
    ret
func main:
    getc r1, 0
    getc r2, 0
    bgt r1, r2, quiet
    call helper
    halt
quiet:
    puti r1
    halt
""")
    # Fall-through block contains the CALL: vote taken (the other side).
    assert votes_of(estimates[3])["call"] is True


def test_store_heuristic_votes_away_from_the_storing_block():
    _, estimates = predictions("""
func main:
    getc r1, 0
    getc r2, 0
    bgt r1, r2, quiet
    store r1, r2, 0
    halt
quiet:
    puti r1
    halt
""")
    assert votes_of(estimates[2])["store"] is True


# -- Dempster-Shafer combination ---------------------------------------------

def test_single_vote_reproduces_its_confidence():
    for name, confidence in HEURISTIC_CONFIDENCE.items():
        assert combine_votes([(name, True)]) == pytest.approx(confidence)
        assert combine_votes([(name, False)]) == pytest.approx(
            1.0 - confidence)


def test_agreeing_votes_strengthen_the_estimate():
    alone = combine_votes([("loop", True)])
    both = combine_votes([("loop", True), ("opcode", True)])
    assert both > alone
    assert both < 1.0


def test_opposing_votes_weaken_the_estimate():
    alone = combine_votes([("loop", True)])
    opposed = combine_votes([("loop", True), ("opcode", False)])
    assert opposed < alone
    # The stronger vote (0.88 vs 0.84) still wins the direction.
    assert opposed > 0.5


def test_combination_is_order_independent():
    votes = [("loop", True), ("call", False), ("store", True)]
    assert combine_votes(votes) == pytest.approx(
        combine_votes(list(reversed(votes))))


def test_no_votes_means_even_odds():
    assert combine_votes([]) == 0.5


# -- totality ----------------------------------------------------------------

def test_every_conditional_gets_an_estimate_even_unreachable():
    program, estimates = predictions("""
func main:
    jump end
    li r1, 1
    bgt r1, r1, end
    puti r1
end:
    halt
""")
    conditionals = {address
                    for address, instr in enumerate(program.instructions)
                    if instr.is_conditional}
    assert set(estimates) == conditionals
    # The unreachable branch carries the no-evidence estimate.
    assert estimates[2].taken_probability == 0.5
    assert estimates[2].votes == ()


def test_estimates_anchor_to_their_blocks():
    program, estimates = predictions(LOOP_SOURCE)
    cfg = ControlFlowGraph.from_program(program)
    for site, estimate in estimates.items():
        assert estimate.site == site
        assert cfg.block_of(site).start == estimate.block
        assert 0.0 <= estimate.taken_probability <= 1.0


def test_self_loop_is_an_ordinary_back_edge():
    program = assemble(LOOP_SOURCE)
    cfg = ControlFlowGraph.from_program(program)
    graph = FlowGraph(cfg)
    root = graph.index_of(cfg.block_of(program.entry).start)
    nest = find_loops(graph, root)
    loop_index = graph.index_of(2)
    assert (loop_index, loop_index) in nest.back_edges
    inner = nest.innermost(loop_index)
    assert inner is not None
    assert inner.header == loop_index
    assert inner.body == {loop_index}
