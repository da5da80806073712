"""Tests for the pipeline config, cost model, and cycle simulator."""

import pytest
from hypothesis import given, strategies as st

from repro.conformance.oracles import OracleCycleInterpreter
from repro.lang import compile_source
from repro.pipeline import (
    CycleSimulator,
    PipelineConfig,
    branch_cost,
)
from repro.predictors import (
    AlwaysNotTaken,
    SimpleBTB,
    Tournament,
    simulate,
    simulate_scalar,
)
from repro.vm import run_program


# --- PipelineConfig -------------------------------------------------------


def test_config_defaults():
    config = PipelineConfig(k=1, l=2, m=3)
    assert config.l_bar == 2.0
    assert config.m_bar == 3.0        # f_cond defaults to 1.0
    assert config.flush_penalty == 6.0
    assert config.depth == 1 + 1 + 2 + 3 + 1


def test_config_f_cond_scales_m_bar():
    config = PipelineConfig(k=1, l=1, m=2, f_cond=0.5)
    assert config.m_bar == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(k=-1, l=0, m=0)
    with pytest.raises(ValueError):
        PipelineConfig(k=0, l=1, m=0, l_bar=2.0)
    with pytest.raises(ValueError):
        PipelineConfig(k=0, l=0, m=1, m_bar=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(k=0, l=0, m=0, f_cond=2.0)


def test_config_equality():
    assert PipelineConfig(1, 1, 2) == PipelineConfig(1, 1, 2)
    assert PipelineConfig(1, 1, 2) != PipelineConfig(2, 1, 2)


# --- cost model --------------------------------------------------------------


def test_cost_formula_known_points():
    # The paper's Table 4 arithmetic: A=0.907, flush=3 -> 1.19.
    assert round(branch_cost(0.907, k=2, l_bar=0, m_bar=1), 2) == 1.19
    # Perfect prediction costs exactly one cycle.
    assert branch_cost(1.0, k=5, l_bar=3, m_bar=2) == 1.0
    # Zero accuracy costs the full flush.
    assert branch_cost(0.0, k=1, l_bar=1, m_bar=1) == 3.0


def test_cost_with_config():
    config = PipelineConfig(k=1, l=1, m=1)
    assert branch_cost(0.5, config=config) == 0.5 + 3 * 0.5


def test_cost_argument_validation():
    with pytest.raises(ValueError):
        branch_cost(1.5, k=1, l_bar=0, m_bar=0)
    with pytest.raises(ValueError):
        branch_cost(0.5)
    with pytest.raises(ValueError):
        branch_cost(0.5, k=1, l_bar=0, m_bar=0,
                    config=PipelineConfig(1, 1, 1))


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=8.0))
def test_cost_monotone_in_accuracy(a1, a2, k, lm):
    """Property: higher accuracy never costs more — provided the flush
    penalty is at least one cycle (below that the formula degenerates
    and rewards mispredicting, which no real pipeline exhibits)."""
    low, high = min(a1, a2), max(a1, a2)
    assert branch_cost(high, k=k, l_bar=lm, m_bar=0.0) <= \
        branch_cost(low, k=k, l_bar=lm, m_bar=0.0) + 1e-12


@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=8),
       st.floats(min_value=0.0, max_value=8.0))
def test_cost_bounds(accuracy, k, lm):
    """Property: 1 <= cost <= flush penalty (for flush >= 1)."""
    cost = branch_cost(accuracy, k=k, l_bar=lm, m_bar=0.0)
    flush = k + lm
    assert cost >= min(1.0, flush) - 1e-12
    assert cost <= max(1.0, flush) + 1e-12


# --- cycle simulator ----------------------------------------------------------


def _trace():
    program = compile_source("""
        int main() {
            int i; int t = 0;
            for (i = 0; i < 300; i = i + 1) {
                if (i % 7 == 0) t = t + 2;
                else t = t + 1;
            }
            puti(t);
            return 0;
        }
    """, "t")
    return run_program(program, trace=True).trace


def test_cycle_sim_basics():
    trace = _trace()
    config = PipelineConfig(k=1, l=1, m=1)
    stats = CycleSimulator(config, AlwaysNotTaken()).run(trace)
    assert stats.instructions == trace.total_instructions
    assert stats.cycles > stats.instructions
    assert stats.branches == len(trace)
    assert stats.fill_cycles == config.depth - 1
    assert stats.cost_per_branch > 1.0


def test_cycle_sim_perfect_prediction_is_one_cycle_per_branch():
    trace = _trace()

    class Oracle:
        def predict(self, site, branch_class):
            from repro.predictors.base import Prediction
            record = next_records[0]
            next_records.pop(0)
            return Prediction(bool(record[2]), target=record[3])

        def update(self, *args):
            pass

    next_records = [record for record in trace.records()
                    if record[1] != 3]
    # A perfect predictor has no kernel: the oracle interpreter runs it.
    stats = OracleCycleInterpreter(PipelineConfig(2, 2, 2),
                                   Oracle()).run(trace)
    assert stats.squashed_cycles == 0 and stats.mispredictions == 0
    assert stats.cycles == stats.fill_cycles + stats.instructions


def test_cycle_sim_rejects_predictors_the_kernel_cannot_run():
    """No silent fallback: a predictor with no kernel raises instead of
    running a record loop; a used predictor runs from its initial
    state like a fresh one."""
    trace = _trace()
    config = PipelineConfig(1, 1, 1)
    with pytest.raises(ValueError, match="no cycle kernel"):
        CycleSimulator(config, Tournament(first=SimpleBTB())).run(trace)
    used = SimpleBTB()
    simulate_scalar(used, trace)
    warm = CycleSimulator(config, used).run(trace)
    fresh = CycleSimulator(config, SimpleBTB()).run(trace)
    assert warm.branches == len(trace)
    assert warm.cycles == fresh.cycles
    assert warm.squashed_by_class == fresh.squashed_by_class


def test_cycle_sim_matches_cost_model():
    """The ablation of DESIGN.md: the analytic equation predicts the
    cycle simulator's cost/branch when fed the measured accuracy."""
    trace = _trace()
    config = PipelineConfig(k=1, l=1, m=1)

    predictor = SimpleBTB()
    accuracy = simulate(SimpleBTB(), trace)
    simulated = CycleSimulator(config, predictor).run(trace)

    stats = simulate(SimpleBTB(), trace)
    # Conditional mispredicts pay k+l+m; unconditional pay k+l.  With
    # the trace's class mix the analytic model using the same split
    # must agree exactly.
    from repro.vm.tracing import BranchClass
    cond_total = stats.by_class_total.get(BranchClass.CONDITIONAL, 0)
    cond_wrong = cond_total - stats.by_class_correct.get(
        BranchClass.CONDITIONAL, 0)
    uncond_wrong = (stats.total - stats.correct) - cond_wrong
    expected_squash = cond_wrong * (config.k + config.l + config.m) \
        + uncond_wrong * (config.k + config.l)
    assert simulated.squashed_cycles == expected_squash
    expected_cost = 1.0 + expected_squash / stats.total
    assert abs(simulated.cost_per_branch - expected_cost) < 1e-9
    assert accuracy.total == stats.total


def test_cycle_sim_deeper_pipeline_costs_more():
    trace = _trace()
    shallow = CycleSimulator(PipelineConfig(1, 1, 1), SimpleBTB()).run(trace)
    deep = CycleSimulator(PipelineConfig(2, 4, 4), SimpleBTB()).run(trace)
    assert deep.cycles > shallow.cycles
    assert deep.cost_per_branch > shallow.cost_per_branch


def test_cycle_stats_repr():
    trace = _trace()
    stats = CycleSimulator(PipelineConfig(1, 1, 1), SimpleBTB()).run(trace)
    assert "CycleStats" in repr(stats)
    assert stats.cycles_per_instruction >= 1.0


def test_cycle_stats_zero_instruction_edges():
    """The ratio properties are defined (0.0) on degenerate runs."""
    from repro.pipeline.cycle_sim import CycleStats

    empty = CycleStats(cycles=0, instructions=0, branches=0,
                       squashed_cycles=0, mispredictions=0, fill_cycles=0)
    assert empty.cycles_per_instruction == 0.0
    assert empty.cost_per_branch == 0.0
    assert empty.squashed_by_class == {}
    assert empty.squashed_conditional == 0
    assert empty.squashed_unconditional == 0

    # Fill cycles but no retired instructions: still no division error.
    fill_only = CycleStats(cycles=3, instructions=0, branches=0,
                           squashed_cycles=0, mispredictions=0,
                           fill_cycles=3)
    assert fill_only.cycles_per_instruction == 0.0
    assert fill_only.cost_per_branch == 0.0


def test_cycle_stats_branchless_run():
    """Branches without squash: cost/branch is exactly 1."""
    from repro.pipeline.cycle_sim import CycleStats

    stats = CycleStats(cycles=105, instructions=100, branches=10,
                       squashed_cycles=0, mispredictions=0, fill_cycles=5)
    assert stats.cost_per_branch == 1.0
    assert stats.cycles_per_instruction == 1.05


def test_cycle_sim_squash_attribution_by_class():
    """Per-class squash cycles partition the total squash count."""
    from repro.vm.tracing import BranchClass

    trace = _trace()
    stats = CycleSimulator(PipelineConfig(1, 1, 1),
                           AlwaysNotTaken()).run(trace)
    assert stats.squashed_cycles > 0
    assert sum(stats.squashed_by_class.values()) == stats.squashed_cycles
    assert (stats.squashed_conditional + stats.squashed_unconditional
            == stats.squashed_cycles)
    # Conditional mispredicts resolve in execute: penalty k+l+m each.
    config = PipelineConfig(1, 1, 1)
    cond = stats.squashed_by_class.get(BranchClass.CONDITIONAL, 0)
    assert cond % (config.k + config.l + config.m) == 0
