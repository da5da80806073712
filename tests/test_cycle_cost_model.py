"""cycle_sim vs the closed-form cost model A + (k + l_bar + m_bar)(1 - A).

ISSUE-3 satellite: on synthetic traces of known accuracy A the cycle
simulator's average branch cost must converge to the paper's equation.
DESIGN.md §6.6 fixes the convention: the equation's flush penalty
covers the mispredicted branch's own issue slot, so the simulator's
cost/branch (which counts the branch's retirement cycle separately)
equals the equation evaluated with l_bar = l and m_bar = m + 1 —
i.e. P = k + l + m + 1.
"""

import pytest

from repro.conformance.oracles import OracleCycleInterpreter
from repro.pipeline import (
    CycleSimulator,
    CycleStats,
    PipelineConfig,
    branch_cost,
)
from repro.predictors import CounterBTB, simulate
from repro.predictors.base import Prediction, Predictor
from repro.vm.tracing import BranchClass, BranchTrace


class ScheduledAccuracy(Predictor):
    """Correct on an exact schedule: accuracy is known by construction.

    Over any multiple of ``period`` records it predicts correctly on
    the first ``hits`` of each period and flips direction on the rest,
    so A = hits / period exactly.
    """

    name = "scheduled"

    def __init__(self, outcomes, hits, period):
        self._outcomes = list(outcomes)
        self._index = 0
        self.hits = hits
        self.period = period

    def predict(self, site, branch_class):
        taken, target = self._outcomes[self._index]
        if self._index % self.period < self.hits:
            return Prediction(taken, target=target)
        return Prediction(not taken, target=target)

    def update(self, site, branch_class, taken, target):
        self._index += 1


def _scheduled_cycles(config, predictor, trace):
    """Cycle stats for a :class:`ScheduledAccuracy` run.

    It has no batch kernel, so :class:`CycleSimulator` rejects it; the
    reference interpreter charges the same cycles record by record.
    """
    stats = OracleCycleInterpreter(config, predictor).run(trace)
    return CycleStats(stats.cycles, stats.instructions, stats.branches,
                      stats.squashed_cycles, stats.mispredictions,
                      stats.fill_cycles, stats.squashed_by_class)


def _conditional_trace(n_records, period=10):
    records = [(7, BranchClass.CONDITIONAL, index % 3 == 0,
                40 + index % 2, 2)
               for index in range(n_records)]
    return records, BranchTrace.from_records(records)


@pytest.mark.parametrize("config", [
    PipelineConfig(1, 1, 1),
    PipelineConfig(2, 4, 4),
    PipelineConfig(0, 2, 3),
])
@pytest.mark.parametrize("hits,period", [(8, 10), (5, 10), (10, 10),
                                         (19, 20)])
def test_simulated_cost_equals_closed_form_for_known_accuracy(
        config, hits, period):
    n_records = 40 * period
    records, trace = _conditional_trace(n_records, period)
    outcomes = [(taken, target)
                for _, _, taken, target, _ in records]
    predictor = ScheduledAccuracy(outcomes, hits, period)
    stats = _scheduled_cycles(config, predictor, trace)

    accuracy = hits / period
    # The DESIGN.md §6.6 convention: P = k + l + m + 1 covers the
    # mispredicted branch's own issue slot.
    expected = branch_cost(accuracy, k=config.k, l_bar=config.l,
                           m_bar=config.m + 1)
    assert stats.cost_per_branch == pytest.approx(expected, abs=1e-12)
    # Spelled out: the simulator measures 1 + (k+l+m)(1-A), the paper
    # writes A + P(1-A); they are the same number.
    spelled = accuracy + (config.k + config.l + config.m + 1) \
        * (1.0 - accuracy)
    assert stats.cost_per_branch == pytest.approx(spelled, abs=1e-12)


def test_simulated_cost_converges_to_formula_with_measured_accuracy():
    """With a real predictor (CBTB) the identity holds at any length:
    feeding the *measured* A back into the equation reproduces the
    simulated cost exactly on all-conditional traces, and the measured
    A itself stabilises as the trace grows."""
    config = PipelineConfig(1, 1, 1)
    accuracies = []
    for n_records in (100, 1000, 5000):
        records, trace = _conditional_trace(n_records)
        stats = simulate(CounterBTB(entries=8), trace)
        cycles = CycleSimulator(config, CounterBTB(entries=8)).run(trace)
        expected = branch_cost(stats.accuracy, k=config.k,
                               l_bar=config.l, m_bar=config.m + 1)
        assert cycles.cost_per_branch == pytest.approx(expected,
                                                       abs=1e-12)
        accuracies.append(stats.accuracy)
    # The periodic trace settles: successive measurements approach the
    # steady-state accuracy of the pattern.
    assert abs(accuracies[2] - accuracies[1]) \
        <= abs(accuracies[1] - accuracies[0]) + 1e-9


def test_mixed_class_trace_uses_per_class_penalties():
    """With unconditional branches in the mix the single-A equation
    splits per class: conditionals pay k+l+m, unconditionals k+l.  The
    cost identity still holds when evaluated class by class."""
    config = PipelineConfig(2, 1, 1)
    records = []
    for index in range(600):
        if index % 3 == 2:
            records.append((9, BranchClass.UNCONDITIONAL_UNKNOWN, True,
                            100 + index % 4, 1))
        else:
            records.append((4, BranchClass.CONDITIONAL, index % 4 != 0,
                            55, 1))
    trace = BranchTrace.from_records(records)
    stats = simulate(CounterBTB(entries=8), trace)
    cycles = CycleSimulator(config, CounterBTB(entries=8)).run(trace)

    cond_total = stats.by_class_total[BranchClass.CONDITIONAL]
    cond_wrong = cond_total \
        - stats.by_class_correct.get(BranchClass.CONDITIONAL, 0)
    uncond_wrong = (stats.total - stats.correct) - cond_wrong
    expected_squash = cond_wrong * (config.k + config.l + config.m) \
        + uncond_wrong * (config.k + config.l)
    assert cycles.squashed_cycles == expected_squash
    assert cycles.cost_per_branch == pytest.approx(
        1.0 + expected_squash / stats.total, abs=1e-12)


def test_perfect_and_worst_case_bounds():
    config = PipelineConfig(1, 2, 1)
    records, trace = _conditional_trace(200, period=10)
    outcomes = [(taken, target) for _, _, taken, target, _ in records]

    perfect = _scheduled_cycles(
        config, ScheduledAccuracy(outcomes, 10, 10), trace)
    assert perfect.cost_per_branch == 1.0
    assert perfect.squashed_cycles == 0

    worst = _scheduled_cycles(
        config, ScheduledAccuracy(outcomes, 0, 10), trace)
    assert worst.cost_per_branch == pytest.approx(
        branch_cost(0.0, k=config.k, l_bar=config.l, m_bar=config.m + 1))
