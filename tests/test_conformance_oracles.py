"""The reference oracles, tested directly against the paper's prose.

These never touch the production predictors: each assertion restates a
sentence of Section 2.2/2.3, so a bug here and an identical bug in
production cannot cancel out silently.
"""

from repro.conformance.oracles import (
    OracleCBTB,
    OracleCycleInterpreter,
    OracleFS,
    OracleSBTB,
    oracle_for,
)
from repro.pipeline.config import PipelineConfig
from repro.vm.tracing import BranchClass, BranchTrace

COND = BranchClass.CONDITIONAL


class _Never:
    """A predictor that covers nothing (forces worst-case squash)."""

    def predict(self, site, branch_class):
        from repro.predictors.base import Prediction

        return Prediction(False)

    def update(self, *args):
        pass


def test_sbtb_remembers_taken_forgets_not_taken():
    oracle = OracleSBTB(entries=4)
    assert oracle.predict(1, COND).taken is False      # unseen: not taken
    oracle.update(1, COND, True, 30)
    hit = oracle.predict(1, COND)
    assert hit.taken is True and hit.target == 30      # buffered: taken
    oracle.update(1, COND, False, 30)
    assert oracle.predict(1, COND).taken is False      # deleted on fall-through
    assert oracle.state() == ()


def test_sbtb_evicts_least_recently_used():
    oracle = OracleSBTB(entries=2)
    oracle.update(1, COND, True, 10)
    oracle.update(2, COND, True, 20)
    oracle.predict(1, COND)                            # 1 becomes MRU
    oracle.update(3, COND, True, 30)                   # evicts 2
    assert [key for key, _ in oracle.state()] == [1, 3]


def test_cbtb_counter_lifecycle():
    oracle = OracleCBTB(entries=4, counter_bits=2, threshold=2)
    oracle.update(1, COND, False, 9)                   # new entry at T-1
    assert oracle.state() == ((1, (1, 9)),)
    assert oracle.predict(1, COND).taken is False
    oracle.update(1, COND, True, 9)                    # back up to T
    assert oracle.predict(1, COND).taken is True
    for _ in range(5):
        oracle.update(1, COND, True, 9)
    assert oracle.state()[0][1][0] == 3                # saturates at 2^n - 1
    for _ in range(5):
        oracle.update(1, COND, False, 9)
    assert oracle.state()[0][1][0] == 0                # saturates at 0
    # Entries persist across not-taken runs (unlike the SBTB).
    assert oracle.predict(1, COND).hit is True


def test_cbtb_remembers_not_taken_branches_too():
    sbtb = OracleSBTB(entries=4)
    cbtb = OracleCBTB(entries=4)
    for oracle in (sbtb, cbtb):
        oracle.update(5, COND, False, 7)
    assert sbtb.predict(5, COND).hit is False
    assert cbtb.predict(5, COND).hit is True


def test_fs_follows_likely_bits_and_class_rules():
    oracle = OracleFS({10: True, 11: False})
    assert oracle.predict(10, COND).taken is True
    assert oracle.predict(11, COND).taken is False
    assert oracle.predict(99, COND).taken is False     # unknown site
    assert oracle.predict(
        50, BranchClass.UNCONDITIONAL_KNOWN).taken is True
    assert oracle.predict(
        51, BranchClass.UNCONDITIONAL_UNKNOWN).taken is False
    oracle.flush()                                     # robust to switches
    assert oracle.predict(10, COND).taken is True


def test_cycle_interpreter_charges_the_prose_penalties():
    config = PipelineConfig(k=2, l=1, m=3)
    records = [
        (1, COND, True, 9, 4),                          # mispredicted: k+l+m
        (2, BranchClass.UNCONDITIONAL_UNKNOWN, True, 9, 0),  # k+l
        (3, BranchClass.RETURN, True, 9, 2),            # covered by the RAS
    ]
    trace = BranchTrace.from_records(records)
    stats = OracleCycleInterpreter(config, _Never()).run(trace)
    assert stats.fill_cycles == config.depth - 1
    assert stats.instructions == trace.total_instructions
    assert stats.mispredictions == 2
    assert stats.squashed_by_class == {
        COND: config.k + config.l + config.m,
        BranchClass.UNCONDITIONAL_UNKNOWN: config.k + config.l,
    }
    assert stats.cycles == stats.fill_cycles + stats.instructions \
        + stats.squashed_cycles


def test_cycle_interpreter_counts_trace_tail_instructions():
    trace = BranchTrace.from_records([(1, COND, True, 9, 1)])
    trace.total_instructions += 5                       # non-branch tail
    stats = OracleCycleInterpreter(PipelineConfig(1, 1, 1),
                                   _Never()).run(trace)
    assert stats.instructions == trace.total_instructions


def test_oracle_factory():
    assert isinstance(oracle_for("SBTB"), OracleSBTB)
    assert isinstance(oracle_for("CBTB", counter_bits=3, threshold=4),
                      OracleCBTB)
    assert isinstance(oracle_for("FS", likely_sites={1: True}), OracleFS)
    import pytest

    with pytest.raises(ValueError):
        oracle_for("gshare")
