"""Unit tests for the vectorized kernel package's building blocks.

The differential battery (test_kernels_equivalence.py) establishes the
end-to-end bit-identity contract; these tests pin the pieces it is
built from: the segmented scan primitives against straightforward
dict-based references, path resolution and every one of its scalar
fallbacks, run-to-run independence of a reused predictor,
trace-encoding memoization, and the stats plumbing.
"""

import numpy as np
import pytest

from repro.conformance.fuzz import TraceFuzzer
from repro.kernels import (
    AUTO_THRESHOLD,
    EncodedTrace,
    kernel_for,
    resolve_engine,
    simulate_vector,
    supports,
)
from repro.kernels import scan
from repro.pipeline import CycleSimulator, PipelineConfig
from repro.pipeline.cycle_sim import CycleStats
from repro.predictors import (
    Bimodal,
    CounterBTB,
    GShare,
    SimpleBTB,
    Tournament,
    simulate,
    simulate_scalar,
)
from repro.vm.tracing import BranchClass, BranchTrace


def _random_keys(rng, n, n_groups):
    return rng.integers(0, n_groups, size=n, dtype=np.int64)


# -- scan primitives vs dict-based references ----------------------------


def test_previous_index_matches_reference():
    rng = np.random.default_rng(7)
    for n, n_groups in ((0, 1), (1, 1), (50, 3), (300, 17)):
        keys = _random_keys(rng, n, n_groups)
        got = scan.previous_index(scan.Groups(keys))
        last = {}
        for index, key in enumerate(keys.tolist()):
            assert got[index] == last.get(key, -1)
            last[key] = index


def test_last_marked_index_matches_reference():
    rng = np.random.default_rng(11)
    for n, n_groups in ((0, 1), (1, 1), (80, 4), (300, 13)):
        keys = _random_keys(rng, n, n_groups)
        marked = rng.random(n) < 0.4
        got = scan.last_marked_index(scan.Groups(keys), marked)
        last_mark = {}
        for index, key in enumerate(keys.tolist()):
            assert got[index] == last_mark.get(key, -1)
            if marked[index]:
                last_mark[key] = index


def test_running_total_matches_reference():
    rng = np.random.default_rng(13)
    keys = _random_keys(rng, 200, 9)
    values = rng.integers(-3, 4, size=200)
    got = scan.running_total(scan.Groups(keys), values)
    totals = {}
    for index, key in enumerate(keys.tolist()):
        totals[key] = totals.get(key, 0) + int(values[index])
        assert got[index] == totals[key]


def test_exclusive_states_matches_reference():
    """Random mixes of saturating steps and allocations, per group.

    Every predictor transition is a clamped add; this drives the
    doubling scan with adversarial mixes and checks the pre-record
    state against a plain dict interpreter.
    """
    rng = np.random.default_rng(17)
    for trial in range(5):
        n = int(rng.integers(1, 400))
        keys = _random_keys(rng, n, int(rng.integers(1, 9)))
        deltas = rng.integers(-2, 3, size=n).astype(np.int32)
        lows = np.zeros(n, dtype=np.int32)
        highs = rng.integers(1, 8, size=n).astype(np.int32)
        # Sprinkle allocations: delta 0, low == high == constant.
        allocate = rng.random(n) < 0.2
        constants = rng.integers(0, 8, size=n).astype(np.int32)
        deltas[allocate] = 0
        lows[allocate] = constants[allocate]
        highs[allocate] = constants[allocate]
        init = int(rng.integers(0, 4))

        got = scan.exclusive_states(scan.Groups(keys), deltas, lows,
                                    highs, init)
        state = {}
        for index, key in enumerate(keys.tolist()):
            assert got[index] == state.get(key, init), \
                "trial %d record %d" % (trial, index)
            after = int(np.clip(state.get(key, init) + deltas[index],
                                lows[index], highs[index]))
            state[key] = after


def test_scan_primitives_empty():
    groups = scan.Groups(np.zeros(0, dtype=np.int64))
    empty = np.zeros(0, dtype=np.int64)
    assert scan.previous_index(groups).shape == (0,)
    assert scan.last_marked_index(groups, empty).shape == (0,)
    assert scan.running_total(groups, empty).shape == (0,)
    assert scan.exclusive_states(groups, empty, empty, empty, 0).shape \
        == (0,)


# -- trace encoding ------------------------------------------------------


def _small_trace(n=10):
    return BranchTrace.from_records(
        (index % 3, BranchClass.CONDITIONAL, index % 2 == 0,
         50 + index % 3, 1) for index in range(n))


def test_encoded_trace_memoized_on_trace():
    trace = _small_trace()
    first = EncodedTrace.of(trace)
    assert EncodedTrace.of(trace) is first


def test_encoded_trace_roundtrip_from_arrays():
    trace = _small_trace()
    rebuilt = BranchTrace.from_arrays(trace.to_arrays())
    encoded = EncodedTrace.of(rebuilt)
    # The encoding wraps the trace's own arrays: nothing is copied.
    for column in ("sites", "classes", "takens", "targets", "gaps"):
        assert getattr(encoded, column) is getattr(rebuilt, column)
    assert np.array_equal(encoded.sites, trace.sites)
    assert np.array_equal(encoded.takens, trace.takens)
    assert encoded.takens.dtype == bool


def test_encoded_trace_memoizes_derived_structures():
    encoded = EncodedTrace.of(_small_trace())
    assert encoded.site_groups() is encoded.site_groups()
    assert encoded.set_groups(4) is encoded.set_groups(4)
    assert encoded.set_groups(4) is not encoded.set_groups(8)
    assert encoded.unique_sites() is encoded.unique_sites()
    mask = encoded.classes == BranchClass.CONDITIONAL
    assert encoded.subset("conditional", mask) \
        is encoded.subset("conditional", mask)


# -- path resolution -----------------------------------------------------


def _big_trace():
    return BranchTrace.from_records(
        (index % 5, BranchClass.CONDITIONAL, index % 3 == 0, 9, 1)
        for index in range(AUTO_THRESHOLD))


def test_resolve_engine_auto_threshold():
    assert resolve_engine(SimpleBTB(16), trace=_small_trace()) \
        == "scalar"
    assert resolve_engine(SimpleBTB(16), trace=_big_trace()) == "vector"


def test_resolve_engine_scalar_fallbacks():
    trace = _big_trace()
    # flush_interval needs a per-record hook.
    assert resolve_engine(SimpleBTB(16), trace=trace,
                          flush_interval=100) == "scalar"
    # No kernel for the tournament meta-predictor.
    assert not supports(Tournament())
    assert resolve_engine(Tournament(), trace=trace) == "scalar"
    # A used predictor still takes the kernels: every run starts from
    # the initial state on either path.
    used = SimpleBTB(16)
    simulate_scalar(used, _small_trace())
    assert resolve_engine(used, trace=trace) == "vector"


def test_pristine_covers_direction_tables():
    """Every scalar run starts pristine: the direction tables' counters
    and history, not only the target store, are reset first."""
    for make in (lambda: GShare(history_bits=4, table_bits=6),
                 lambda: Bimodal(table_bits=6, entries=16),
                 lambda: CounterBTB(entries=16)):
        predictor = make()
        first = simulate_scalar(predictor, _small_trace())
        assert simulate_scalar(predictor, _small_trace()) == first
        assert first == simulate_vector(make(), _small_trace())


def test_reused_predictor_scores_like_a_fresh_one():
    """A run's result does not depend on the object's earlier calls:
    after a short scalar call and a long vector call, a reused
    predictor gives the same PredictionStats and CycleStats as a
    fresh one, on both paths."""
    short = TraceFuzzer(3).trace()
    big = TraceFuzzer(4, n_records=AUTO_THRESHOLD + 32).trace()
    config = PipelineConfig(1, 1, 1)
    for make in (lambda: GShare(4, 6, 16),
                 lambda: Bimodal(table_bits=6, entries=16),
                 lambda: SimpleBTB(entries=16),
                 lambda: CounterBTB(entries=16)):
        reused = make()
        for trace in (short, big, short, big):
            assert simulate(reused, trace) == simulate(make(), trace)
            assert (_cycle_fields(CycleSimulator(config, reused), trace)
                    == _cycle_fields(CycleSimulator(config, make()),
                                     trace))


def _cycle_fields(simulator, trace):
    stats = simulator.run(trace)
    return [getattr(stats, name) for name in CycleStats.__slots__]


def test_simulate_vector_rejects_unsupported():
    assert kernel_for(Tournament()) is None
    with pytest.raises(ValueError):
        simulate_vector(Tournament(), _small_trace())


def test_vector_engine_never_mutates_predictor():
    predictor = SimpleBTB(entries=16)
    stats = simulate(predictor, _big_trace())
    assert stats.total == AUTO_THRESHOLD
    assert predictor.occupancy == 0


# -- stats plumbing ------------------------------------------------------


def test_vector_stats_on_empty_and_returns_only_traces():
    empty = BranchTrace()
    stats = simulate_vector(SimpleBTB(16), empty)
    assert stats.total == 0 and stats.correct == 0

    returns = BranchTrace.from_records(
        [(3, BranchClass.RETURN, True, 7, 1)] * 5)
    stats = simulate_vector(SimpleBTB(16), returns)
    reference = simulate_scalar(SimpleBTB(16), returns)
    assert stats == reference
    assert stats.total == 5 and stats.correct == 5
    assert stats.by_class_total == {BranchClass.RETURN: 5}
    assert stats.buffer_accesses == 0


def test_prediction_stats_equality_and_dict():
    trace = _small_trace()
    scalar = simulate_scalar(SimpleBTB(16), trace)
    vector = simulate_vector(SimpleBTB(16), trace)
    assert scalar == vector
    assert scalar.as_dict() == vector.as_dict()
    assert scalar != object()
    vector.correct += 1
    assert scalar != vector


# -- eviction screen boundary --------------------------------------------


def _capacity_trace(n_sites, repeats=6):
    """Round-robin taken conditionals over ``n_sites`` distinct sites."""
    return BranchTrace.from_records(
        [(site, BranchClass.CONDITIONAL, True, 100 + site, 1)
         for site in range(n_sites)] * repeats,
        total_instructions=3 * n_sites * repeats)


def test_eviction_screen_exact_at_capacity(monkeypatch):
    """occupancy == ways fills the buffer without evicting: the screen
    must keep the closed-form path, and route to the eviction kernel
    only one distinct site later."""
    from repro.kernels import evict

    calls = []
    real = evict.cbtb_evict

    def spy(*args, **kwargs):
        calls.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(evict, "cbtb_evict", spy)

    full = _capacity_trace(n_sites=2)
    predictor = CounterBTB(entries=2)
    assert simulate_vector(predictor, full) \
        == simulate_scalar(CounterBTB(entries=2), full)
    assert not calls, "exactly-full set must stay closed-form"

    over = _capacity_trace(n_sites=3)
    assert simulate_vector(CounterBTB(entries=2), over) \
        == simulate_scalar(CounterBTB(entries=2), over)
    assert calls, "overflowing set must route to the eviction kernel"


def test_eviction_screen_exact_at_capacity_sbtb(monkeypatch):
    from repro.kernels import evict

    calls = []
    real = evict.sbtb_evict

    def spy(*args, **kwargs):
        calls.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(evict, "sbtb_evict", spy)

    full = _capacity_trace(n_sites=4)
    assert simulate_vector(SimpleBTB(entries=4), full) \
        == simulate_scalar(SimpleBTB(entries=4), full)
    assert not calls
    over = _capacity_trace(n_sites=5)
    assert simulate_vector(SimpleBTB(entries=4), over) \
        == simulate_scalar(SimpleBTB(entries=4), over)
    assert calls
