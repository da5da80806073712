"""Narrow trace columns at their dtype limits through the kernels.

A :class:`~repro.vm.tracing.BranchTrace` holds sites, targets and gaps
in the narrowest dtype of their range, and the kernels read those
columns as they are.  Every place where arithmetic could leave the
narrow range widens to int64 first: the flush-epoch cumsum of gaps,
the instruction total, :meth:`EncodedTrace.qualify`'s epoch keys,
:meth:`EncodedTrace.set_ids`, the eviction screen's set count and the
direction tables' masks.  Each case here runs columns at the edge of
their dtype and compares the answer with the same trace widened to
int64, and the simulations with the scalar reference loop too.  The
two fallback counters (``kernels.sort_wide`` and
``kernels.evict_replayed_rows``) are checked here as well.
"""

import numpy as np
import pytest

from repro.kernels import EncodedTrace, evict, simulate_vector
from repro.kernels.aggregate import assemble_stats
from repro.kernels.encode import flush_epochs
from repro.predictors import (
    Bimodal,
    CounterBTB,
    GShare,
    SimpleBTB,
    Tournament,
    simulate,
    simulate_scalar,
)
from repro.telemetry.core import TELEMETRY
from repro.telemetry.sinks import InMemoryAggregator
from repro.vm.tracing import BranchClass, BranchTrace

INT8 = np.iinfo(np.int8)


def _widened(trace):
    """``trace``'s encoding with sites, targets and gaps in int64."""
    return EncodedTrace(trace.sites.astype(np.int64), trace.classes,
                        trace.takens, trace.targets.astype(np.int64),
                        trace.gaps.astype(np.int64))


def _int8_trace(seed=3, n=900):
    """A trace whose sites, targets and gaps all span the int8 range:
    sites and targets from -128 to 127, gaps up to 127 (summing far
    past 127), conditionals most common."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate(([INT8.min, INT8.max, -1, 0],
                           rng.integers(INT8.min, INT8.max, size=60)))
    sites = rng.choice(pool, size=n)
    classes = rng.choice(4, size=n, p=[0.7, 0.15, 0.05, 0.1])
    takens = (rng.random(n) < 0.6) | (classes != BranchClass.CONDITIONAL)
    targets = rng.choice([INT8.min, INT8.max, 5, -7], size=n)
    gaps = rng.integers(0, INT8.max + 1, size=n)
    trace = BranchTrace(sites, classes, takens, targets, gaps)
    for column in ("sites", "targets", "gaps"):
        assert getattr(trace, column).dtype == np.int8
    return trace


def _assert_same_stats(predictor_factory, trace, **options):
    """The narrow trace, its int64 widening and the scalar loop give
    one PredictionStats."""
    narrow = simulate_vector(predictor_factory(), trace, **options)
    wide = assemble_stats(predictor_factory(), _widened(trace),
                          flush_interval=options.get("flush_interval"))
    assert narrow == wide
    assert narrow == simulate_scalar(predictor_factory(), trace, **options)


# -- the trace layer ----------------------------------------------------------


def test_int8_gaps_sum_past_their_dtype():
    """Gaps near 127 overflow int8 when summed: the default instruction
    total and the flush epochs widen first."""
    gaps = np.full(300, INT8.max, dtype=np.int8)
    gaps[::7] = 0
    trace = BranchTrace(np.zeros(300), np.zeros(300), np.ones(300),
                        np.zeros(300), gaps)
    assert trace.gaps.dtype == np.int8
    assert trace.total_instructions == sum(gaps.tolist()) + 300
    for interval in (1, 100, 128, 1000, 10_000):
        assert np.array_equal(flush_epochs(trace.gaps, interval),
                              flush_epochs(gaps.astype(np.int64), interval))
    assert int(flush_epochs(trace.gaps, 1000)[-1]) > 0


def test_concatenate_keeps_the_narrowest_dtype():
    """Merging runs narrows once: an int8 and an int16 run merge into
    int16, two int8 runs stay int8."""
    small = BranchTrace([1, 2], [0, 0], [True, False], [3, 4], [0, 1])
    large = BranchTrace([300, 2], [0, 0], [True, False], [3, 4], [0, 1])
    assert BranchTrace.concatenate([small, small]).sites.dtype == np.int8
    merged = BranchTrace.concatenate([small, large])
    assert merged.sites.dtype == np.int16
    assert merged.targets.dtype == np.int8
    assert merged.sites.tolist() == [1, 2, 300, 2]


# -- the encoding ------------------------------------------------------------


def test_qualify_int8_keys_across_epochs():
    """Keys spanning [-128, 127] stay distinct per flush epoch, exactly
    as their int64 widening does (``keys - low`` would wrap in int8)."""
    keys = np.tile(np.arange(INT8.min, INT8.max + 1, dtype=np.int8), 4)
    epochs = np.repeat(np.arange(4, dtype=np.int64), 256)
    enc = EncodedTrace(keys, None, None, None, None, epochs)
    qualified = enc.qualify(keys)
    assert np.array_equal(qualified, enc.qualify(keys.astype(np.int64)))
    assert np.unique(qualified).shape[0] == keys.shape[0]
    rows = np.flatnonzero(keys % 3 == 0)
    assert np.array_equal(enc.qualify(keys[rows], rows),
                          enc.qualify(keys[rows].astype(np.int64), rows))


@pytest.mark.parametrize("n_sets", [128, 256, 512])
@pytest.mark.parametrize("flushed", [False, True])
def test_set_ids_over_int8_sites(n_sets, flushed):
    """A set count the sites' dtype cannot hold still maps every site
    to its int64 set, in the encoding and in the eviction screen."""
    trace = _int8_trace()
    narrow, wide = EncodedTrace.of(trace), _widened(trace)
    if flushed:
        narrow, wide = narrow.flushed(500), wide.flushed(500)
    assert np.array_equal(narrow.set_ids(n_sets), wide.set_ids(n_sets))
    distinct = np.unique(trace.sites)
    for ways in (1, 2, 64):
        assert evict.cannot_overflow(distinct, n_sets, ways) == \
            evict.cannot_overflow(distinct.astype(np.int64), n_sets, ways)


# -- the kernels -----------------------------------------------------------


@pytest.mark.parametrize("factory", [
    Bimodal,
    GShare,
    Tournament,
    lambda: Tournament(Bimodal(entries=16, associativity=2),
                       GShare(history_bits=4, entries=16)),
    lambda: Bimodal(entries=8),
], ids=["bimodal", "gshare", "tournament", "tournament-small-store",
        "bimodal-small-store"])
@pytest.mark.parametrize("flush_interval", [None, 700])
def test_direction_tables_over_int8_sites(factory, flush_interval):
    """4096-entry counter and chooser tables over int8 sites, with
    and without flushes, and with target stores small enough to evict."""
    _assert_same_stats(factory, _int8_trace(),
                       flush_interval=flush_interval)


@pytest.mark.parametrize("factory", [
    SimpleBTB,
    lambda: SimpleBTB(entries=16, associativity=4),
    CounterBTB,
    lambda: CounterBTB(entries=8),
], ids=["sbtb", "sbtb-16x4", "cbtb", "cbtb-8"])
@pytest.mark.parametrize("flush_interval", [None, 700])
def test_btbs_over_int8_sites(factory, flush_interval):
    _assert_same_stats(factory, _int8_trace(), flush_interval=flush_interval)


def _int32_trace(n=600):
    """A trace whose sites lie at 65536 and above (an int32 column)."""
    rng = np.random.default_rng(11)
    sites = (1 << 16) + 4 * rng.integers(0, 40, size=n)
    classes = np.where(rng.random(n) < 0.8, BranchClass.CONDITIONAL,
                       BranchClass.UNCONDITIONAL_KNOWN)
    takens = rng.random(n) < 0.7
    targets = sites + rng.integers(-3, 4, size=n)
    trace = BranchTrace(sites, classes, takens, targets,
                        rng.integers(0, 5, size=n))
    assert trace.sites.dtype == trace.targets.dtype == np.int32
    return trace


@pytest.mark.parametrize("factory", [
    SimpleBTB,
    lambda: SimpleBTB(entries=16, associativity=2),
    CounterBTB,
    lambda: CounterBTB(entries=16, associativity=4),
], ids=["sbtb", "sbtb-16x2", "cbtb", "cbtb-16x4"])
@pytest.mark.parametrize("flush_interval", [None, 300])
def test_btbs_over_int32_sites(factory, flush_interval):
    _assert_same_stats(factory, _int32_trace(),
                       flush_interval=flush_interval)


# -- the fallback counters ------------------------------------------------


@pytest.fixture
def counters():
    TELEMETRY.enable(InMemoryAggregator())
    try:
        yield TELEMETRY.counter_value
    finally:
        TELEMETRY.disable().reset()


def test_forced_overflow_counts_replayed_rows(counters):
    """Twenty taken sites round-robin through a 4-entry SBTB."""
    sites = np.tile(np.arange(0, 80, 4), 5)
    trace = BranchTrace(sites, np.full(100, BranchClass.UNCONDITIONAL_KNOWN),
                        np.ones(100), sites + 1, np.zeros(100))
    simulate(SimpleBTB(entries=4), trace)
    assert counters("kernels.evict_replayed_rows") > 0
    assert counters("kernels.sort_wide") == 0


def test_sites_past_the_uint16_sort_count_wide_sorts(counters):
    simulate(SimpleBTB(), _int32_trace())
    assert counters("kernels.sort_wide") > 0
    assert counters("kernels.evict_replayed_rows") == 0
