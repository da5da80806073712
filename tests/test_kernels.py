"""Unit tests for the vectorized kernel package's building blocks.

The differential battery (test_kernels_equivalence.py) establishes the
end-to-end bit-identity contract; these tests pin the pieces it is
built from: the segmented scan primitives against straightforward
dict-based references, the flush-epoch closed form against the
reference loop's counting, path resolution (one rule: a kernel exists),
run-to-run independence of a reused predictor, trace-encoding
memoization, and the stats plumbing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.predictors
from repro.characterize.roster import _roster
from repro.conformance.fuzz import TraceFuzzer
from repro.isa import assemble
from repro.kernels import (
    EncodedTrace,
    kernel_for,
    resolve_engine,
    simulate_vector,
    supports,
)
from repro.kernels import encode, evict, scan
from repro.kernels.encode import flush_epochs
from repro.pipeline import CycleSimulator, PipelineConfig
from repro.pipeline.cycle_sim import CycleStats
from repro.predictors import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTakenForwardNotTaken,
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    Predictor,
    SimpleBTB,
    Tournament,
    simulate,
    simulate_scalar,
    site_report,
)
from repro.vm.tracing import BranchClass, BranchTrace


def _random_keys(rng, n, n_groups):
    return rng.integers(0, n_groups, size=n, dtype=np.int64)


# -- scan primitives vs dict-based references ----------------------------


def test_view_previous_row_matches_reference():
    """Within a site view's segment the previous row is the site's
    previous kept record, and a segment's first row has none."""
    rng = np.random.default_rng(7)
    for n, n_groups in ((0, 1), (1, 1), (50, 3), (300, 17)):
        keys = _random_keys(rng, n, n_groups)
        dropped = rng.random(n) < 0.2
        encoded = EncodedTrace(keys, np.zeros(n, dtype=np.int8),
                               np.ones(n, dtype=bool), keys, None)
        for rule, drop in (("all", None),
                           ("some", lambda enc, mask=dropped: mask)):
            view = encoded.site_view(rule, drop)
            previous = np.full(len(view), -1)
            previous[1:] = view.order[:-1]
            previous[view.starts] = -1
            last, expected = {}, {}
            for index, key in enumerate(keys.tolist()):
                if drop is None or not dropped[index]:
                    expected[index] = last.get(key, -1)
                    last[key] = index
            assert dict(zip(view.order.tolist(), previous.tolist())) \
                == expected


def test_sorted_last_marked_matches_reference():
    """Random segmentations, empty and single-row ones included: each
    row gets its segment's latest earlier marked row, or -1."""
    rng = np.random.default_rng(11)
    for n, start_rate in ((0, 0.5), (1, 0.5), (2, 0.0), (80, 0.1),
                          (300, 0.02), (300, 0.9)):
        starts = rng.random(n) < start_rate
        starts[:1] = True
        marked = rng.random(n) < 0.4
        got = scan.sorted_last_marked(starts, marked)
        assert got.dtype == np.int64 and got.shape == (n,)
        latest = -1
        for row in range(n):
            if starts[row]:
                latest = -1
            assert got[row] == latest, (n, row)
            if marked[row]:
                latest = row


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


def _reference_states(starts, deltas, lows, highs, init):
    """The pre-row state of each sorted row, one row at a time."""
    states, state = [], init
    for start, delta, low, high in zip(starts.tolist(), deltas.tolist(),
                                       lows.tolist(), highs.tolist()):
        if start:
            state = init
        states.append(state)
        state = min(max(state + delta, low), high)
    return states


def test_sorted_exclusive_states_runs_match_reference():
    """The run compression at every length, short inputs (doubling
    scan) and long ones (blocked scan): runs of every kind of clamped
    add (steps of 0, +-1, +-3, allocations), runs that span a group
    start, and an initial state outside the first clamp."""
    rng = np.random.default_rng(23)
    kinds = [(1, 0, 3), (-1, 0, 3), (0, 1, 2), (3, -2, 9), (-3, -2, 9),
             (0, 2, 2), (1, 0, 7)]
    sizes = [0, 1, 2, 160, 1000] + [
        scan._BLOCKED_MIN + int(rng.integers(0, 5000)) for _ in range(4)]
    for trial, n in enumerate(sizes):
        lengths = rng.geometric(0.05 if trial % 2 else 0.4, size=n)
        picks = np.repeat(rng.integers(0, len(kinds), size=n),
                          lengths)[:n]
        deltas, lows, highs = (np.array([kinds[pick][column]
                                         for pick in picks.tolist()],
                                        dtype=np.int32)
                               for column in range(3))
        starts = rng.random(n) < (0.002 if n > 1000 else 0.05)
        starts[:1] = True
        init = int(rng.integers(-4, 12))
        got = scan.sorted_exclusive_states(starts, deltas, lows, highs,
                                           init)
        assert got.dtype == np.int32
        assert got.tolist() == _reference_states(starts, deltas, lows,
                                                 highs, init), trial


def test_exclusive_states_long_interleaved_groups():
    """The original-order entry point on a long trace: per-group phases
    of up and down steps give runs in the sorted domain only."""
    rng = np.random.default_rng(29)
    n = 3 * scan._BLOCKED_MIN
    keys = _random_keys(rng, n, 5)
    phase = (np.arange(n) // 97 + keys) % 2
    deltas = np.where(phase == 0, 1, -1).astype(np.int32)
    lows = np.zeros(n, dtype=np.int32)
    highs = np.full(n, 3, dtype=np.int32)
    got = scan.exclusive_states(scan.Groups(keys), deltas, lows, highs, 1)
    state = {}
    for index, key in enumerate(keys.tolist()):
        assert got[index] == state.get(key, 1), index
        state[key] = min(max(state.get(key, 1) + int(deltas[index]), 0),
                         3)


def _reference_grouping(keys):
    """Groups' three arrays from an int64 merge sort, never narrowed."""
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.ones(keys.shape[0], dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return order, starts, np.cumsum(starts) - 1


_GROUP_KEYS = st.lists(st.one_of(
    st.integers(0, 40), st.sampled_from([65534, 65535, 65536, 65537]),
    st.integers(-70000, 70000)), max_size=120)


@settings(max_examples=80, deadline=None)
@given(_GROUP_KEYS, st.lists(st.integers(0, 6), max_size=120))
def test_groups_narrowed_keys_group_like_int64(keys, epochs):
    """Keys narrowed to uint16 (all in [0, 65536)) and wide keys
    (negative, 65536 and beyond, epoch-qualified) group identically to
    an int64 merge sort."""
    keys = np.array(keys, dtype=np.int64)
    qualified = keys
    if keys.shape[0] and len(epochs) >= keys.shape[0]:
        epoch_column = np.array(epochs[:keys.shape[0]], dtype=np.int64)
        encoded = EncodedTrace(keys, None, None, None, None,
                               np.sort(epoch_column))
        qualified = encoded.qualify(keys)
    for candidate in (keys, keys % 65536, np.abs(keys) % 700,
                      qualified):
        groups = scan.Groups(candidate)
        order, starts, seg_ids = _reference_grouping(candidate)
        assert groups.order.tolist() == order.tolist()
        assert groups.starts.tolist() == starts.tolist()
        assert groups.seg_ids.tolist() == seg_ids.tolist()


def test_groups_narrow_only_in_the_uint16_range(monkeypatch):
    """The radix path is taken exactly for keys in [0, 65536)."""
    seen = []
    real = np.argsort

    def spy(keys, *args, **kwargs):
        seen.append(keys.dtype)
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(scan.np, "argsort", spy)
    for keys, narrowed in (([0, 65535, 3], True), ([0, 65536], False),
                           ([-1, 5], False), ([], False)):
        seen.clear()
        scan.Groups(np.array(keys, dtype=np.int64))
        assert (seen[0] == np.uint16) is narrowed, keys
    # A filter's past-the-end key must fit too.
    for keys, narrowed in (([0, 65534, 3], True), ([0, 65535, 3], False)):
        seen.clear()
        order, _ = scan.sort_segments(np.array(keys, dtype=np.int64),
                                      np.array([False, False, True]))
        assert (seen[0] == np.uint16) is narrowed, keys
        assert order.tolist() == [0, 1]


def test_scan_primitives_empty():
    groups = scan.Groups(np.zeros(0, dtype=np.int64))
    empty = np.zeros(0, dtype=np.int64)
    assert scan.sorted_last_marked(groups.starts, empty.astype(bool)) \
        .shape == (0,)
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
    assert encoded.set_groups(4) is encoded.set_groups(4)
    assert encoded.set_groups(4) is not encoded.set_groups(8)
    assert encoded.site_view("all", None) \
        is encoded.site_view("all", None)
    assert encoded.flushed(3) is encoded.flushed(3)
    view = encoded.site_view("all", None)
    assert view.in_trace_order() is view.in_trace_order()


def test_simulations_share_one_encoding_until_released():
    trace = _small_trace()
    simulate(SimpleBTB(64), trace)
    shared = EncodedTrace.of(trace)
    assert shared._memo        # the first simulation's groupings
    simulate(CounterBTB(16, 4), trace)
    assert EncodedTrace.of(trace) is shared
    EncodedTrace.release(trace)
    EncodedTrace.release(trace)         # releasing twice is harmless
    assert EncodedTrace.of(trace) is not shared


def test_flush_epochs_match_the_reference_count():
    """The closed form counts flushes exactly as simulate_scalar's loop
    does: at most one per record, lagging behind on long gaps."""
    rng = np.random.default_rng(19)
    for trial in range(40):
        n = int(rng.integers(0, 60))
        gaps = rng.integers(0, 12 if trial % 2 else 2, size=n)
        interval = int(rng.integers(1, 20))
        flushes, seen, next_flush, expected = 0, 0, interval, []
        for gap in gaps.tolist():
            seen += gap + 1
            if seen >= next_flush:
                flushes += 1
                next_flush += interval
            expected.append(flushes)
        assert flush_epochs(gaps, interval).tolist() == expected


def test_flushed_encoding_keeps_plain_memo_apart():
    """Epoch-qualified views and groupings live on their own encoding,
    memoized per interval on the plain one and freed with it; the
    plain encoding's views and groupings stay unqualified."""
    trace = _small_trace()
    encoded = EncodedTrace.of(trace)
    plain_view = encoded.site_view("all", None)
    plain_sets = encoded.set_groups(2)
    flushed = encoded.flushed(2)
    assert flushed is encoded.flushed(2)
    assert flushed is not encoded.flushed(3)
    assert flushed.epochs.tolist() == list(range(1, 11))
    assert flushed.site_view("all", None) is not plain_view
    assert encoded.site_view("all", None) is plain_view
    assert encoded.set_groups(2) is plain_sets
    assert encoded.epochs is None
    # Every record is its own epoch: no site or set group spans two.
    assert flushed.site_view("all", None).starts.all()
    assert flushed.set_groups(2).starts.all()
    EncodedTrace.release(trace)
    assert EncodedTrace.of(trace).flushed(2) is not flushed


def _count_view_builds(monkeypatch):
    """The encodings every ``SiteView`` built from now on sorted."""
    built = []
    real = encode.SiteView._build

    def build(view, enc, drop):
        built.append(enc)
        real(view, enc, drop)

    monkeypatch.setattr(encode.SiteView, "_build", build)
    return built


def test_runs_with_one_flush_interval_share_one_view(monkeypatch):
    """The flushed encoding is memoized per interval, so three buffered
    schemes flushed every 1000 instructions sort the trace once."""
    trace = TraceFuzzer(3).trace()
    built = _count_view_builds(monkeypatch)
    for make in (lambda: SimpleBTB(256), lambda: CounterBTB(256),
                 lambda: SimpleBTB(16)):
        assert simulate_vector(make(), trace, flush_interval=1000) \
            == simulate_scalar(make(), trace, flush_interval=1000)
    assert len(built) == 1
    assert built[0].epochs is not None


def test_every_kernel_reads_the_one_view_per_rule(monkeypatch):
    """The direction schemes read the same memoized site view as the
    SBTB, per filter rule, and per-site scoring of a direction scheme
    builds no second view."""
    from repro.kernels import aggregate, direction, tables

    trace = TraceFuzzer(5).trace()
    assert (trace.classes == BranchClass.RETURN).any()
    built = _count_view_builds(monkeypatch)
    seen = []
    for module, name in ((direction, "gshare_kernel"),
                         (direction, "bimodal_kernel"),
                         (direction, "tournament_kernel"),
                         (tables, "sbtb_kernel")):
        def spy(predictor, records, real=getattr(module, name)):
            seen.append(records)
            return real(predictor, records)
        monkeypatch.setattr(module, name, spy)
    encoded = EncodedTrace.of(trace)
    for run, rule in (({}, "no-returns"),
                      ({"conditional_only": True}, "conditional")):
        seen.clear()
        for make in (GShare, Bimodal, Tournament, SimpleBTB):
            assert simulate_vector(make(), trace, **run) \
                == simulate_scalar(make(), trace, **run)
        view = encoded.site_view(rule, aggregate._DROPS[rule])
        # The tournament's two components read its view too.
        assert len(seen) == 6
        assert all(records is view for records in seen), rule
    assert len(built) == 2
    site_report(GShare(), trace)
    assert len(built) == 2


# -- path resolution -----------------------------------------------------


def _big_trace(n=3000):
    return BranchTrace.from_records(
        (index % 5, BranchClass.CONDITIONAL, index % 3 == 0, 9, 1)
        for index in range(n))


class _KernelLess(SimpleBTB):
    """A subclass: same behaviour, but no kernel of its own."""


def _every_package_predictor():
    """One instance of every predictor type repro.predictors exports:
    the characterize roster, the FS, the static schemes, Tournament."""
    program = assemble("func main:\nloop:\n    bgt r1, r2, loop\n"
                       "    halt\n")
    predictors = [factory() for _, factory in _roster()]
    predictors += [
        ForwardSemanticPredictor(program=program),
        AlwaysTaken(), AlwaysNotTaken(),
        BackwardTakenForwardNotTaken(program),
        Tournament(), Tournament(first=GShare(), second=Bimodal()),
    ]
    exported = {getattr(repro.predictors, name)
                for name in repro.predictors.__all__}
    predictor_types = {cls for cls in exported if isinstance(cls, type)
                       and issubclass(cls, Predictor)
                       and cls is not Predictor}
    assert predictor_types <= {type(p) for p in predictors}
    return predictors


def test_every_package_predictor_runs_on_the_kernels(monkeypatch):
    """One path: every predictor type in repro.predictors resolves to
    the kernels, on a one-record trace and with a flush interval."""
    import repro.predictors.base as base

    def forbidden(*args, **kwargs):
        raise AssertionError("simulate() took the scalar loop")

    monkeypatch.setattr(base, "simulate_scalar", forbidden)
    one = BranchTrace.from_records(
        [(1, BranchClass.CONDITIONAL, True, 0, 3)])
    for predictor in _every_package_predictor():
        assert resolve_engine(predictor, trace=one) == "vector", predictor
        simulate(predictor, one)
        simulate(predictor, _small_trace(), flush_interval=3)


def test_resolve_engine_ignores_trace_length():
    for trace in (BranchTrace(), _small_trace(1), _small_trace(),
                  _big_trace()):
        assert resolve_engine(SimpleBTB(16), trace=trace) == "vector"
        assert resolve_engine(_KernelLess(16), trace=trace) == "scalar"


def test_resolve_engine_scalar_fallbacks():
    trace = _big_trace()
    # Subclasses have no kernel: they may override predict/update.
    assert not supports(_KernelLess(16))
    assert resolve_engine(_KernelLess(16), trace=trace) == "scalar"
    # A tournament needs two distinct Bimodal/GShare components.
    assert supports(Tournament())
    assert not supports(Tournament(first=SimpleBTB(16)))
    shared = GShare()
    assert not supports(Tournament(first=shared, second=shared))
    assert resolve_engine(Tournament(second=_KernelLess()),
                          trace=trace) == "scalar"
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
    big = TraceFuzzer(4, n_records=2080).trace()
    config = PipelineConfig(1, 1, 1)
    for make in (lambda: GShare(4, 6, 16),
                 lambda: Bimodal(table_bits=6, entries=16),
                 lambda: SimpleBTB(entries=16),
                 lambda: CounterBTB(entries=16),
                 lambda: Tournament(Bimodal(6, 16), GShare(4, 6, 16), 4)):
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
    assert kernel_for(_KernelLess(16)) is None
    with pytest.raises(ValueError):
        simulate_vector(_KernelLess(16), _small_trace())
    # The scalar loop still runs it, matching the kernel it inherits.
    assert simulate(_KernelLess(16), _small_trace()) \
        == simulate(SimpleBTB(16), _small_trace())


class _CountingDict(dict):
    """A dict that counts its lookups."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_site_tables_look_up_each_distinct_site_once():
    """The FS and BTFNT kernels evaluate their dicts once per distinct
    site, not once per (flush epoch, site) segment."""
    program = assemble("func main:\nloop:\n    bgt r1, r2, loop\n"
                       "    halt\n")
    n_sites = 12
    trace = BranchTrace.from_records(
        (index % n_sites,
         BranchClass.CONDITIONAL if index % 3 else
         BranchClass.UNCONDITIONAL_KNOWN,
         index % 5 < 3, 200 + index % n_sites, 4)
        for index in range(3000))
    epochs = flush_epochs(trace.gaps, 1_000)
    segments = len(set(zip(epochs.tolist(), trace.sites.tolist())))
    assert segments > 10 * n_sites
    fs = ForwardSemanticPredictor(
        likely_sites={site: site % 2 == 0 for site in range(n_sites)})
    fs._likely = _CountingDict(fs._likely)
    fs._targets = _CountingDict({site: 200 + site
                                 for site in range(0, n_sites, 3)})
    btfnt = BackwardTakenForwardNotTaken(program)
    btfnt._backward = _CountingDict(
        {site: site % 4 == 0 for site in range(n_sites)})
    for predictor, tables in ((fs, (fs._likely, fs._targets)),
                              (btfnt, (btfnt._backward,))):
        stats = simulate_vector(predictor, trace, flush_interval=1_000)
        for table in tables:
            assert 0 < table.lookups <= n_sites, predictor
            table.lookups = 0
        assert stats == simulate_scalar(predictor, trace,
                                        flush_interval=1_000)


def test_vector_engine_never_mutates_predictor():
    predictor = SimpleBTB(entries=16)
    stats = simulate(predictor, _big_trace(), flush_interval=40)
    assert stats.total == 3000
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


def test_screen_boundary_per_set():
    """A 4-set, 2-way buffer: exactly two distinct sites in one set is
    decided without the occupancy scan and stays closed-form; a third
    site in that set goes through the scan to the replay."""
    for make, replay in ((lambda: SimpleBTB(8, 2), "sbtb_evict"),
                         (lambda: CounterBTB(8, 2), "cbtb_evict"),
                         (lambda: GShare(entries=8, associativity=2),
                          "store_evict")):
        for sites, overflows in (([1, 5], False), ([1, 5, 9], True)):
            trace = BranchTrace.from_records(
                [(site, BranchClass.CONDITIONAL, True, 100 + site, 1)
                 for site in sites + [2, 3]] * 4)
            distinct = EncodedTrace.of(trace).site_view(
                "all", None).distinct_sites
            assert evict.cannot_overflow(distinct, 4, 2) \
                is not overflows
            calls = _spy_calls(replay, lambda: simulate_vector(make(),
                                                               trace))
            assert bool(calls["scan"]) is overflows, (replay, sites)
            assert bool(calls["replay"]) is overflows, (replay, sites)
            assert simulate_vector(make(), trace) \
                == simulate_scalar(make(), trace)


def _spy_calls(replay, run):
    """Calls of the occupancy scan and of ``evict.<replay>`` during
    ``run()``."""
    calls = {"scan": [], "replay": []}
    real_scan, real_replay = scan.running_total, getattr(evict, replay)

    def scan_spy(*args):
        calls["scan"].append(True)
        return real_scan(*args)

    def replay_spy(*args):
        calls["replay"].append(True)
        return real_replay(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan, "running_total", scan_spy)
        patch.setattr(evict, replay, replay_spy)
        run()
    return calls


def test_sbtb_more_sites_than_ways_but_never_resident():
    """An SBTB deletes on not-taken, so three sites taken then not
    taken in turn never hold two entries of a 2-entry buffer at once:
    the screen must scan (three distinct sites) but never replay."""
    trace = BranchTrace.from_records(
        [(site, BranchClass.CONDITIONAL, taken, 40 + site, 1)
         for site in (0, 1, 2) for taken in (True, False)] * 5)
    calls = _spy_calls("sbtb_evict",
                       lambda: simulate_vector(SimpleBTB(2), trace))
    assert calls["scan"] and not calls["replay"]
    assert simulate_vector(SimpleBTB(2), trace) \
        == simulate_scalar(SimpleBTB(2), trace)


def test_flush_epochs_keep_negative_sites_apart():
    """Epoch-qualified keys are offset by their minimum: site -1 of one
    epoch must not share a group with site 0 of the next."""
    trace = BranchTrace.from_records(
        [(-1 if index % 2 == 0 else 0, BranchClass.CONDITIONAL, True,
          50, 1) for index in range(12)])
    for make in (lambda: SimpleBTB(16), lambda: CounterBTB(16)):
        assert simulate_vector(make(), trace, flush_interval=3) \
            == simulate_scalar(make(), trace, flush_interval=3)
