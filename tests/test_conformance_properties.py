"""Property tests: CBTB counter semantics and LRU determinism.

The ISSUE-3 satellite battery: hypothesis drives the CBTB through
random traces and asserts the paper's counter contract (n-bit range,
threshold T = 2 semantics, LRU survival/eviction order), and the
associative cache's recency policy is pinned so differential replay is
bit-for-bit reproducible across runs.
"""

from hypothesis import given, settings, strategies as st

from repro.conformance.differential import production_state
from repro.conformance.fuzz import TraceFuzzer
from repro.predictors import AssociativeCache, CounterBTB, SimpleBTB
from repro.vm.tracing import BranchClass, BranchTrace

_COND_RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),   # site
        st.booleans(),                            # taken
        st.integers(min_value=0, max_value=99),   # target
    ),
    max_size=200,
)


def _drive(predictor, events):
    """Predict/update the CBTB through (site, taken, target) events."""
    for site, taken, target in events:
        predictor.predict(site, BranchClass.CONDITIONAL)
        predictor.update(site, BranchClass.CONDITIONAL, taken, target)


def _counters(predictor):
    return [entry.counter for _, entry in predictor._cache.items()]


# --- counter range ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_COND_RECORDS, st.integers(min_value=1, max_value=4))
def test_counter_stays_in_n_bit_range(events, counter_bits):
    threshold = min(2, 2 ** counter_bits - 1)
    predictor = CounterBTB(entries=8, counter_bits=counter_bits,
                           threshold=threshold)
    _drive(predictor, events)
    top = 2 ** counter_bits - 1
    counters = _counters(predictor)
    assert len(counters) == predictor.occupancy
    for counter in counters:
        assert 0 <= counter <= top


# --- threshold semantics (T = 2, the paper's configuration) -------------------


@settings(max_examples=60, deadline=None)
@given(_COND_RECORDS)
def test_threshold_2_predicts_taken_iff_counter_at_least_2(events):
    predictor = CounterBTB(entries=8, counter_bits=2, threshold=2)
    for site, taken, target in events:
        entry = predictor._cache.peek(site)
        prediction = predictor.predict(site, BranchClass.CONDITIONAL)
        if entry is None:
            assert prediction.taken is False and prediction.hit is False
        else:
            assert prediction.hit is True
            assert prediction.taken == (entry.counter >= 2)
        predictor.update(site, BranchClass.CONDITIONAL, taken, target)


def test_new_entries_start_at_threshold_or_one_below():
    predictor = CounterBTB(entries=8, counter_bits=2, threshold=2)
    predictor.update(1, BranchClass.CONDITIONAL, True, 9)
    predictor.update(2, BranchClass.CONDITIONAL, False, 9)
    assert predictor._cache.peek(1).counter == 2   # T: first re-sight taken
    assert predictor._cache.peek(2).counter == 1   # T - 1: one miss away
    assert predictor.predict(1, BranchClass.CONDITIONAL).taken is True
    assert predictor.predict(2, BranchClass.CONDITIONAL).taken is False


def test_paper_hysteresis_two_wrongs_to_flip():
    """A saturated 2-bit counter survives one anomalous not-taken."""
    predictor = CounterBTB(entries=8)
    for _ in range(4):
        predictor.update(5, BranchClass.CONDITIONAL, True, 7)
    assert predictor._cache.peek(5).counter == 3
    predictor.update(5, BranchClass.CONDITIONAL, False, 7)
    assert predictor.predict(5, BranchClass.CONDITIONAL).taken is True
    predictor.update(5, BranchClass.CONDITIONAL, False, 7)
    assert predictor.predict(5, BranchClass.CONDITIONAL).taken is False


# --- LRU survival / eviction order --------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_COND_RECORDS)
def test_entries_survive_and_evict_in_lru_order(events):
    """The CBTB's resident set always equals a naive LRU replay.

    The model refreshes on predict and allocates new entries MRU —
    the documented recency policy — so at every step the production
    cache's LRU order must match the model list exactly.
    """
    entries = 4
    predictor = CounterBTB(entries=entries)
    model = []  # site keys, LRU first
    for site, taken, target in events:
        hit = predictor._cache.contains(site)
        predictor.predict(site, BranchClass.CONDITIONAL)
        if hit:
            model.remove(site)
            model.append(site)      # predict refreshes
        predictor.update(site, BranchClass.CONDITIONAL, taken, target)
        if not hit:
            if len(model) >= entries:
                model.pop(0)        # the LRU key is the victim
            model.append(site)      # allocation lands MRU
        assert list(predictor._cache.lru_order()) == model


# --- recency-policy determinism (the assoc_cache fix) -------------------------


def test_peek_and_replace_do_not_touch_recency():
    cache = AssociativeCache(2)
    cache.insert(1, "a")
    cache.insert(2, "b")
    assert cache.lru_order() == (1, 2)
    assert cache.peek(1) == "a"
    assert cache.replace(1, "a2") is True
    assert cache.replace(99, "zz") is False
    assert cache.lru_order() == (1, 2)       # 1 is still the victim
    cache.insert(3, "c")
    assert cache.lru_order() == (2, 3)
    assert cache.peek(1) is None


def test_lookup_is_the_only_refreshing_read():
    cache = AssociativeCache(2)
    cache.insert(1, "a")
    cache.insert(2, "b")
    assert cache.lookup(1) == "a"
    assert cache.lru_order() == (2, 1)
    assert cache.contains(2) is True
    assert list(cache.items()) == [(2, "b"), (1, "a")]
    assert cache.lru_order() == (2, 1)       # reads left order alone


def test_update_without_predict_leaves_recency_alone():
    """The fix itself: an in-place update is not a recency event.

    Before the recency-policy pin, ``update`` went through ``lookup``/
    ``insert`` and silently promoted the entry, so any caller that
    updated without predicting first (the differential engine, state
    snapshots) perturbed future evictions.
    """
    for predictor in (SimpleBTB(entries=2), CounterBTB(entries=2)):
        predictor.update(1, BranchClass.CONDITIONAL, True, 9)
        predictor.update(2, BranchClass.CONDITIONAL, True, 9)
        before = predictor._cache.lru_order()
        predictor.update(1, BranchClass.CONDITIONAL, True, 9)
        assert predictor._cache.lru_order() == before


def test_replay_is_bit_for_bit_reproducible():
    """Two replays of the same fuzzed trace leave identical state.

    Snapshots are taken after every record via the non-perturbing
    ``production_state`` — taking them must not change the outcome
    (the third replay, unobserved, ends in the same state).
    """
    trace = TraceFuzzer(7, n_records=300).trace()

    def replay(observe):
        predictor = CounterBTB(entries=8)
        snapshots = []
        for site, branch_class, taken, target, _ in trace.records():
            if branch_class == BranchClass.RETURN:
                continue
            predictor.predict(site, branch_class)
            predictor.update(site, branch_class, taken, target)
            if observe:
                snapshots.append(production_state(predictor))
        return snapshots, production_state(predictor)

    first_snaps, first_final = replay(observe=True)
    second_snaps, second_final = replay(observe=True)
    _, unobserved_final = replay(observe=False)
    assert first_snaps == second_snaps
    assert first_final == second_final == unobserved_final


def test_subtrace_roundtrip():
    """A trace rebuilt from its records, as the shrinker's sub-traces
    are, is the same trace."""
    trace = TraceFuzzer(3, n_records=40).trace()
    rebuilt = BranchTrace.from_records(trace.records())
    assert list(rebuilt.records()) == list(trace.records())
    assert rebuilt.total_instructions == trace.total_instructions
