"""The simulate layer's shortcuts against their long forms, on the
paper's benchmarks.

The kernels sort the records each simulation sees by site once, into a
site view, and score in view order; and the eviction screen skips the
occupancy scan when no set has more distinct sites than ways.  On the
ten benchmarks at small scale, for the paper's 256-entry buffers,
small and set-associative ones, and GShare's target store, this
battery checks that:

* every view's ``order``, segment starts and distinct sites equal a
  fresh int64 stable ``np.argsort`` and ``np.unique`` over widened
  keys, with the view's filter applied;
* every skipped screen agrees with the full occupancy scan (which
  finds no overflowing set), and forcing the scan changes no result;
* forcing the trace-order overflow path for the paper's three
  simulations changes no result and replays nothing.
"""

import numpy as np
import pytest

from repro.experiments import SuiteRunner, paper_values
from repro.kernels import encode, evict, simulate_vector
from repro.predictors import (
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    SimpleBTB,
)

SCALE = 0.02

CONFIGS = (
    ("sbtb256", lambda: SimpleBTB(256)),
    ("sbtb16", lambda: SimpleBTB(16)),
    ("sbtb8x2", lambda: SimpleBTB(8, 2)),
    ("sbtb16x4", lambda: SimpleBTB(16, 4)),
    ("cbtb256", lambda: CounterBTB(256)),
    ("cbtb16", lambda: CounterBTB(16)),
    ("cbtb8x2", lambda: CounterBTB(8, 2)),
    ("cbtb16x4", lambda: CounterBTB(16, 4)),
    ("gshare", GShare),
)

#: simulate() arguments: the plain scoring, one filter, and flush
#: epochs (whose segments are (epoch, site) pairs).
RUNS = ({}, {"conditional_only": True}, {"flush_interval": 5_000})

#: Added to sites so that no reference key fits 16 bits: the reference
#: grouping takes NumPy's int64 merge sort.
_WIDE = 1 << 40


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(scale=SCALE, cache_dir=False)


def _record_views(monkeypatch):
    """Collect ``(view, encoding, drop mask)`` of every view built."""
    built = []
    real_build = encode.SiteView._build

    def build(view, enc, drop):
        real_build(view, enc, drop)
        built.append((view, enc, drop))

    monkeypatch.setattr(encode.SiteView, "_build", build)
    return built


def _recording(function, results):
    """``function``, appending each of its results to ``results``."""
    def spy(*args):
        results.append(function(*args))
        return results[-1]
    return spy


def _assert_view_matches_fresh(view, enc, drop):
    sites = enc.sites.astype(np.int64)
    keys = sites + _WIDE
    if enc.epochs is not None:
        keys += enc.epochs.astype(np.int64) << 42
    kept = np.arange(len(enc)) if drop is None else np.flatnonzero(~drop)
    order = kept[np.argsort(keys[kept], kind="stable")]
    sorted_keys = keys[order]
    starts = np.ones(order.shape[0], dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    assert np.array_equal(view.order, order)
    assert np.array_equal(view.starts, starts)
    assert np.array_equal(view.distinct_sites, np.unique(sites[kept]))
    assert np.array_equal(view.distinct_sites[view.segment_site],
                          sites[order[starts]])
    assert view.lengths.sum() == order.shape[0]
    for column in ("takens", "classes", "targets"):
        assert np.array_equal(getattr(view, column),
                              getattr(enc, column)[order]), column


@pytest.mark.slow
@pytest.mark.parametrize("name", paper_values.BENCHMARKS)
def test_kernel_screen_battery(runner, name, monkeypatch):
    trace = runner.run(name).trace
    built = _record_views(monkeypatch)
    real_check = evict.cannot_overflow
    real_scan = evict.overflow_rows

    for label, make in CONFIGS:
        for run in RUNS:
            screens, scans = [], []
            with monkeypatch.context() as patch:
                patch.setattr(evict, "cannot_overflow",
                              _recording(real_check, screens))
                screened = simulate_vector(make(), trace, **run)
            with monkeypatch.context() as patch:
                patch.setattr(evict, "cannot_overflow",
                              lambda *args: False)
                patch.setattr(evict, "overflow_rows",
                              _recording(real_scan, scans))
                scanned = simulate_vector(make(), trace, **run)
            assert screened == scanned, (name, label, run)
            # Forced, every screen is followed by exactly one scan.
            assert len(scans) == len(screens) > 0, (name, label, run)
            for skipped, scan in zip(screens, scans):
                if skipped:
                    assert scan is None, \
                        "%s %s: skipped screen, but a set overflows" \
                        % (name, label)
    assert built
    for view, enc, drop in built:
        _assert_view_matches_fresh(view, enc, drop)


@pytest.mark.slow
@pytest.mark.parametrize("name", paper_values.BENCHMARKS)
def test_forced_overflow_path_keeps_paper_stats(runner, name,
                                                monkeypatch):
    """The paper's three simulations through the trace-order overflow
    path: 256-entry buffers overflow no set, so nothing replays and
    the stats are those of the screened run."""
    run = runner.run(name)
    schemes = (lambda: SimpleBTB(256), lambda: CounterBTB(256),
               lambda: ForwardSemanticPredictor(program=run.fs_program))
    screened = [simulate_vector(make(), run.trace) for make in schemes]
    scans = []
    with monkeypatch.context() as patch:
        patch.setattr(evict, "cannot_overflow", lambda *args: False)
        patch.setattr(evict, "overflow_rows",
                      _recording(evict.overflow_rows, scans))
        forced = [simulate_vector(make(), run.trace) for make in schemes]
    assert forced == screened
    assert scans == [None, None]        # the SBTB's and the CBTB's
