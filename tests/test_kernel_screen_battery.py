"""The simulate layer's shortcuts against their long forms, on the
paper's benchmarks.

The kernels sort each trace's sites once and read the distinct sites,
their inverse and each record's previous same-site record off that
grouping; and the eviction screen skips the occupancy scan when no
set has more distinct sites than ways.  On the ten benchmarks at small
scale, for the paper's 256-entry buffers, small and set-associative
ones, and GShare's target store, this battery checks that:

* the memoized distinct sites, inverse and ``previous_index`` equal a
  fresh ``np.unique`` and ``scan.previous_index`` over unnarrowed
  int64 keys;
* every skipped screen agrees with the full occupancy scan (which
  finds no overflowing set), and forcing the scan changes no result.
"""

import numpy as np
import pytest

from repro.experiments import SuiteRunner, paper_values
from repro.kernels import EncodedTrace, evict, scan, simulate_vector
from repro.predictors import CounterBTB, GShare, SimpleBTB

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
#: epochs (whose distinct sites come from a plain-site grouping).
RUNS = ({}, {"conditional_only": True}, {"flush_interval": 5_000})

#: Added to sites so that ``scan.Groups`` cannot narrow them: the
#: reference grouping takes NumPy's int64 merge sort.
_WIDE = 1 << 40


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(scale=SCALE, cache_dir=False)


def _assert_memo_matches_fresh(enc):
    sites = enc.sites.astype(np.int64)
    unique, inverse = np.unique(sites, return_inverse=True)
    assert np.array_equal(enc.unique_sites(), unique)
    assert np.array_equal(enc.site_inverse(), inverse)
    wide = sites + _WIDE
    if enc.epochs is not None:
        wide = enc.qualify(wide)
    assert np.array_equal(enc.previous_index(),
                          scan.previous_index(scan.Groups(wide)))


@pytest.mark.slow
@pytest.mark.parametrize("name", paper_values.BENCHMARKS)
def test_kernel_screen_battery(runner, name, monkeypatch):
    trace = runner.run(name).trace
    encodings = []
    real_screen = evict.overflow_rows
    real_check = evict.cannot_overflow

    def checked_screen(enc, cache, delta):
        """The screen, plus the full scan behind every skip."""
        encodings.append(enc)
        result = real_screen(enc, cache, delta)
        if real_check(enc, cache.n_sets, cache.associativity):
            assert result is None
            with monkeypatch.context() as patch:
                patch.setattr(evict, "cannot_overflow",
                              lambda *args: False)
                assert real_screen(enc, cache, delta) is None, \
                    "%s: skipped screen, but a set overflows" % name
        return result

    for label, make in CONFIGS:
        for run in RUNS:
            with monkeypatch.context() as patch:
                patch.setattr(evict, "overflow_rows", checked_screen)
                screened = simulate_vector(make(), trace, **run)
            with monkeypatch.context() as patch:
                patch.setattr(evict, "cannot_overflow",
                              lambda *args: False)
                scanned = simulate_vector(make(), trace, **run)
            assert screened == scanned, (name, label, run)
    assert encodings
    for enc in {id(enc): enc for enc in encodings}.values():
        _assert_memo_matches_fresh(enc)
    _assert_memo_matches_fresh(EncodedTrace.of(trace))
