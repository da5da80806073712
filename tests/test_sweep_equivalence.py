"""Sweep-grid equivalence: the kernels vs the scalar reference on the
paper's benchmarks.

Fuzz traces have about two dozen sites, so they never overflow many
cache sets at once.  The ten benchmarks through the ``sweeps`` grid
(:mod:`repro.experiments.sweeps`) and through direction schemes with
small set-associative target stores do: these are the configurations
whose overflowing sets the eviction replay serves.  For each of them
``simulate_vector`` must equal ``simulate_scalar`` field for field.
"""

import pytest

from repro.experiments import SuiteRunner, paper_values
from repro.kernels import simulate_vector
from repro.predictors import (
    Bimodal,
    CounterBTB,
    GShare,
    SimpleBTB,
    simulate_scalar,
)

SCALE = 0.02


def _configs():
    """The 20 distinct ``sweeps`` configurations plus four direction
    schemes with small target stores."""
    configs = []
    for entries in (16, 64, 256, 1024):
        configs.append(("sbtb%d" % entries,
                        lambda entries=entries: SimpleBTB(entries)))
        configs.append(("cbtb%d" % entries,
                        lambda entries=entries: CounterBTB(entries)))
    for ways in (1, 2, 4, 8):
        configs.append(("sbtb256x%d" % ways,
                        lambda ways=ways: SimpleBTB(256, ways)))
        configs.append(("cbtb256x%d" % ways,
                        lambda ways=ways: CounterBTB(256, ways)))
    for bits, threshold in ((1, 1), (2, 1), (3, 4), (4, 8)):
        configs.append((
            "cbtb-%dbit-t%d" % (bits, threshold),
            lambda bits=bits, threshold=threshold: CounterBTB(
                counter_bits=bits, threshold=threshold)))
    configs += [
        ("gshare16x4", lambda: GShare(8, 12, 16, 4)),
        ("gshare64x2", lambda: GShare(4, 10, 64, 2)),
        ("bimodal32x2", lambda: Bimodal(12, 32, 2)),
        ("bimodal16", lambda: Bimodal(10, 16)),
    ]
    return configs


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(scale=SCALE, cache_dir=False)


@pytest.mark.slow
@pytest.mark.parametrize("name", paper_values.BENCHMARKS)
def test_sweep_grid_battery(runner, name):
    trace = runner.run(name).trace
    mismatched = []
    for label, make_predictor in _configs():
        scalar = simulate_scalar(make_predictor(), trace)
        vector = simulate_vector(make_predictor(), trace)
        if scalar != vector:
            mismatched.append("%s: scalar %r, vector %r"
                              % (label, scalar.as_dict(),
                                 vector.as_dict()))
    assert not mismatched, "\n".join(mismatched)
