"""Peak memory of the CBTB kernel, measured with ``tracemalloc``.

NumPy reports its array buffers to ``tracemalloc``, so the traced peak
of one kernel call over a fixed synthetic view is deterministic.  The
CBTB kernel's per-record transients (the int32 transition columns and
the counter states) are released as soon as they are consumed; kept
alive through the target pass, they raise the peak from about 26 to
about 34 bytes per record on this view.
"""

import tracemalloc

import numpy as np

from repro.kernels import EncodedTrace, tables
from repro.kernels.aggregate import _DROPS
from repro.predictors import CounterBTB
from repro.vm.tracing import BranchClass, BranchTrace

#: Bound on the kernel's traced peak, bytes per record of the view.
PEAK_BYTES_PER_RECORD = 30.0


def _view(n=200_000, n_sites=220, seed=1):
    """A cccp-like site view: int32 targets, no set overflow, and each
    site strongly biased, so outcomes come in long runs."""
    rng = np.random.default_rng(seed)
    site_ids = rng.integers(0, n_sites, size=n)
    bias = rng.choice([0.01, 0.99], size=n_sites)
    sites = site_ids * 40 + 1000
    classes = np.where(rng.random(n) < 0.9, BranchClass.CONDITIONAL,
                       BranchClass.UNCONDITIONAL_KNOWN)
    takens = ((rng.random(n) < bias[site_ids])
              | (classes != BranchClass.CONDITIONAL))
    targets = sites + rng.choice([-50_000, 12, 40_000], size=n)
    trace = BranchTrace(sites, classes, takens, targets,
                        rng.integers(1, 20, size=n))
    return EncodedTrace.of(trace).site_view("no-returns",
                                            _DROPS["no-returns"])


def test_cbtb_kernel_peak_bytes_per_record():
    view = _view()
    assert view.targets.dtype == np.int32
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables.cbtb_kernel(CounterBTB(256), view)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / len(view) < PEAK_BYTES_PER_RECORD
