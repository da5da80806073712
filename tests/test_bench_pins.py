"""The names ``bench/traced.py`` wraps must keep resolving.

The benchmark's traced run patches callables by ``module:qualname``
and reads a few of their arguments by position or keyword.  A rename
would otherwise surface only in a full benchmark run; these tests
catch it in the unit suite.  ``bench/traced.py`` is executed, not
imported, so nothing is written under ``bench/``.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

from repro.isa import assemble
from repro.vm import Machine

TRACED = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "bench" / "traced.py"),
    run_name="traced")


def _pinned_targets():
    targets = [target for layer in TRACED["LAYERS"].values()
               for target in layer]
    return [TRACED["VM_RUN"], *TRACED["COUNTED"], *targets]


def _resolve(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("target", _pinned_targets())
def test_pinned_callable_resolves(target):
    assert callable(_resolve(target))


def test_pinned_arguments_keep_their_places():
    """The ledger counts ``len(rows)`` from each eviction replay's first
    argument and reads ``trace`` from ``resolve_engine``'s keywords."""
    for name in ("sbtb_evict", "cbtb_evict", "store_evict"):
        function = _resolve("repro.kernels.evict:%s" % name)
        assert next(iter(inspect.signature(function).parameters)) \
            == "rows"
    resolve_engine = _resolve("repro.kernels.engine:resolve_engine")
    assert "trace" in inspect.signature(resolve_engine).parameters


def test_machine_keeps_probe_addresses():
    """The ledger tells the two VM passes apart by this attribute."""
    program = assemble("func main:\n    halt\n")
    assert Machine(program).probe_addresses is None
    assert Machine(program, probe_addresses=[0]).probe_addresses \
        == frozenset([0])
