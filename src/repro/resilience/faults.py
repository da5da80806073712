"""Deterministic fault injection for the resilience layer.

A :class:`FaultPlan` is a seeded, serialisable list of faults to
inject at well-defined hook points inside the artifact store and the
supervised runner.  The process-wide :data:`FAULTS` injector is
**disabled by default** and, like the telemetry registry, costs the
instrumented code one attribute check (``FAULTS.enabled``) until a
test or the recovery-matrix harness arms it — production runs pay
nothing.

The fault catalog (:data:`FAULT_KINDS`):

``torn-write``
    Truncate an artifact right after it is committed, simulating a
    crash mid-write by a non-atomic writer.  Detected by the checksum
    verify on load; recovered by quarantine + recompute.
``bit-flip``
    Flip one byte of a committed artifact (silent media corruption).
    Same detection and recovery as ``torn-write``.
``enospc``
    Raise ``OSError(ENOSPC)`` at the Nth store write (full disk).
    The store path degrades: the run completes uncached.
``worker-crash``
    A supervised worker process exits hard (``os._exit``) on a chosen
    attempt.  The supervisor retries with backoff.
``worker-hang``
    A supervised worker sleeps past its timeout on a chosen attempt.
    The supervisor kills and retries it.
``corrupt-manifest``
    Overwrite a committed ``*.manifest.json`` with garbage.  Detected
    as a :class:`~repro.resilience.errors.ManifestError`; recovered by
    quarantine + recompute (and tolerated by the cache listing).
``tamper``
    Rewrite one column of a committed trace out of range (a flag
    above 7, a negative gap, or gaps past the instruction count) and
    record the tampered file's checksum in its manifest, so the
    checksum verify passes.  Detected by the trace's semantic checks
    (:meth:`~repro.vm.tracing.BranchTrace.from_arrays`); recovered by
    quarantine + recompute.

Worker faults key on the *attempt number* (passed into the child by
the supervisor) rather than a shared counter, so they stay
deterministic across process boundaries; the plan itself rides into
workers via the ``REPRO_FAULT_PLAN`` environment variable.
"""

import errno
import json
import os
import random
import time

from repro.telemetry.core import TELEMETRY

FAULT_KINDS = ("torn-write", "bit-flip", "enospc", "worker-crash",
               "worker-hang", "corrupt-manifest", "tamper")

#: Environment variable carrying a serialised plan into worker
#: processes (see :meth:`FaultInjector.activate_from_env`).
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: How long a ``worker-hang`` fault sleeps; far beyond any supervisor
#: timeout a test would configure.
HANG_SECONDS = 3600.0

#: Faults triggered by committed artifact writes (vs. worker attempts).
_WRITE_KINDS = frozenset(("torn-write", "bit-flip", "enospc",
                          "corrupt-manifest", "tamper"))


class Fault:
    """One planned fault: a kind, a trigger point, and a parameter.

    ``at`` is 1-based: the Nth matching hook call (write-commit count
    for store faults, attempt number for worker faults) fires the
    fault.  ``param`` perturbs *how* it fires (truncation fraction,
    flipped-byte position) so different seeds exercise different
    damage.  Each fault fires at most once.
    """

    __slots__ = ("kind", "at", "param", "fired")

    def __init__(self, kind, at=1, param=0.5, fired=False):
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r" % kind)
        self.kind = kind
        self.at = int(at)
        self.param = float(param)
        self.fired = bool(fired)

    def to_dict(self):
        return {"kind": self.kind, "at": self.at, "param": self.param}

    @classmethod
    def from_dict(cls, data):
        return cls(data["kind"], data.get("at", 1),
                   data.get("param", 0.5))

    def __repr__(self):
        return "Fault(%r, at=%d, param=%.3f%s)" % (
            self.kind, self.at, self.param,
            ", fired" if self.fired else "")


class FaultPlan:
    """A seeded, serialisable set of faults."""

    __slots__ = ("seed", "faults")

    def __init__(self, faults, seed=None):
        self.seed = seed
        self.faults = list(faults)

    @classmethod
    def single(cls, kind, seed=0):
        """One deterministic fault of ``kind``, parameterised by seed.

        The seed (together with the kind) picks the trigger point and
        the damage parameter, so seed 3's bit flip lands on a
        different byte than seed 4's.
        """
        rng = random.Random((seed, kind).__repr__())
        if kind in ("worker-crash", "worker-hang"):
            at = 1          # fail the first attempt; retries recover
        elif kind in ("corrupt-manifest", "tamper"):
            at = 1          # manifests are rare writes; hit the first
        else:
            at = rng.randint(1, 2)
        return cls([Fault(kind, at=at, param=rng.random())], seed=seed)

    def to_json(self):
        return json.dumps({"seed": self.seed,
                           "faults": [fault.to_dict()
                                      for fault in self.faults]})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls([Fault.from_dict(entry) for entry in data["faults"]],
                   seed=data.get("seed"))

    def __repr__(self):
        return "FaultPlan(seed=%r, %r)" % (self.seed, self.faults)


def _default_corrupt(path, fault):
    """Damage a committed file according to the fault's parameters."""
    data = path.read_bytes()
    if fault.kind == "torn-write":
        keep = int(len(data) * min(max(fault.param, 0.05), 0.95))
        path.write_bytes(data[:keep])
    elif fault.kind == "bit-flip":
        if not data:
            return
        index = int(fault.param * (len(data) - 1))
        flipped = data[:index] + bytes([data[index] ^ 0x40]) \
            + data[index + 1:]
        path.write_bytes(flipped)
    elif fault.kind == "corrupt-manifest":
        path.write_bytes(b'{"manifest_version": !!! torn json')


def _tamper(manifest_path, fault):
    """Put one trace column of the entry out of range, then record the
    tampered trace's checksum in ``manifest_path``."""
    import numpy as np

    from repro.resilience.store import file_checksum

    manifest = json.loads(manifest_path.read_text())
    trace_path = manifest_path.with_name(manifest["artifacts"]["trace"])
    with np.load(trace_path) as stored:
        arrays = dict(stored)
    index = int(fault.param * (arrays["gaps"].size - 1))
    variant = int(fault.param * 3) % 3
    if variant == 0:
        arrays["flags"][index] = 8
    elif variant == 1:
        arrays["gaps"][index] = -1
    else:
        arrays["total_instructions"] = np.int64(
            arrays["gaps"].astype(np.int64).sum() + arrays["gaps"].size - 1)
    with open(trace_path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    manifest["checksums"]["trace"] = file_checksum(trace_path)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")


class FaultInjector:
    """The hook-point dispatcher; armed with a plan, fires its faults.

    Hooks are called from the artifact store (``on_write`` before the
    temp file is written, ``on_commit`` after ``os.replace``) and from
    supervised workers (``on_worker_start`` with the attempt number).
    Every fired fault emits a ``fault.injected`` telemetry event and
    bumps the ``faults.injected`` counter, so a recovery run can prove
    the fault actually happened — no silent swallows.
    """

    __slots__ = ("enabled", "plan", "_write_count", "_manifest_count")

    def __init__(self):
        self.enabled = False
        self.plan = None
        self._write_count = 0
        self._manifest_count = 0

    # -- lifecycle ---------------------------------------------------------

    def arm(self, plan):
        """Install ``plan`` and enable the hook points."""
        self.plan = plan
        self._write_count = 0
        self._manifest_count = 0
        self.enabled = True
        return self

    def disarm(self):
        """Disable all hook points (the plan is dropped)."""
        self.enabled = False
        self.plan = None
        self._write_count = 0
        self._manifest_count = 0
        return self

    def to_env(self, environ=None):
        """Export the armed plan so forked workers can activate it."""
        environ = os.environ if environ is None else environ
        if self.enabled and self.plan is not None:
            environ[PLAN_ENV_VAR] = self.plan.to_json()
        return environ

    def clear_env(self, environ=None):
        environ = os.environ if environ is None else environ
        environ.pop(PLAN_ENV_VAR, None)
        return environ

    def activate_from_env(self, environ=None):
        """Arm from ``REPRO_FAULT_PLAN`` when set (worker entry point)."""
        environ = os.environ if environ is None else environ
        text = environ.get(PLAN_ENV_VAR)
        if text:
            self.arm(FaultPlan.from_json(text))
        return self.enabled

    # -- matching ----------------------------------------------------------

    def _take(self, kinds, count):
        """The first unfired fault in ``kinds`` whose trigger is ``count``."""
        if self.plan is None:
            return None
        for fault in self.plan.faults:
            if fault.kind in kinds and not fault.fired \
                    and fault.at == count:
                fault.fired = True
                return fault
        return None

    def _report(self, fault, site, **fields):
        TELEMETRY.count("faults.injected")
        TELEMETRY.event("fault.injected", kind=fault.kind, site=site,
                        at=fault.at, **fields)

    # -- hook points -------------------------------------------------------

    def on_write(self, path):
        """Before a store write: may raise the planned ``OSError``."""
        self._write_count += 1
        fault = self._take(("enospc",), self._write_count)
        if fault is not None:
            self._report(fault, "store.write", path=str(path))
            raise OSError(errno.ENOSPC, "injected: no space left on "
                          "device", str(path))

    def on_commit(self, path):
        """After ``os.replace``: may damage the committed artifact.

        ``corrupt-manifest`` and ``tamper`` count manifest commits only
        (a manifest is rarely the Nth write overall, and a tamper
        needs the entry complete); the other write faults count every
        commit.
        """
        if str(path).endswith(".manifest.json"):
            self._manifest_count += 1
            fault = self._take(("corrupt-manifest", "tamper"),
                               self._manifest_count)
        else:
            fault = self._take(("torn-write", "bit-flip"),
                               self._write_count)
        if fault is not None:
            self._report(fault, "store.commit", path=str(path))
            if fault.kind == "tamper":
                _tamper(path, fault)
            else:
                _default_corrupt(path, fault)

    def on_worker_start(self, task, attempt):
        """In a worker process: may crash or hang this attempt."""
        fault = self._take(("worker-crash",), attempt)
        if fault is not None:
            self._report(fault, "worker.start", task=str(task),
                         attempt=attempt)
            os._exit(13)
        fault = self._take(("worker-hang",), attempt)
        if fault is not None:
            self._report(fault, "worker.start", task=str(task),
                         attempt=attempt)
            time.sleep(HANG_SECONDS)


#: The process-wide injector.  Disabled by default: the store and the
#: supervisor pay one attribute check per hook point until a test (or
#: ``repro-branches faults``) arms it.
FAULTS = FaultInjector()
