"""The fault-injection recovery matrix behind ``repro-branches faults``.

For every seed and every fault kind in the catalog, the harness arms a
deterministic :class:`~repro.resilience.faults.FaultPlan`, runs a real
(tiny) benchmark through the suite runner — or a supervised worker
through :func:`~repro.resilience.supervisor.run_supervised` — and then
verifies that the injected fault was *detected and recovered from*,
with the matching telemetry event as evidence:

=================  ==========================  =====================
fault              expected recovery           evidence event
=================  ==========================  =====================
torn-write         quarantine + recompute      ``cache.quarantined``
bit-flip           quarantine + recompute      ``cache.quarantined``
enospc             run completes uncached      ``cache.store_failed``
worker-crash       retry succeeds              ``worker.retry``
worker-hang        kill + retry succeeds       ``worker.retry``
corrupt-manifest   quarantine + recompute      ``cache.quarantined``
tamper             quarantine + recompute      ``cache.quarantined``
=================  ==========================  =====================

A fault that fires but produces no recovery evidence is a **silent
swallow** and fails the matrix — which is the whole point: the gate in
``scripts/check.sh`` proves the recovery paths keep working.
"""

import contextlib
import os
import tempfile
from pathlib import Path

from repro.resilience.faults import (
    FAULT_KINDS,
    FAULTS,
    PLAN_ENV_VAR,
    FaultPlan,
)
from repro.resilience.store import (
    atomic_write_bytes,
    list_quarantined,
)
from repro.resilience.supervisor import run_supervised
from repro.telemetry.core import TELEMETRY
from repro.telemetry.sinks import InMemoryAggregator

#: The benchmark and scale every scenario runs; small enough that a
#: full matrix stays a smoke test, real enough to cover the actual
#: compile/profile/trace/store pipeline.
MATRIX_BENCHMARK = "wc"
MATRIX_SCALE = 0.02

#: Supervisor shape for the worker scenarios: tight timeout so a hung
#: worker is killed quickly, two retries so one injected death heals.
WORKER_TIMEOUT = 1.0
WORKER_RETRIES = 2
WORKER_BACKOFF = 0.05


class FaultCase:
    """One (kind, seed) cell of the recovery matrix."""

    __slots__ = ("kind", "seed", "outcome", "ok", "detail", "events")

    def __init__(self, kind, seed, outcome, ok, detail, events):
        self.kind = kind
        self.seed = seed
        self.outcome = outcome
        self.ok = ok
        self.detail = detail
        self.events = events

    def to_dict(self):
        return {"kind": self.kind, "seed": self.seed,
                "outcome": self.outcome, "ok": self.ok,
                "detail": self.detail, "events": list(self.events)}

    def __repr__(self):
        return "FaultCase(%s, seed=%d, %s, %s)" % (
            self.kind, self.seed, self.outcome,
            "ok" if self.ok else "SWALLOWED")


class FaultMatrixReport:
    """Everything one recovery-matrix run observed."""

    def __init__(self, seeds, kinds):
        self.seeds = seeds
        self.kinds = tuple(kinds)
        self.cases = []

    @property
    def swallowed(self):
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self):
        return bool(self.cases) and not self.swallowed

    def by_kind(self, kind):
        return [case for case in self.cases if case.kind == kind]

    def render(self):
        lines = ["Fault-injection recovery matrix: %d seeds x %d "
                 "fault kinds (%d cases)"
                 % (self.seeds, len(self.kinds), len(self.cases))]
        for kind in self.kinds:
            cases = self.by_kind(kind)
            good = sum(case.ok for case in cases)
            outcomes = sorted({case.outcome for case in cases})
            lines.append("  %-16s %d/%d recovered (%s)"
                         % (kind, good, len(cases),
                            ", ".join(outcomes) or "no cases"))
        if self.swallowed:
            lines.append("SILENT SWALLOWS (%d):" % len(self.swallowed))
            for case in self.swallowed:
                lines.append("  %s seed %d: %s"
                             % (case.kind, case.seed, case.detail))
        lines.append("RESULT: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {"seeds": self.seeds, "kinds": list(self.kinds),
                "ok": self.ok,
                "cases": [case.to_dict() for case in self.cases]}


@contextlib.contextmanager
def _captured_events():
    """Route telemetry into a private aggregator; restore after.

    The counters the matrix records go into a private table too, and
    the trace context enabling installs is put back, so the process
    registry comes back as it was.
    """
    sink = InMemoryAggregator()
    prior = (TELEMETRY.enabled, TELEMETRY.sink, TELEMETRY.trace,
             TELEMETRY._counters)
    TELEMETRY._counters = {}
    TELEMETRY.enable(sink)
    try:
        yield sink
    finally:
        (TELEMETRY.enabled, TELEMETRY.sink, TELEMETRY._trace,
         TELEMETRY._counters) = prior


def _event_names(sink):
    return sorted({event.get("name") for event in sink.of_type("event")})


def _make_runner(cache_dir):
    from repro.experiments.runner import SuiteRunner

    return SuiteRunner(scale=MATRIX_SCALE, runs=1, cache_dir=cache_dir)


def _corruption_case(kind, seed, case_dir):
    """torn-write / bit-flip / corrupt-manifest / tamper: quarantine +
    recompute."""
    plan = FaultPlan.single(kind, seed=seed)
    with _captured_events() as sink:
        FAULTS.arm(plan)
        try:
            first = _make_runner(case_dir).run(MATRIX_BENCHMARK)
        finally:
            FAULTS.disarm()
        injected = bool(sink.named("fault.injected"))
        # Recovery: a fresh runner must detect the damage, quarantine
        # the entry, recompute, and store a clean replacement.
        second = _make_runner(case_dir).run(MATRIX_BENCHMARK)
        quarantined = bool(sink.named("cache.quarantined"))
        # Proof of a clean replacement: a third runner gets a pure
        # cache hit with no new quarantine.
        third = _make_runner(case_dir).run(MATRIX_BENCHMARK)
        hits = sink.named("cache.hit")
        events = _event_names(sink)
    equal = (list(first.trace.records()) == list(second.trace.records())
             == list(third.trace.records()))
    corrupt_files = list_quarantined(case_dir)
    ok = (injected and quarantined and equal and bool(corrupt_files)
          and bool(hits))
    detail = ("injected=%s quarantined=%s identical=%s corrupt_files=%d"
              % (injected, quarantined, equal, len(corrupt_files)))
    return FaultCase(kind, seed, "quarantined+recomputed", ok, detail,
                     events)


def _enospc_case(seed, case_dir):
    """enospc: the run completes uncached and leaves no partial entry."""
    plan = FaultPlan.single("enospc", seed=seed)
    with _captured_events() as sink:
        FAULTS.arm(plan)
        try:
            run = _make_runner(case_dir).run(MATRIX_BENCHMARK)
        finally:
            FAULTS.disarm()
        injected = bool(sink.named("fault.injected"))
        surfaced = bool(sink.named("cache.store_failed"))
        events = _event_names(sink)
    # No torn entry may survive: either nothing, or a complete
    # checksum-valid entry (the failed store must clean up after
    # itself).
    leftovers = [path for path in Path(case_dir).glob("*.npz")]
    completed = run is not None and len(run.trace) > 0
    ok = injected and surfaced and completed and not leftovers
    detail = ("injected=%s surfaced=%s completed=%s leftovers=%d"
              % (injected, surfaced, completed, len(leftovers)))
    return FaultCase("enospc", seed, "degraded-uncached", ok, detail,
                     events)


def _matrix_worker(payload):
    """Supervised-worker body: one crash-safe artifact write."""
    path, seed = payload
    data = ("matrix artifact seed %d\n" % seed).encode() * 64
    atomic_write_bytes(path, data)


def _worker_case(kind, seed, case_dir):
    """worker-crash / worker-hang: supervisor kills/retries to success."""
    plan = FaultPlan.single(kind, seed=seed)
    artifact = str(Path(case_dir) / "artifact.bin")
    os.environ[PLAN_ENV_VAR] = plan.to_json()
    try:
        with _captured_events() as sink:
            report = run_supervised(
                [("artifact", (artifact, seed))], _matrix_worker,
                workers=1, timeout=WORKER_TIMEOUT,
                retries=WORKER_RETRIES, backoff=WORKER_BACKOFF,
                seed=seed)
            retried = bool(sink.named("worker.retry"))
            events = _event_names(sink)
    finally:
        os.environ.pop(PLAN_ENV_VAR, None)
    outcome = report.outcome("artifact")
    recovered = (report.ok and outcome is not None
                 and outcome.attempts == 2)
    written = Path(artifact).exists()
    ok = retried and recovered and written
    detail = ("retried=%s attempts=%s written=%s"
              % (retried,
                 outcome.attempts if outcome else None, written))
    return FaultCase(kind, seed, "retried", ok, detail, events)


def run_fault_matrix(seeds=10, kinds=FAULT_KINDS, base_dir=None):
    """Run the recovery matrix; returns a :class:`FaultMatrixReport`.

    Args:
        seeds: seeds per fault kind (each varies the trigger point and
            damage parameters).
        kinds: subset of :data:`FAULT_KINDS` to exercise.
        base_dir: scratch directory (a fresh temp dir by default);
            each case gets its own isolated cache underneath.
    """
    report = FaultMatrixReport(seeds, kinds)
    with contextlib.ExitStack() as stack:
        if base_dir is None:
            base_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-faults-"))
        base = Path(base_dir)
        for seed in range(seeds):
            for kind in kinds:
                case_dir = base / ("%s-%d" % (kind, seed))
                case_dir.mkdir(parents=True, exist_ok=True)
                if kind in ("torn-write", "bit-flip",
                            "corrupt-manifest", "tamper"):
                    case = _corruption_case(kind, seed, case_dir)
                elif kind == "enospc":
                    case = _enospc_case(seed, case_dir)
                else:
                    case = _worker_case(kind, seed, case_dir)
                report.cases.append(case)
    TELEMETRY.event("faults.result", ok=report.ok,
                    cases=len(report.cases),
                    swallowed=len(report.swallowed))
    return report
