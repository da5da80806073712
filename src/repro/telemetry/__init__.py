"""Observability for the experiment pipeline.

The pieces (see docs/OBSERVABILITY.md for the full guide):

* :mod:`repro.telemetry.core` — the span/counter/histogram registry and
  its process-wide singleton :data:`TELEMETRY` (disabled by default;
  instrumented hot paths pay one attribute check until enabled; an
  enabled registry always traces);
* :mod:`repro.telemetry.sinks` — event sinks: an in-memory aggregator
  for tests/`profile`, a crash-safe line-buffered JSONL event log for
  runs, plus a torn-line-tolerant reader;
* :mod:`repro.telemetry.tracing` — cross-process trace propagation:
  trace contexts shipped into supervised workers, per-attempt JSONL
  shards, the merger that stitches them into one trace tree, and the
  ledger folded from that tree (``repro-branches metrics --replay``);
* :mod:`repro.telemetry.history` — the append-only BENCH_history.jsonl
  perf trajectory and its regression report
  (``repro-branches bench-history``);
* :mod:`repro.telemetry.manifest` — run manifests, the provenance
  records written next to cached artifacts;
* :mod:`repro.telemetry.attribution` — per-site mispredict attribution
  (the ``repro-branches stats`` report).

``attribution`` imports the predictors (which are themselves
instrumented with this package), so it is deliberately *not* imported
here — import it as ``repro.telemetry.attribution``.
"""

from repro.telemetry.core import (
    NULL_SPAN,
    Counter,
    Histogram,
    Span,
    TELEMETRY,
    Telemetry,
)
from repro.telemetry.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    git_sha,
    manifest_path_for,
)
from repro.telemetry.sinks import (
    InMemoryAggregator,
    JsonlSink,
    Sink,
    read_jsonl_tolerant,
)
from repro.telemetry.tracing import (
    TraceContext,
    TraceTree,
    fold_ledger,
    merge_trace,
    new_trace_id,
)

__all__ = [
    "NULL_SPAN",
    "Counter",
    "Histogram",
    "Span",
    "TELEMETRY",
    "Telemetry",
    "MANIFEST_VERSION",
    "RunManifest",
    "git_sha",
    "manifest_path_for",
    "InMemoryAggregator",
    "JsonlSink",
    "Sink",
    "read_jsonl_tolerant",
    "TraceContext",
    "TraceTree",
    "fold_ledger",
    "merge_trace",
    "new_trace_id",
]
