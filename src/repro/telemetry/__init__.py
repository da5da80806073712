"""Observability for the experiment pipeline.

The pieces (see docs/OBSERVABILITY.md for the full guide):

* :mod:`repro.telemetry.core` — the span/counter registry and its
  process-wide singleton :data:`TELEMETRY` (disabled by default;
  instrumented hot paths pay one attribute check until enabled; an
  enabled registry always traces, and its span events are the only
  timing record);
* :mod:`repro.telemetry.sinks` — event sinks: an in-memory aggregator
  for tests, a crash-safe line-buffered JSONL event log for
  runs, plus a torn-line-tolerant reader;
* :mod:`repro.telemetry.tracing` — cross-process trace propagation:
  trace contexts shipped into supervised workers, the fold of each
  attempt's JSONL shard into the run's own log, the merger that
  stitches that log into one trace tree, and the ledger folded from
  that tree, the one account of a run's time
  (``repro-branches metrics --replay`` and ``profile``);
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

from repro._lazy import lazy_names

# Imported on first use (:mod:`repro._lazy`): ``metrics`` and
# ``bench-history`` read an event log without the manifest's
# ``subprocess``.
__getattr__, __dir__, __all__ = lazy_names(globals(), {
    "repro.telemetry.core": ("NULL_SPAN", "Counter", "Span", "TELEMETRY",
                             "Telemetry"),
    "repro.telemetry.manifest": ("MANIFEST_VERSION", "RunManifest",
                                 "git_sha", "manifest_path_for"),
    "repro.telemetry.sinks": ("InMemoryAggregator", "JsonlSink", "Sink",
                              "read_jsonl_tolerant"),
    "repro.telemetry.tracing": ("TraceContext", "TraceTree", "fold_ledger",
                                "merge_trace", "new_trace_id"),
})
