"""Spans, counters, and histograms: the in-process telemetry registry.

The registry is a process-wide singleton (:data:`TELEMETRY`) that is
**disabled by default**.  Instrumented code pays one attribute check on
the disabled path (``TELEMETRY.enabled``); spans collapse to a shared
no-op context manager and counters/events return immediately, so the
experiment pipeline runs at full speed unless a run opts in with
``--telemetry`` (or a test calls :meth:`Telemetry.enable`).

Design points:

* spans nest: each thread keeps its own span stack (``threading.local``)
  so nested ``with telemetry.span(...)`` blocks report their depth and
  parent without cross-thread interference;
* timing uses ``time.perf_counter`` (monotonic, highest resolution);
* aggregation is in-registry: every finished span feeds a duration
  histogram keyed by span name, so a sink is optional for profiling;
* all registry mutation happens under one lock — the experiment
  harness's parallel cache warmers run in separate *processes*, but the
  API stays safe for in-process threads too;
* an enabled registry always traces: it carries a
  :class:`~repro.telemetry.tracing.TraceContext`, so every span event
  has a ``trace_id``/``span_id``/``parent_span_id`` triple, which lets
  the shard merger stitch events from many worker processes into one
  tree and :func:`~repro.telemetry.tracing.fold_ledger` account for
  a run's time.
"""

import math
import random
import threading
import time

from repro.telemetry.tracing import TraceContext, new_trace_id


class Counter:
    """A named monotonically growing value."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def __repr__(self):
        return "Counter(%r, %d)" % (self.name, self.value)


class Histogram:
    """Streaming summary of observed values.

    Alongside count/total/min/max it keeps a bounded reservoir sample
    (Vitter's algorithm R with a fixed-seed generator, so the same
    observation sequence always yields the same sample), from which
    :meth:`percentile` answers p50/p95/p99 by nearest rank.  Up to
    ``RESERVOIR_SIZE`` observations the percentiles are exact.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_samples", "_rng")

    RESERVOIR_SIZE = 1024

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        self._samples = []
        self._rng = random.Random(0)

    def record(self, value):
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._samples) < self.RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self._samples[slot] = value

    @property
    def mean(self):
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q):
        """The q-th percentile (0-100) by nearest rank, or None.

        Nearest rank is ``ceil(q/100 * n)`` clamped to ``[1, n]`` — an
        empty reservoir answers ``None``, a single-sample reservoir
        answers its sample for every q (the short-run probe-latency
        histograms hit both).  The previous round-half-up rank
        under-reported high percentiles on small reservoirs (p95 of 11
        samples returned the 10th sample instead of the maximum).
        """
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = math.ceil((q / 100.0) * len(ordered))
        return ordered[min(max(rank, 1), len(ordered)) - 1]

    def to_dict(self):
        return {"count": self.count, "total": self.total,
                "min": self.minimum, "max": self.maximum,
                "mean": self.mean,
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99)}

    def __repr__(self):
        return "Histogram(%r, n=%d, total=%.6f)" % (
            self.name, self.count, self.total)


class Span:
    """A timed region; use via ``with telemetry.span("name"):``.

    On exit the duration is recorded into the registry's histogram for
    the span name and a ``span`` event is emitted to the sink (if any).
    Extra keyword attributes given at creation ride along on the event;
    :meth:`annotate` adds more mid-flight.

    The span is assigned a process-unique ``span_id`` on entry and
    remembers its parent (the enclosing span on this thread, or the
    trace context's cross-process parent at the top level); both ride
    on the completion event.
    """

    __slots__ = ("registry", "name", "attrs", "start", "duration",
                 "span_id", "parent_span_id")

    def __init__(self, registry, name, attrs):
        self.registry = registry
        self.name = name
        self.attrs = attrs
        self.start = None
        self.duration = None
        self.span_id = None
        self.parent_span_id = None

    def annotate(self, **attrs):
        """Attach attributes to the span's completion event."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self.parent_span_id = self.registry.current_span_id()
        self.span_id = self.registry.allocate_span_id()
        self.registry._push(self.name, self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.duration = time.perf_counter() - self.start
        depth = self.registry._pop()
        self.registry._finish_span(self, depth,
                                   failed=exc_type is not None)
        return False


class _NullSpan:
    """The disabled path: a shared, stateless no-op span."""

    __slots__ = ()

    def annotate(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False


NULL_SPAN = _NullSpan()


class Telemetry:
    """The span/counter registry with a pluggable sink.

    Args:
        sink: optional event sink (see :mod:`repro.telemetry.sinks`);
            spans and counters aggregate in-registry even without one.
        enabled: start enabled (tests); the process singleton starts
            disabled.
    """

    def __init__(self, sink=None, enabled=False):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.sink = sink
        self.enabled = enabled
        self._counters = {}
        self._histograms = {}
        self._trace = TraceContext(new_trace_id()) if enabled else None
        self._span_seq = 0

    # -- lifecycle ---------------------------------------------------------

    def enable(self, sink=None):
        """Turn instrumentation on, optionally replacing the sink;
        installs a fresh root trace context when none is set."""
        if sink is not None:
            self.sink = sink
        if self._trace is None:
            self._trace = TraceContext(new_trace_id())
        self.enabled = True
        return self

    def disable(self):
        """Turn instrumentation off (the sink is kept but unused)."""
        self.enabled = False
        return self

    def reset(self):
        """Clear all aggregates; detach the sink and trace context.

        A registry that stays enabled starts a new trace.  The span
        stack is dropped too: a forked worker inherits its parent's
        open spans on the main thread, and without clearing them the
        child's top-level spans would parent under the supervisor's
        spans instead of its own shard span.
        """
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._span_seq = 0
        self._local = threading.local()
        self.sink = None
        self._trace = TraceContext(new_trace_id()) if self.enabled else None
        return self

    # -- trace context -----------------------------------------------------

    def set_trace_context(self, context):
        """Install the cross-process trace context a worker was shipped.

        Top-level spans parent under its span id — see
        :mod:`repro.telemetry.tracing`.
        """
        self._trace = context
        return self

    @property
    def trace(self):
        """The installed trace context, or None."""
        return self._trace

    def allocate_span_id(self):
        """A new process-unique span id under the trace context."""
        with self._lock:
            self._span_seq += 1
            sequence = self._span_seq
        return "%s-%d" % (self._trace.node, sequence)

    def current_span_id(self):
        """Id of the innermost open span on this thread.

        Falls back to the trace context's cross-process parent span
        when no span is open, so top-level events in a worker process
        attach under the shard span its supervisor allocated.
        """
        stack = self._stack()
        if stack:
            return stack[-1][1]
        return self._trace.span_id

    # -- span stack (per thread) -------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name, span_id):
        self._stack().append((name, span_id))

    def _pop(self):
        stack = self._stack()
        stack.pop()
        return len(stack)

    def current_span_name(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    # -- recording ---------------------------------------------------------

    def span(self, name, **attrs):
        """A timed context manager; a shared no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def _finish_span(self, span, depth, failed=False):
        self.record("span." + span.name, span.duration)
        if self.sink is not None:
            event = {"type": "span", "name": span.name,
                     "duration_s": span.duration, "depth": depth,
                     "trace_id": self._trace.trace_id,
                     "span_id": span.span_id,
                     "parent_span_id": span.parent_span_id}
            if failed:
                event["failed"] = True
            if span.attrs:
                event.update(span.attrs)
            self.sink.emit(event)

    def count(self, name, amount=1):
        """Add ``amount`` to the counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            counter.value += amount

    def record(self, name, value):
        """Record ``value`` into histogram ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            histogram.record(value)

    def event(self, name, **fields):
        """Emit a structured event to the sink (no-op when disabled)."""
        if not self.enabled or self.sink is None:
            return
        event = {"type": "event", "name": name,
                 "trace_id": self._trace.trace_id,
                 "parent_span_id": self.current_span_id()}
        event.update(fields)
        self.sink.emit(event)

    # -- introspection ------------------------------------------------------

    def counter_value(self, name):
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def histogram(self, name):
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self):
        """All aggregates as one JSON-serialisable dict."""
        with self._lock:
            return {
                "counters": {name: counter.value
                             for name, counter in self._counters.items()},
                "histograms": {name: histogram.to_dict()
                               for name, histogram
                               in self._histograms.items()},
            }

    def __repr__(self):
        return "Telemetry(enabled=%s, %d counters, %d histograms)" % (
            self.enabled, len(self._counters), len(self._histograms))


#: The process-wide registry.  Disabled by default: instrumentation in
#: the VM, predictors, and runner costs one attribute check per call
#: site until someone enables it.
TELEMETRY = Telemetry()
