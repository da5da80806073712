"""Cross-process trace propagation, the shard fold and the ledger.

Every enabled telemetry registry traces: its spans carry trace and
span ids.  This module carries a trace across the process boundary,
gathers the pieces into the run's one event log and accounts for the
run's time:

* a :class:`TraceContext` — a trace id plus the parent span id new
  top-level spans should attach under — travels *in the payload* the
  supervisor ships to each worker attempt (no ambient environment
  state, so two concurrent sweeps never cross wires);
* every worker attempt writes its own line-buffered JSONL **shard**
  in a private temporary directory of the supervisor's, so a killed
  attempt loses at most one partial line;
* when an attempt ends — ok, crash, hang or error alike —
  :func:`fold_shard` copies its shard into the supervisor's own sink,
  closes it with one synthetic ``supervisor.shard`` span and deletes
  it.  Spans whose parent never reached the shard (the attempt was
  killed mid-flight) are *adopted* by that shard span there, where
  their owner is known, so the log of a crashed sweep is complete;
* :func:`merge_trace` reads that one log (tolerating torn lines) and
  builds a :class:`TraceTree` in which every worker attempt parents
  under its shard span;
* :func:`fold_ledger` folds that tree into the run's per-layer ledger:
  calls and self seconds per span name, the time no span claims, and
  the counters of every process.  ``repro-branches metrics --replay``
  prints it.

The scripts/check.sh trace gate is a client of the merger and the
ledger; `docs/OBSERVABILITY.md <../../../docs/OBSERVABILITY.md>`_
shows a worked example.
"""

import os
import re
import time
from collections import Counter, defaultdict
from pathlib import Path

from repro.telemetry.sinks import read_jsonl_tolerant

#: Span-event name the supervisor emits once per worker attempt.
SHARD_SPAN = "supervisor.shard"

#: Span name a worker's child process wraps its whole attempt in.
ATTEMPT_SPAN = "worker.attempt"

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


class TraceContext:
    """Identity a process traces under: a trace id and a parent span.

    ``span_id`` is the *cross-process parent*: the id under which this
    process's top-level spans (and top-level events) attach.  It is
    None in the originating process — its top-level spans are the
    trace's roots — and the shard span id inside a worker attempt.

    ``node`` prefixes every span id this process allocates, keeping
    ids unique across the processes of one trace; it deliberately does
    **not** travel in :meth:`to_dict` — each receiving process derives
    its own from its pid.
    """

    __slots__ = ("trace_id", "span_id", "node")

    def __init__(self, trace_id, span_id=None, node=None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.node = node if node is not None else "p%d" % os.getpid()

    def to_dict(self):
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data):
        return cls(data["trace_id"], span_id=data.get("span_id"))

    def __repr__(self):
        return "TraceContext(%r, span_id=%r, node=%r)" % (
            self.trace_id, self.span_id, self.node)


def new_trace_id():
    """A fresh 16-hex-digit trace id (64 random bits)."""
    return os.urandom(8).hex()


def shard_filename(trace_id, label, attempt):
    """The shard file name for one worker attempt (filesystem-safe)."""
    return "shard-%s-%s-a%d.jsonl" % (
        trace_id, _UNSAFE.sub("_", str(label)), attempt)


def fold_shard(registry, span_id, label, attempt, status, duration,
               shard):
    """Copy an ended attempt's ``shard`` into ``registry``'s sink,
    close it with its ``supervisor.shard`` span, and delete it.

    Attempts overlap in time, so the supervisor allocates the shard
    span id up front (the child parents under it) and emits the span
    here, whatever the ``status``.  A span whose parent is not in the
    shard (the attempt was killed inside it) is re-parented on the
    shard span and marked ``adopted``; the torn lines skipped ride on
    the shard span as ``torn_lines``.
    """
    ended = time.time()
    events, torn = read_jsonl_tolerant(shard)
    known = {span_id}
    known.update(event.get("span_id") for event in events
                 if event.get("type") == "span")
    for event in events:
        if (event.get("type") == "span"
                and event.get("parent_span_id") not in known):
            event = dict(event, parent_span_id=span_id, adopted=True)
        registry.sink.emit(event)
    span = {"type": "span", "name": SHARD_SPAN, "duration_s": duration,
            "ts": ended, "depth": len(registry._stack()),
            "trace_id": registry.trace.trace_id, "span_id": span_id,
            "parent_span_id": registry.current_span_id(),
            "task": str(label), "attempt": attempt, "status": status}
    if torn:
        span["torn_lines"] = torn
    registry.sink.emit(span)
    Path(shard).unlink(missing_ok=True)


class TraceNode:
    """One span in a merged trace tree."""

    __slots__ = ("span_id", "name", "parent_span_id", "duration",
                 "ts", "attrs", "children", "events", "adopted")

    def __init__(self, span_id, name, parent_span_id, duration, ts,
                 attrs, adopted=False):
        self.span_id = span_id
        self.name = name
        self.parent_span_id = parent_span_id
        self.duration = duration
        self.ts = ts
        self.attrs = attrs
        self.children = []
        self.events = []
        self.adopted = adopted

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return "TraceNode(%r, %r, %d children)" % (
            self.span_id, self.name, len(self.children))


_SPAN_EVENT_META = frozenset((
    "type", "name", "duration_s", "depth", "ts", "trace_id",
    "span_id", "parent_span_id", "adopted"))


class TraceTree:
    """The stitched view of one trace across all its processes."""

    def __init__(self, trace_id, roots, orphans, torn_lines, nodes,
                 events):
        self.trace_id = trace_id
        self.roots = roots
        #: Spans whose parent id is absent from the log — a complete
        #: trace has none.
        self.orphans = orphans
        self.torn_lines = torn_lines
        self._nodes = nodes
        #: Every structured event of the trace, in timestamp order.
        self.events = events

    @property
    def complete(self):
        return not self.orphans

    @property
    def span_count(self):
        return len(self._nodes)

    def node(self, span_id):
        return self._nodes.get(span_id)

    def named(self, name):
        """All nodes with span name ``name``, in timestamp order."""
        found = [node for node in self._nodes.values()
                 if node.name == name]
        found.sort(key=lambda node: (node.ts, node.span_id))
        return found

    def attempts(self):
        """The worker-attempt nodes, one per attempt that ran code."""
        return self.named(ATTEMPT_SPAN)

    def shards(self):
        """The supervisor's per-attempt shard spans."""
        return self.named(SHARD_SPAN)

    def render(self):
        """Deterministic ASCII rendering of the tree."""
        lines = ["trace %s: %d spans, %d roots%s%s" % (
            self.trace_id, self.span_count, len(self.roots),
            ", %d ORPHANS" % len(self.orphans) if self.orphans else "",
            ", %d torn lines skipped" % self.torn_lines
            if self.torn_lines else "")]

        def emit(node, indent):
            extras = ["%s=%s" % (key, node.attrs[key])
                      for key in sorted(node.attrs)
                      if key in ("task", "attempt", "status",
                                 "benchmark", "failed")]
            lines.append("%s%s%s  %.3fs%s%s" % (
                "  " * indent, node.name,
                " [%s]" % " ".join(extras) if extras else "",
                node.duration,
                " (adopted)" if node.adopted else "",
                "  +%d events" % len(node.events)
                if node.events else ""))
            for child in node.children:
                emit(child, indent + 1)

        for root in self.roots:
            emit(root, 1)
        for orphan in self.orphans:
            lines.append("  ORPHAN %s (%s) parent=%s" % (
                orphan.name, orphan.span_id, orphan.parent_span_id))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "TraceTree(%r, %d spans, %d roots, %d orphans)" % (
            self.trace_id, self.span_count, len(self.roots),
            len(self.orphans))


def merge_trace(path, trace_id=None):
    """Stitch the spans of one event log into a :class:`TraceTree`.

    Args:
        path: the JSONL event log of a run, worker shards folded in.
        trace_id: restrict to this trace; default is the latest in
            the log, the one with the last ``ts`` (several runs may
            append to one log).

    Structured events attach to their parent node as annotations.  A
    span whose parent id is absent from the log is an orphan.  The
    tree's ``torn_lines`` counts the log's torn lines and those its
    shard spans report.
    """
    read, torn = read_jsonl_tolerant(path)
    read = [event for event in read if event.get("trace_id")]
    if trace_id is None and read:
        _, _, trace_id = max((event.get("ts", 0.0), order,
                              event["trace_id"])
                             for order, event in enumerate(read))
    read = [event for event in read if event["trace_id"] == trace_id]
    events = [event for event in read if event.get("type") == "event"]

    nodes = {}
    for event in read:
        if event.get("type") != "span":
            continue
        node = TraceNode(
            span_id=event["span_id"], name=event.get("name", "?"),
            parent_span_id=event.get("parent_span_id"),
            duration=event.get("duration_s", 0.0),
            ts=event.get("ts", 0.0),
            attrs={key: value for key, value in event.items()
                   if key not in _SPAN_EVENT_META},
            adopted=event.get("adopted", False))
        nodes[node.span_id] = node
        torn += node.attrs.get("torn_lines", 0)

    roots = []
    orphans = []
    for node in nodes.values():
        if node.parent_span_id is None:
            roots.append(node)
        elif node.parent_span_id in nodes:
            nodes[node.parent_span_id].children.append(node)
        else:
            orphans.append(node)

    events.sort(key=lambda item: item.get("ts", 0.0))
    for event in events:
        parent = nodes.get(event.get("parent_span_id"))
        if parent is not None:
            parent.events.append(event)

    for node in nodes.values():
        node.children.sort(key=lambda child: (child.ts, child.span_id))
    roots.sort(key=lambda node: (node.ts, node.span_id))
    orphans.sort(key=lambda node: (node.ts, node.span_id))
    return TraceTree(trace_id, roots, orphans, torn, nodes, events)


def _self_time(node):
    """``node``'s duration minus the union of its children's intervals
    (a span covers ``[ts - duration, ts]``), so overlapping children,
    such as parallel shard spans, count once."""
    end = node.ts
    reach = end - node.duration
    covered = 0.0
    for start, stop in sorted((child.ts - child.duration, child.ts)
                              for child in node.children):
        start, stop = max(start, reach), min(stop, end)
        if stop > start:
            covered += stop - start
            reach = stop
    return node.duration - covered


def fold_ledger(tree):
    """Where a traced run's time went: the per-layer ledger of ``tree``.

    ``layers`` maps each span name below a root (orphans and their
    subtrees included) to its ``(calls, self_s)``; ``wall_s`` and
    ``other_s`` are the roots' durations and self times, the time no
    span claims; ``counters`` sums the ``telemetry.snapshot`` events of
    every process.  Names sort, so a render is deterministic.
    """
    calls = Counter()
    self_s = defaultdict(float)
    below = [child for root in tree.roots for child in root.children]
    for top in below + tree.orphans:
        for node in top.walk():
            calls[node.name] += 1
            self_s[node.name] += _self_time(node)
    counters = Counter()
    for event in tree.events:
        if event.get("name") == "telemetry.snapshot":
            counters.update(event.get("counters") or {})
    return {
        "trace_id": tree.trace_id,
        "wall_s": sum(root.duration for root in tree.roots),
        "other_s": sum(_self_time(root) for root in tree.roots),
        "layers": {name: (calls[name], self_s[name])
                   for name in sorted(calls)},
        "counters": dict(sorted(counters.items())),
    }
