"""Cross-process trace propagation, the shard merger and the ledger.

Every enabled telemetry registry traces: its spans carry trace and
span ids.  This module carries a trace across the process boundary,
stitches the pieces back together and accounts for the run's time:

* a :class:`TraceContext` — a trace id plus the parent span id new
  top-level spans should attach under — travels *in the payload* the
  supervisor ships to each worker attempt (no ambient environment
  state, so two concurrent sweeps never cross wires);
* every worker attempt writes its own JSONL **shard** next to the
  trace cache (``<cache>/traces/shard-<trace>-<task>-aN.jsonl``),
  line-buffered so a killed attempt loses at most one partial line;
* the supervisor emits one synthetic ``supervisor.shard`` span per
  attempt — retries and timeouts included — naming the shard file it
  owns;
* :func:`merge_trace` reads the supervisor's own event log plus all
  shards (tolerating torn trailing lines) and builds a
  :class:`TraceTree` in which every worker attempt parents under its
  shard span.  Spans whose parent never made it to disk (the attempt
  was killed mid-flight) are *adopted* by their shard span rather
  than dropped, so a tree over a crashed sweep is still complete;
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
import uuid
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
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def shard_filename(trace_id, label, attempt):
    """The shard file name for one worker attempt (filesystem-safe)."""
    return "shard-%s-%s-a%d.jsonl" % (
        trace_id, _UNSAFE.sub("_", str(label)), attempt)


def shard_path(trace_dir, trace_id, label, attempt):
    return Path(trace_dir) / shard_filename(trace_id, label, attempt)


def emit_shard_span(registry, span_id, label, attempt, status,
                    duration, shard):
    """Emit the synthetic span covering one worker attempt's shard.

    Attempts overlap in time, so the supervisor cannot model them with
    the thread-stack span API; instead it allocates the id up front
    (the child parents under it) and emits the completed span event
    directly once the attempt resolves — ok, crash, hang, or error
    alike, so a trace accounts for every attempt that ever started.
    """
    if not registry.enabled or registry.sink is None:
        return
    registry.sink.emit({
        "type": "span", "name": SHARD_SPAN, "duration_s": duration,
        "depth": len(registry._stack()),
        "trace_id": registry.trace.trace_id,
        "span_id": span_id,
        "parent_span_id": registry.current_span_id(),
        "task": str(label), "attempt": attempt, "status": status,
        "shard": shard,
    })


class TraceNode:
    """One span in a merged trace tree."""

    __slots__ = ("span_id", "name", "parent_span_id", "duration",
                 "ts", "attrs", "children", "events", "adopted",
                 "source")

    def __init__(self, span_id, name, parent_span_id, duration, ts,
                 attrs, source):
        self.span_id = span_id
        self.name = name
        self.parent_span_id = parent_span_id
        self.duration = duration
        self.ts = ts
        self.attrs = attrs
        self.children = []
        self.events = []
        self.adopted = False
        self.source = source

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return "TraceNode(%r, %r, %d children)" % (
            self.span_id, self.name, len(self.children))


_SPAN_EVENT_META = frozenset((
    "type", "name", "duration_s", "depth", "ts", "trace_id",
    "span_id", "parent_span_id"))


class TraceTree:
    """The stitched view of one trace across all its processes."""

    def __init__(self, trace_id, roots, orphans, torn_lines, nodes,
                 events):
        self.trace_id = trace_id
        self.roots = roots
        #: Spans whose parent id is unknown *and* that could not be
        #: adopted by a shard span — a complete trace has none.
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


def jsonl_files(paths):
    """The event-log files ``paths`` names, in read order.

    ``paths`` is one path or a list/tuple of them; a directory expands
    to every ``*.jsonl`` file beneath it sorted by path (a cache
    directory's log and ``traces/`` shards), a file stands for itself.
    """
    files = []
    for path in (paths if isinstance(paths, (list, tuple)) else [paths]):
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.jsonl")))
        else:
            files.append(path)
    return files


def merge_trace(paths, trace_id=None):
    """Stitch span shards into one :class:`TraceTree`.

    Args:
        paths: JSONL files to merge — the supervisor's own event log
            plus the attempt shards (or a directory, which merges
            every ``*.jsonl`` beneath it).
        trace_id: restrict to this trace; default is the latest in
            the files, the one with the last ``ts`` (several runs may
            append to one log).

    Structured events attach to their parent node as annotations.  A
    span whose parent id is absent from the merged set is adopted by
    the shard span owning its file when that is known (the attempt was
    killed before its root span closed), and is an orphan otherwise.
    """
    torn_total = 0
    read = []
    for path in jsonl_files(paths):
        events, torn = read_jsonl_tolerant(path)
        torn_total += torn
        read += [(event, path.name) for event in events
                 if event.get("trace_id")]
    if trace_id is None and read:
        _, _, trace_id = max((event.get("ts", 0.0), order,
                              event["trace_id"])
                             for order, (event, _) in enumerate(read))
    read = [item for item in read if item[0]["trace_id"] == trace_id]
    spans = [item for item in read if item[0].get("type") == "span"]
    events = [event for event, _ in read if event.get("type") == "event"]

    nodes = {}
    shard_owner = {}            # shard file name -> shard span id
    for event, source in spans:
        node = TraceNode(
            span_id=event["span_id"], name=event.get("name", "?"),
            parent_span_id=event.get("parent_span_id"),
            duration=event.get("duration_s", 0.0),
            ts=event.get("ts", 0.0),
            attrs={key: value for key, value in event.items()
                   if key not in _SPAN_EVENT_META},
            source=source)
        nodes[node.span_id] = node
        if node.name == SHARD_SPAN and "shard" in node.attrs:
            shard_owner[node.attrs["shard"]] = node.span_id

    roots = []
    orphans = []
    for node in nodes.values():
        if node.parent_span_id is None:
            roots.append(node)
            continue
        parent = nodes.get(node.parent_span_id)
        if parent is None:
            adopter = shard_owner.get(node.source)
            if adopter is not None and adopter != node.span_id:
                node.adopted = True
                nodes[adopter].children.append(node)
            else:
                orphans.append(node)
            continue
        parent.children.append(node)

    events.sort(key=lambda item: item.get("ts", 0.0))
    for event in events:
        parent = nodes.get(event.get("parent_span_id"))
        if parent is not None:
            parent.events.append(event)

    for node in nodes.values():
        node.children.sort(key=lambda child: (child.ts, child.span_id))
    roots.sort(key=lambda node: (node.ts, node.span_id))
    orphans.sort(key=lambda node: (node.ts, node.span_id))
    return TraceTree(trace_id, roots, orphans, torn_total, nodes, events)


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
