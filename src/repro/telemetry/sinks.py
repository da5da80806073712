"""Event sinks for the telemetry registry.

Two implementations cover the two consumers:

* :class:`InMemoryAggregator` keeps events in a list — tests and the
  ``profile`` CLI subcommand inspect it directly;
* :class:`JsonlSink` appends one JSON object per line to an event log —
  the durable record a run manifest points at.

Sinks receive plain dicts (already carrying ``type``/``name``) and
stamp a wall-clock ``ts`` so logs from different stages interleave
meaningfully.
"""

import json
import threading
import time


class Sink:
    """Event consumer protocol.

    Sinks are context managers: ``with JsonlSink(path) as sink: ...``
    guarantees :meth:`close` runs however the block exits, which is
    how the CLI and worker children register cleanup.
    """

    def emit(self, event):
        raise NotImplementedError

    def flush(self):
        """Push buffered events to durable storage (no-op by default)."""

    def close(self):
        """Flush and release resources (no-op by default)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False


class InMemoryAggregator(Sink):
    """Collects events in memory; the test and `profile` sink."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []

    def emit(self, event):
        with self._lock:
            self.events.append(dict(event))

    def named(self, name):
        """All events with the given ``name``, in emission order."""
        with self._lock:
            return [event for event in self.events
                    if event.get("name") == name]

    def of_type(self, event_type):
        with self._lock:
            return [event for event in self.events
                    if event.get("type") == event_type]

    def clear(self):
        with self._lock:
            self.events = []

    def __len__(self):
        with self._lock:
            return len(self.events)

    def __repr__(self):
        return "InMemoryAggregator(%d events)" % len(self)


class JsonlSink(Sink):
    """Appends events to a JSON-lines file, one object per line.

    The file is opened lazily on the first event (so enabling telemetry
    without emitting anything leaves no empty file) and parent
    directories are created as needed.

    The sink is crash-safe: the file is opened **line-buffered**, so
    every complete event reaches the OS as soon as its line is
    written, and span events additionally :meth:`flush` explicitly on
    emission.  A worker SIGKILLed mid-write therefore loses at most
    the one partial trailing line, which
    :func:`read_jsonl_tolerant` (and the shard merger built on it)
    skips instead of crashing on.
    """

    def __init__(self, path):
        from pathlib import Path

        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None

    def emit(self, event):
        line = json.dumps(dict(event, ts=time.time()), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", buffering=1)
            self._handle.write(line + "\n")
            if event.get("type") == "span":
                self._handle.flush()

    def flush(self):
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __repr__(self):
        return "JsonlSink(%r)" % str(self.path)


def read_jsonl_tolerant(path):
    """Parse an event log, skipping torn lines.

    Returns ``(events, torn)``: the events that parsed, and the number
    of lines that did not — a killed writer leaves at most one partial
    trailing line, but the reader tolerates damage anywhere so a
    merged view over many shards never dies on one bad shard.
    A missing file reads as empty (a worker may have been killed
    before its lazily-opened shard ever existed).
    """
    events = []
    torn = 0
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return events, torn
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            torn += 1
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            torn += 1
    return events, torn
