"""Supervised parallel execution: timeouts, retries, typed reports.

The old warm path (``pool.map`` over a ``ProcessPoolExecutor``) had
exactly one failure mode: any worker exception — or a single hung
benchmark — killed the whole campaign.  :func:`run_supervised`
replaces it with one supervised ``multiprocessing.Process`` per task:

* **per-task timeout** — a hung worker is killed, not waited on;
* **bounded retries with jittered backoff** — transient deaths
  (OOM-kills, injected crashes) are retried up to ``retries`` times,
  sleeping ``backoff * 2**attempt`` seconds perturbed by a seeded
  jitter so restarted siblings do not stampede;
* **partial-failure collection** — the returned :class:`RunReport`
  says per task whether it succeeded, succeeded after retries, or
  failed for good, with the last error message attached;
* **graceful degradation** — a failure to even spawn workers (or a
  report full of failures) never raises; callers fall back to serial
  in-process recompute with the report explaining why.

Workers are plain picklable callables.  The child wrapper re-arms the
fault injector from the environment and announces the attempt number
(``FAULTS.on_worker_start``), which is how the recovery matrix crashes
or hangs a chosen attempt deterministically.

When telemetry is enabled with a sink, the run is **traced across
the process boundary** (see :mod:`repro.telemetry.tracing`): each
attempt receives a :class:`~repro.telemetry.tracing.TraceContext` in
its spawn payload and writes its spans/events to a JSONL shard in the
run's private temporary directory; once the attempt ends (retries and
kills included) the supervisor folds the shard into its own sink
under one ``supervisor.shard`` span, next to ``supervisor.start``/
``supervisor.done`` and ``worker.spawn`` events.
"""

import multiprocessing
import multiprocessing.connection
import random
import shutil
import tempfile
import time
from pathlib import Path

from repro.telemetry.core import TELEMETRY

#: Exit code the child wrapper uses for an exception escaping the
#: worker callable (distinct from a raw crash's signal exit).
_WORKER_ERROR_EXIT = 11


class TaskOutcome:
    """The supervised life of one task."""

    __slots__ = ("name", "status", "attempts", "seconds", "error")

    def __init__(self, name, status, attempts, seconds, error=None):
        self.name = name
        self.status = status          # "ok" | "failed"
        self.attempts = attempts
        self.seconds = seconds
        self.error = error

    @property
    def ok(self):
        return self.status == "ok"

    @property
    def retried(self):
        return self.attempts > 1

    def to_dict(self):
        return {"name": self.name, "status": self.status,
                "attempts": self.attempts,
                "seconds": round(self.seconds, 4), "error": self.error}

    def __repr__(self):
        return "TaskOutcome(%r, %s, attempts=%d)" % (
            self.name, self.status, self.attempts)


class RunReport:
    """Typed result of a supervised run: who succeeded, retried, failed."""

    def __init__(self, outcomes=None, degraded=False):
        self.outcomes = list(outcomes or [])
        #: True when supervision itself was impossible (no workers
        #: could be spawned) and the caller should recompute serially.
        self.degraded = degraded

    @property
    def succeeded(self):
        return [outcome.name for outcome in self.outcomes if outcome.ok]

    @property
    def retried(self):
        return [outcome.name for outcome in self.outcomes
                if outcome.ok and outcome.retried]

    @property
    def failed(self):
        return [outcome.name for outcome in self.outcomes
                if not outcome.ok]

    @property
    def ok(self):
        return not self.failed and not self.degraded

    def outcome(self, name):
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        return None

    def to_dict(self):
        return {"degraded": self.degraded,
                "outcomes": [outcome.to_dict()
                             for outcome in self.outcomes]}

    def render(self):
        parts = ["%d succeeded" % len(self.succeeded)]
        if self.retried:
            parts.append("%d after retries (%s)"
                         % (len(self.retried), ", ".join(self.retried)))
        if self.failed:
            parts.append("%d failed (%s)"
                         % (len(self.failed), ", ".join(self.failed)))
        if self.degraded:
            parts.append("degraded to serial")
        return "; ".join(parts)

    def __repr__(self):
        return "RunReport(%s)" % self.render()


def _child_main(worker, payload, label, attempt, queue, trace=None):
    """Worker-process entry: arm faults, run, report via the queue.

    With a ``trace`` payload (trace id, shard span id, shard path) the
    child's telemetry registry is re-pointed at its own line-buffered
    JSONL shard — dropping whatever sink and aggregates it inherited
    from the parent — so worker spans and counters survive the process
    boundary instead of vanishing (or racing the parent's log).  The
    whole attempt runs under a ``worker.attempt`` span parented on the
    shard span, and a final ``telemetry.snapshot`` event carries the
    child's counters out for cross-process aggregation.
    """
    from repro.resilience.faults import FAULTS

    sink = None
    if trace is not None:
        from repro.telemetry.sinks import JsonlSink
        from repro.telemetry.tracing import TraceContext

        TELEMETRY.reset()       # drop the sink inherited across fork
        sink = JsonlSink(trace["shard"])
        TELEMETRY.enable(sink)
        TELEMETRY.set_trace_context(TraceContext.from_dict(trace))
    FAULTS.activate_from_env()
    if FAULTS.enabled:
        FAULTS.on_worker_start(label, attempt)
    try:
        if trace is not None:
            with TELEMETRY.span("worker.attempt", task=str(label),
                                attempt=attempt):
                result = worker(payload)
        else:
            result = worker(payload)
    except BaseException as error:
        try:
            queue.put(("error", "%s: %s" % (type(error).__name__,
                                            error)))
        except Exception:
            pass
        raise SystemExit(_WORKER_ERROR_EXIT) from error
    finally:
        if sink is not None:
            TELEMETRY.event(
                "telemetry.snapshot", task=str(label), attempt=attempt,
                counters=TELEMETRY.snapshot()["counters"])
            TELEMETRY.disable()
            sink.close()
    queue.put(("ok", result))


class Attempt:
    """One in-flight supervised process running ``worker(payload)``.

    :func:`run_supervised` is the only scheduler of these.
    """

    __slots__ = ("label", "payload", "attempt", "process", "queue",
                 "deadline", "started", "trace")

    def __init__(self, context, worker, label, payload, attempt,
                 timeout, trace=None):
        self.label = label
        self.payload = payload
        self.attempt = attempt
        self.trace = trace
        self.queue = context.SimpleQueue()
        self.process = context.Process(
            target=_child_main,
            args=(worker, payload, label, attempt, self.queue, trace),
            daemon=True)
        self.started = time.monotonic()
        self.process.start()
        self.deadline = (self.started + timeout
                         if timeout is not None else None)

    @property
    def timed_out(self):
        return (self.deadline is not None
                and time.monotonic() >= self.deadline)

    def finish(self):
        """(status, detail) once the process has exited.

        ``("ok", value)`` carries the worker's return value;
        ``("error", message)`` an exception that escaped it;
        ``("crash", message)`` a process that died without reporting.
        The queue is read only after the child exits, so the value must
        fit in the pipe buffer (a few KiB: a name or a stats dict).
        """
        self.process.join()
        message = None
        if not self.queue.empty():
            try:
                message = self.queue.get()
            except Exception:
                message = None
        if message is not None and message[0] in ("ok", "error"):
            return message
        code = self.process.exitcode
        return "crash", "worker exited with code %r" % (code,)

    def kill(self):
        if self.process.is_alive():
            self.process.kill()
        self.process.join()


def backoff_seconds(backoff, attempt, rng):
    """Exponential backoff with +-50% seeded jitter."""
    return backoff * (2 ** (attempt - 1)) * (0.5 + rng.random())


def _wait_for_change(active, pending, workers):
    """Block until an active attempt exits, reaches its deadline, or
    the next pending task's backoff ends, whichever comes first."""
    wakes = [item.deadline for item in active
             if item.deadline is not None]
    if pending and len(active) < max(1, workers):
        wakes.append(pending[0][3])
    timeout = (max(0.0, min(wakes) - time.monotonic()) if wakes
               else None)
    multiprocessing.connection.wait(
        [item.process.sentinel for item in active], timeout)


def run_supervised(tasks, worker, *, workers=2, timeout=None,
                   retries=2, backoff=0.1, seed=0):
    """Run ``worker(payload)`` for every task under supervision.

    Args:
        tasks: iterable of ``(label, payload)`` pairs (or bare labels,
            in which case the label is also the payload).
        worker: picklable callable executed in a child process.
        workers: maximum concurrently supervised processes.
        timeout: per-attempt wall-clock seconds; a worker past it is
            killed and the attempt counts as a hang (None = no limit).
        retries: extra attempts after the first failure.
        backoff: base of the jittered exponential backoff sleep.
        seed: seeds the backoff jitter (determinism for tests).

    Returns a :class:`RunReport`; never raises for task failures.
    """
    normalized = [task if isinstance(task, tuple) else (task, task)
                  for task in tasks]
    rng = random.Random(seed)
    context = multiprocessing.get_context()
    pending = [(label, payload, 1, 0.0)
               for label, payload in normalized]
    active = []
    results = {}
    degraded = False

    shard_dir = None
    if TELEMETRY.enabled and TELEMETRY.sink is not None:
        shard_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
        TELEMETRY.event("supervisor.start", tasks=len(normalized),
                        workers=workers)

    def _spawn(label, payload, attempt):
        trace = None
        if shard_dir is not None:
            from repro.telemetry.tracing import shard_filename

            trace_id = TELEMETRY.trace.trace_id
            trace = {"trace_id": trace_id,
                     "span_id": TELEMETRY.allocate_span_id(),
                     "shard": str(shard_dir / shard_filename(
                         trace_id, label, attempt))}
            TELEMETRY.event("worker.spawn", task=str(label),
                            attempt=attempt,
                            shard_span_id=trace["span_id"])
        return Attempt(context, worker, label, payload, attempt,
                       timeout, trace=trace)

    def _fold(item, status, elapsed):
        if item.trace is not None:
            from repro.telemetry.tracing import fold_shard

            fold_shard(TELEMETRY, item.trace["span_id"], item.label,
                       item.attempt, status, elapsed,
                       item.trace["shard"])

    try:
        while pending or active:
            while pending and len(active) < max(1, workers):
                label, payload, attempt, not_before = pending[0]
                if not_before > time.monotonic():
                    break
                pending.pop(0)
                active.append(_spawn(label, payload, attempt))
            _wait_for_change(active, pending, workers)
            still_running = []
            for item in active:
                if item.process.is_alive() and not item.timed_out:
                    still_running.append(item)
                    continue
                if item.process.is_alive():        # hung: kill it
                    item.kill()
                    status, detail = ("hang",
                                      "timed out after %.1fs"
                                      % timeout)
                else:
                    status, detail = item.finish()
                elapsed = time.monotonic() - item.started
                _fold(item, status, elapsed)
                previous = results.get(item.label)
                seconds = (previous.seconds if previous else 0.0) \
                    + elapsed
                if status == "ok":
                    results[item.label] = TaskOutcome(
                        item.label, "ok", item.attempt, seconds)
                    continue
                TELEMETRY.count("supervisor.worker_failures")
                if item.attempt <= retries:
                    delay = backoff_seconds(backoff, item.attempt,
                                            rng)
                    TELEMETRY.event("worker.retry", task=item.label,
                                    attempt=item.attempt,
                                    reason=status, detail=detail,
                                    backoff_s=round(delay, 3))
                    results[item.label] = TaskOutcome(
                        item.label, "failed", item.attempt, seconds,
                        error=detail)
                    pending.append((item.label, item.payload,
                                    item.attempt + 1,
                                    time.monotonic() + delay))
                else:
                    TELEMETRY.event("worker.failed", task=item.label,
                                    attempts=item.attempt,
                                    reason=status, detail=detail)
                    results[item.label] = TaskOutcome(
                        item.label, "failed", item.attempt, seconds,
                        error=detail)
            active = still_running
    except OSError as error:
        # Could not even spawn processes (fd/pid exhaustion): kill
        # what run, report degradation, let the caller go serial.
        for item in active:
            item.kill()
        TELEMETRY.event("worker.degraded", reason=str(error))
        for label, _payload in normalized:
            results.setdefault(label, TaskOutcome(
                label, "failed", 0, 0.0, error=str(error)))
        degraded = True
    finally:
        if shard_dir is not None:
            shutil.rmtree(shard_dir, ignore_errors=True)

    report = RunReport([results[label]
                        for label, _payload in normalized
                        if label in results], degraded=degraded)
    TELEMETRY.event("supervisor.done", succeeded=len(report.succeeded),
                    failed=len(report.failed), degraded=degraded)
    return report
