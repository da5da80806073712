"""Cross-process trace gate + disabled-telemetry overhead smoke.

Run by scripts/check.sh (``PYTHONPATH=src python scripts/trace_gate.py``).

Four properties this gate pins down:

1. **Trace completeness across the process boundary.**  A 2-worker
   supervised sweep runs with telemetry and tracing on — including a
   worker that dies mid-attempt and is retried — then the supervisor
   log and the per-attempt shards are merged.  The resulting tree must
   be complete (no orphan spans): every worker attempt parents under
   its ``supervisor.shard`` span, and spans from the killed attempt
   are adopted by their shard instead of dangling.  Two
   ``metrics --replay`` renders of the recorded shards must be
   byte-identical, and the ledger folded from them must sum the
   workers' counters.
2. **Conformance explains its own time.**  The ledger of a traced
   ``conformance --seeds 3 --skip-golden`` run shows the fuzzing, the
   oracle replay, the engine cross-check and the cycle check as spans
   of their own, and ``conformance.differential`` keeps at most a
   quarter of its inclusive time as self time.  (The shrinking span,
   ``conformance.shrink``, runs only after a divergence, so a passing
   run has none; the unit tests inject one.)
3. **The paper never leaves the fast VM.**  The ledger of a traced
   cold ``all --scale 0.02`` reads ``vm.fast_path_exits`` as zero: no
   run of the paper suite re-runs on the reference interpreter or
   recompiles (see :mod:`repro.vm.compiled`).
4. **The disabled path stays free.**  With telemetry off, ``span()``
   must return the shared ``NULL_SPAN`` and hot counter, span and
   event calls must allocate nothing (measured with tracemalloc
   filtered to the registry module) — the experiment pipeline pays
   one attribute check, not garbage.
"""

import contextlib
import io
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.resilience.supervisor import run_supervised  # noqa: E402
from repro.telemetry.core import NULL_SPAN, TELEMETRY  # noqa: E402
from repro.telemetry.sinks import JsonlSink  # noqa: E402
from repro.telemetry.tracing import fold_ledger, merge_trace  # noqa: E402


def _work(payload):
    """Gate worker: one completed span, then optionally die once."""
    label, crash_marker = payload
    with TELEMETRY.span("gate.compute", task=str(label)):
        total = sum(range(50_000))
        TELEMETRY.count("gate.compute")
    if crash_marker is not None and not Path(crash_marker).exists():
        Path(crash_marker).write_text("crashed once")
        os._exit(13)    # killed inside the open worker.attempt span
    return total


def trace_gate(tmp):
    log = tmp / "telemetry.jsonl"
    traces = tmp / "traces"
    marker = tmp / "crash-once.marker"
    tasks = [("t%d" % index, ("t%d" % index, None))
             for index in range(3)]
    tasks.append(("flaky", ("flaky", str(marker))))

    with JsonlSink(log) as sink:
        TELEMETRY.enable(sink)
        with TELEMETRY.span("gate.sweep"):
            report = run_supervised(tasks, _work, workers=2,
                                    retries=2, backoff=0.05,
                                    trace_dir=traces)
    TELEMETRY.disable().reset()

    assert report.ok, "sweep failed: %s" % report.render()
    assert "flaky" in report.retried, \
        "crash-once worker was not retried: %s" % report.render()

    tree = merge_trace([log, traces])
    assert tree.complete, "orphan spans in merged trace:\n%s" \
        % tree.render()
    shards = tree.shards()
    attempts = tree.attempts()
    assert len(shards) == 5, \
        "expected 5 shard spans (4 tasks + 1 retry), got %d" \
        % len(shards)
    shard_ids = {node.span_id for node in shards}
    assert attempts, "no worker.attempt spans survived the merge"
    for node in attempts:
        assert node.parent_span_id in shard_ids, \
            "attempt %s not parented under a shard span" % node.span_id
    assert any(node.adopted for root in tree.roots
               for node in root.walk()), \
        "killed attempt left no adopted spans (adoption path untested)"

    # The ledger must fold the shards deterministically, summing one
    # counter per successful attempt (the killed attempt never wrote
    # its snapshot).
    renders = set()
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exit_code = cli_main(["metrics", "--replay", str(traces)])
        assert exit_code == 0, "metrics --replay exited %d" % exit_code
        renders.add(out.getvalue())
    assert len(renders) == 1, "metrics --replay render is not deterministic"
    computed = fold_ledger(merge_trace(traces))["counters"].get(
        "gate.compute")
    assert computed == 4, \
        "ledger counts %r gate.compute, expected 4:\n%s" \
        % (computed, next(iter(renders)))

    print("trace gate: %d spans, %d shards, %d attempts, tree complete"
          % (tree.span_count, len(shards), len(attempts)))


#: Spans every passing conformance run records, one per kind of check.
CONFORMANCE_SPANS = ("conformance.fuzz", "conformance.replay",
                     "conformance.engine_check", "conformance.cycle_check")

#: The share of ``conformance.differential``'s time it may keep as
#: self time, time no check span claims.
DIFFERENTIAL_SELF_SHARE = 0.25


def conformance_gate(tmp):
    log = tmp / "conformance.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        exit_code = cli_main(["conformance", "--seeds", "3",
                              "--skip-golden", "--no-cache", "--telemetry",
                              "--telemetry-log", str(log)])
    assert exit_code == 0, "conformance failed:\n%s" % out.getvalue()
    tree = merge_trace(log)
    layers = fold_ledger(tree)["layers"]
    for name in CONFORMANCE_SPANS:
        calls, _ = layers.get(name, (0, 0.0))
        assert calls > 0, "the conformance ledger has no %s span" % name
    (differential,) = tree.named("conformance.differential")
    _, self_s = layers["conformance.differential"]
    share = self_s / differential.duration
    assert share <= DIFFERENTIAL_SELF_SHARE, \
        "conformance.differential keeps %.0f%% of its %.3fs as self " \
        "time (limit %.0f%%)" % (100 * share, differential.duration,
                                 100 * DIFFERENTIAL_SELF_SHARE)
    print("conformance gate: %s; differential self time %.0f%% of %.3fs"
          % (", ".join("%s %d" % (name, layers[name][0])
                       for name in CONFORMANCE_SPANS),
             100 * share, differential.duration))


def fast_path_gate(tmp):
    log = tmp / "all.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        exit_code = cli_main(["all", "--scale", "0.02", "--workers", "1",
                              "--no-cache", "--telemetry",
                              "--telemetry-log", str(log)])
    assert exit_code == 0, "all failed:\n%s" % out.getvalue()
    counters = fold_ledger(merge_trace(log))["counters"]
    runs = counters.get("vm.compiled_runs", 0)
    assert runs > 0, "the cold run made no compiled VM run"
    exits = {name: value for name, value in counters.items()
             if name.startswith("vm.fast_path_exits")}
    assert exits.get("vm.fast_path_exits") == 0, \
        "the paper suite left the fast VM, or the ledger does not " \
        "say: %s" % exits
    print("fast path gate: %d compiled runs, no exits" % runs)


def overhead_gate(iterations=2000):
    TELEMETRY.disable().reset()
    assert TELEMETRY.span("gate.hot") is NULL_SPAN, \
        "disabled span() must return the shared NULL_SPAN"

    from repro.telemetry import core

    def hot_loop():
        for _ in range(iterations):
            TELEMETRY.count("gate.hot")
            with TELEMETRY.span("gate.hot"):
                pass
            TELEMETRY.event("gate.hot")

    hot_loop()      # warm up attribute caches before measuring
    filters = [tracemalloc.Filter(True, core.__file__)]
    tracemalloc.start()
    before = tracemalloc.take_snapshot().filter_traces(filters)
    hot_loop()
    after = tracemalloc.take_snapshot().filter_traces(filters)
    tracemalloc.stop()
    grown = sum(stat.size_diff
                for stat in after.compare_to(before, "lineno"))
    assert grown <= 0, \
        "disabled-telemetry hot path allocated %d bytes over %d calls" \
        % (grown, iterations)
    print("overhead gate: disabled hot path allocation-free "
          "(%d iterations)" % iterations)


def main():
    with tempfile.TemporaryDirectory(prefix="trace-gate-") as tmp:
        try:
            trace_gate(Path(tmp))
            conformance_gate(Path(tmp))
            fast_path_gate(Path(tmp))
        finally:
            TELEMETRY.disable().reset()
    overhead_gate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
