"""Longitudinal perf history: BENCH_history.jsonl and its report.

The committed ``BENCH_kernels.json`` baseline says "what is it now",
not "when did it get slow".  This module keeps a **trajectory**:
:func:`append_record` appends one record (git sha, UTC timestamp,
bench scale, and a flat ``metric -> rate`` dict) to an append-only
``BENCH_history.jsonl`` at the repo root, and
``repro-branches bench-history`` reports the latest record against a
**rolling-median baseline** over the preceding window, flagging any
rate that dropped more than the threshold (default 20%) below its
median.  All recorded metrics are rates or speedups, so "higher is
better" holds uniformly and a drop is always a regression.

The file is JSONL on purpose: appends are atomic at the line level,
two concurrent gate runs interleave instead of clobbering, and a torn
trailing line (killed gate) is skipped by the tolerant reader rather
than poisoning the history.
"""

import datetime
import json
from pathlib import Path

from repro.telemetry.sinks import read_jsonl_tolerant

HISTORY_SCHEMA = 1

HISTORY_FILENAME = "BENCH_history.jsonl"

#: Fractional drop below the rolling median that flags a regression.
DEFAULT_THRESHOLD = 0.2

#: Records of rolling history the baseline median is computed over.
DEFAULT_WINDOW = 8

#: Baselines need at least this many prior observations of a metric;
#: below it the median is too noisy to flag against.
MIN_BASELINE = 3


def history_path(root):
    return Path(root) / HISTORY_FILENAME


def append_record(path, metrics, git_sha=None, scale=None, ts=None):
    """Append one history record; returns the record dict.

    The write is a single ``O_APPEND`` line, so concurrent gate runs
    interleave whole records rather than tearing each other.
    """
    record = {
        "schema": HISTORY_SCHEMA,
        "ts": ts if ts is not None else datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha,
        "scale": scale,
        "metrics": dict(metrics),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(path):
    """All parseable records, oldest first; torn lines are skipped."""
    events, _torn = read_jsonl_tolerant(path)
    return [event for event in events
            if isinstance(event.get("metrics"), dict)]


def rolling_baseline(records, metric, window=DEFAULT_WINDOW):
    """Median of the metric over the last ``window`` records."""
    records = records[-window:]
    values = sorted(record["metrics"][metric] for record in records
                    if metric in record["metrics"]
                    and isinstance(record["metrics"][metric],
                                   (int, float)))
    if not values:
        return None
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2.0


def find_regressions(records, threshold=DEFAULT_THRESHOLD,
                     window=DEFAULT_WINDOW):
    """Regressions of the latest record against its rolling baseline.

    For every metric in the newest record with at least
    ``MIN_BASELINE`` observations in the preceding ``window`` records,
    compare against the median of those observations; a drop of more
    than ``threshold`` (fractional) is flagged.  Returns a list of
    dicts sorted by severity (largest drop first).
    """
    if len(records) < 2:
        return []
    latest = records[-1]
    baseline_window = records[-1 - window:-1]
    flagged = []
    for metric, value in sorted(latest["metrics"].items()):
        if not isinstance(value, (int, float)):
            continue
        observed = [record["metrics"][metric]
                    for record in baseline_window
                    if isinstance(record["metrics"].get(metric),
                                  (int, float))]
        if len(observed) < MIN_BASELINE:
            continue
        baseline = rolling_baseline(baseline_window, metric,
                                    window=window)
        if not baseline or baseline <= 0:
            continue
        drop = 1.0 - (value / baseline)
        if drop > threshold:
            flagged.append({"metric": metric, "baseline": baseline,
                            "latest": value, "drop": drop})
    flagged.sort(key=lambda item: -item["drop"])
    return flagged


def render_history(records, threshold=DEFAULT_THRESHOLD,
                   window=DEFAULT_WINDOW, limit=25):
    """(report text, regressions) for ``bench-history``."""
    if not records:
        return ("no benchmark history yet (run the benchmark gates "
                "to append to %s)\n" % HISTORY_FILENAME), []
    latest = records[-1]
    regressions = find_regressions(records, threshold=threshold,
                                   window=window)
    lines = ["bench history: %d record%s, latest %s (git %s)"
             % (len(records), "" if len(records) == 1 else "s",
                latest.get("ts", "?"),
                (latest.get("git_sha") or "unknown")[:12])]
    baseline_window = records[-1 - window:-1]
    lines.append("%-44s %12s %12s %7s" % ("metric", "baseline",
                                          "latest", "delta"))
    shown = 0
    flagged_names = {item["metric"] for item in regressions}
    for metric, value in sorted(latest["metrics"].items()):
        if shown >= limit:
            lines.append("... %d more metrics"
                         % (len(latest["metrics"]) - shown))
            break
        shown += 1
        baseline = rolling_baseline(baseline_window, metric,
                                    window=window)
        if not isinstance(value, (int, float)) or not baseline:
            lines.append("%-44s %12s %12s %7s"
                         % (metric, "-", _rate(value), "-"))
            continue
        delta = 100.0 * (value / baseline - 1.0)
        lines.append("%-44s %12s %12s %+6.1f%%%s"
                     % (metric, _rate(baseline), _rate(value), delta,
                        "  REGRESSION" if metric in flagged_names
                        else ""))
    for item in regressions:
        lines.append("REGRESSION: %s dropped %.0f%% below its "
                     "rolling median (%s -> %s; threshold %.0f%%)"
                     % (item["metric"], 100.0 * item["drop"],
                        _rate(item["baseline"]), _rate(item["latest"]),
                        100.0 * threshold))
    if not regressions:
        lines.append("no regressions against the rolling-median "
                     "baseline (threshold %.0f%%, window %d)"
                     % (100.0 * threshold, window))
    return "\n".join(lines) + "\n", regressions


def _rate(value):
    if not isinstance(value, (int, float)):
        return str(value)
    if value >= 1000:
        return "%.3g" % value
    return "%.3f" % value
