"""Prometheus text-format exposition over the telemetry registry.

:func:`prometheus_text` renders a registry snapshot in the Prometheus
text exposition format (version 0.0.4): counters become ``_total``
counters, histograms become summaries with ``quantile`` labels from
the reservoir percentiles plus ``_sum``/``_count``.  Metric names are
sanitised (``runner.cache.hit`` -> ``repro_runner_cache_hit_total``).

``repro-branches metrics --replay <log>`` rebuilds a registry from a
recorded JSONL event log or a directory of shards (span durations
feed the histograms; the final ``telemetry.snapshot`` event each run
and worker attempt appends restores the counters) and prints the
exposition — scrape-by-cron over artifact logs.
"""

import re

_INVALID = re.compile(r"[^a-zA-Z0-9_]")

#: Reservoir percentiles exported as summary quantiles.
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def metric_name(name, prefix="repro"):
    """A Prometheus-safe metric name for a registry entry."""
    return "%s_%s" % (prefix, _INVALID.sub("_", name))


def prometheus_text(snapshot, prefix="repro"):
    """Render a ``Telemetry.snapshot()`` dict as exposition text."""
    lines = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = metric_name(name, prefix) + "_total"
        lines.append("# TYPE %s counter" % metric)
        lines.append("%s %s" % (metric, _format(value)))
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        metric = metric_name(name, prefix)
        lines.append("# TYPE %s summary" % metric)
        for quantile, key in _QUANTILES:
            value = data.get(key)
            if value is None:
                continue
            lines.append('%s{quantile="%s"} %s'
                         % (metric, quantile, _format(value)))
        lines.append("%s_sum %s" % (metric, _format(data["total"])))
        lines.append("%s_count %d" % (metric, data["count"]))
    return "\n".join(lines) + "\n" if lines else ""


def _format(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def replay_into(registry, events):
    """Rebuild registry aggregates from a recorded event log.

    Span events feed the ``span.<name>`` duration histograms exactly
    as live spans would; ``telemetry.snapshot`` events (the counter
    dump every traced run and worker attempt appends on exit) restore
    counters, summing across processes.  Returns the registry.
    """
    for event in events:
        kind = event.get("type")
        if kind == "span":
            registry.record("span." + event.get("name", "?"),
                            event.get("duration_s", 0.0))
        elif (kind == "event"
              and event.get("name") == "telemetry.snapshot"):
            for counter, value in (event.get("counters") or {}).items():
                registry.count(counter, value)
    return registry

