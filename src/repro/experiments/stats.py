"""Observability reports: ``stats``, ``profile``, and ``cache``.

Three CLI-facing renderers built on :mod:`repro.telemetry`:

* :func:`render_stats` — the mispredict attribution report: per-scheme,
  per-static-site prediction accuracy ranked worst-first with source
  lines (``repro-branches stats <benchmark>``; ``--json`` for the
  machine-readable payload);
* :func:`render_profile` — per-stage wall-clock and throughput for a
  benchmark run, read from the run manifest and the live telemetry
  registry (``repro-branches profile <benchmark>``);
* :func:`render_cache` — the trace-cache inventory with artifact sizes
  and manifest provenance (``repro-branches cache``).
"""

import json

from repro.telemetry.attribution import (
    attribution_report,
    render_attribution,
)
from repro.telemetry.core import TELEMETRY


def _target_names(names):
    """The benchmarks a site-level report covers (default: wc)."""
    return list(names) if names else ["wc"]


def render_stats(runner, names=None, limit=25, as_json=False):
    """Mispredict attribution for one (or several) benchmarks.

    With ``--telemetry --json`` the payload is wrapped with the live
    registry snapshot, whose histograms carry the reservoir
    percentiles (p50/p95/p99) — plain ``--json`` keeps the bare
    attribution shape.
    """
    payloads = [attribution_report(runner.run(name))
                for name in _target_names(names)]
    if as_json:
        data = payloads[0] if len(payloads) == 1 else payloads
        if TELEMETRY.enabled:
            data = {"report": data, "telemetry": TELEMETRY.snapshot()}
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return "\n".join(render_attribution(payload, limit=limit)
                     for payload in payloads)


def _format_bytes(size):
    for unit in ("B", "KiB", "MiB"):
        if size < 1024 or unit == "MiB":
            return ("%d %s" % (size, unit) if unit == "B"
                    else "%.1f %s" % (size, unit))
        size /= 1024.0
    return "%d B" % size  # pragma: no cover - loop always returns


def render_cache(cache_dir=None, as_json=False):
    """Inventory of cached artifacts with manifest metadata.

    Tolerates a damaged cache directory: entries whose manifest is
    malformed or missing are listed with their ``status`` instead of
    crashing the listing, and quarantined ``*.corrupt`` artifacts are
    counted in the footer.
    """
    from repro.experiments.runner import default_cache_dir, list_cache_entries
    from repro.resilience.store import list_quarantined

    entries = list_cache_entries(cache_dir)
    quarantined = list_quarantined(cache_dir or default_cache_dir())
    if as_json:
        payload = {
            "entries": [dict(entry,
                             manifest=(entry["manifest"].to_dict()
                                       if entry["manifest"] else None))
                        for entry in entries],
            "quarantined": [str(path) for path in quarantined],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not entries and not quarantined:
        return "trace cache is empty\n"
    lines = ["%-42s %10s %4s  %-10s %s"
             % ("cache entry", "size", "ver", "created", "run")]
    total = 0
    for entry in entries:
        total += entry["size_bytes"]
        manifest = entry["manifest"]
        created = ""
        run_summary = "(%s)" % entry["status"] \
            if entry["status"] != "ok" else "(no manifest)"
        if manifest is not None:
            created = (manifest.created or "")[:10]
            sha = (manifest.git_sha or "")[:8] or "no-git"
            run_summary = "scale %s, %s runs, %.2fs, %s" % (
                manifest.config.get("scale", "?"),
                manifest.config.get("runs", "?"),
                manifest.total_stage_seconds, sha)
            if entry["status"] != "ok":
                run_summary = "(%s) %s" % (entry["status"], run_summary)
        version = ("v%d" % entry["format_version"]
                   if entry["format_version"] is not None else "?")
        if not entry["current"]:
            version += "!"
        lines.append("%-42s %10s %4s  %-10s %s" % (
            entry["stem"], _format_bytes(entry["size_bytes"]), version,
            created, run_summary))
    footer = ("%d entr%s, %s total ('!' marks stale format versions)"
              % (len(entries), "y" if len(entries) == 1 else "ies",
                 _format_bytes(total)))
    if quarantined:
        footer += ", %d quarantined artifact%s" % (
            len(quarantined), "" if len(quarantined) == 1 else "s")
    lines.append(footer)
    return "\n".join(lines) + "\n"


def render_profile(runner, names=None):
    """Per-stage wall-clock of benchmark runs, plus live counters.

    Forces the run (cached stages are near-zero and say so), then
    reports the manifest's stage seconds; when the telemetry registry
    is enabled its span histograms and counters are appended, covering
    prediction/expansion work the manifest does not time.
    """
    lines = []
    for name in _target_names(names):
        run = runner.run(name)
        run.predictions()
        run.expansions()
        lines.append("profile of %s (scale %s, %d runs)"
                     % (name, run.scale, run.runs))
        manifest = run.manifest
        if manifest is None or not manifest.stages:
            lines.append("  (no stage timings: caching disabled)")
        else:
            total = manifest.total_stage_seconds
            for stage, seconds in sorted(manifest.stages.items(),
                                         key=lambda item: -item[1]):
                share = 100.0 * seconds / total if total else 0.0
                lines.append("  %-12s %9.4fs  %5.1f%%"
                             % (stage, seconds, share))
            lines.append("  %-12s %9.4fs" % ("total", total))
            if manifest.event_log:
                lines.append("  event log: %s" % manifest.event_log)
        lines.append("")

    if TELEMETRY.enabled:
        snapshot = TELEMETRY.snapshot()
        spans = {name[len("span."):]: data
                 for name, data in snapshot["histograms"].items()
                 if name.startswith("span.")}
        if spans:
            lines.append("telemetry spans (this process):")
            for name, data in sorted(spans.items(),
                                     key=lambda item: -item[1]["total"]):
                lines.append("  %-20s n=%-4d total %8.4fs  mean %8.4fs"
                             % (name, data["count"], data["total"],
                                data["mean"]))
        if snapshot["counters"]:
            lines.append("telemetry counters:")
            for name, value in sorted(snapshot["counters"].items()):
                lines.append("  %-28s %d" % (name, value))
    return "\n".join(lines) + "\n"
