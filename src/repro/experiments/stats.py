"""Observability reports: ``stats`` and ``cache``.

Two CLI-facing renderers built on :mod:`repro.telemetry`:

* :func:`render_stats` — the mispredict attribution report: per-scheme,
  per-static-site prediction accuracy ranked worst-first with source
  lines (``repro-branches stats <benchmark>``; ``--json`` for the
  machine-readable payload);
* :func:`render_cache` — the trace-cache inventory with artifact sizes
  and manifest provenance (``repro-branches cache``).

Where a run's time went is not a report here: ``repro-branches
profile`` and ``metrics --replay`` print the span ledger
(:func:`~repro.telemetry.tracing.fold_ledger`).
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
    registry snapshot (its counters) — plain ``--json`` keeps the bare
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
            run_summary = "scale %s, %s runs, %s" % (
                manifest.config.get("scale", "?"),
                manifest.config.get("runs", "?"), sha)
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
