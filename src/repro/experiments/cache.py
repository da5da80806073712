"""The trace cache's location, format version and inventory.

Everything ``repro-branches cache`` needs, and nothing more: listing
the cache imports no NumPy, compiler or VM.  The suite runner
(:mod:`repro.experiments.runner`) writes and reads the entries, and
:meth:`~repro.experiments.runner.SuiteRunner._cache_paths` alone
builds their stems; this module only reads the format version back
out of a stem.
"""

import json
import os
import re
from pathlib import Path

from repro.resilience.errors import ManifestError
from repro.resilience.store import list_quarantined
from repro.telemetry.manifest import RunManifest, manifest_path_for

# Version 6: the cached trace stores sites, targets and gaps in the
# narrowest dtype that holds them and class and taken as one ``flags``
# column (BranchTrace.to_arrays).  Older entries are regenerated, each
# one found emitting a cache.invalidated event; without the bump an
# older checkout would quarantine the new entries as corrupt.
CACHE_FORMAT_VERSION = 6

_VERSION_IN_STEM = re.compile(r"-v(\d+)-")


def default_cache_dir():
    """The trace cache location (REPRO_CACHE_DIR overrides)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".repro_cache"


def _parses_as_json_object(path):
    """True when ``path`` holds a JSON object (however unfamiliar).

    Distinguishes a manifest from a *newer schema* — valid JSON whose
    structure this version cannot interpret, which is staleness — from
    a torn or bit-rotted file, which is corruption.
    """
    try:
        return isinstance(json.loads(Path(path).read_text()), dict)
    except (OSError, ValueError):
        return False


def list_cache_entries(cache_dir=None):
    """Inventory of the trace cache for ``repro-branches cache``.

    Groups the ``.npz`` trace, ``.json`` profile, and
    ``.manifest.json`` of each cache stem; returns a list of dicts
    (sorted by stem) with sizes, the current-version flag, a
    ``status`` field, and the parsed manifest when one parses.

    Damage never raises, and damage is distinguished from mere age: a
    torn or non-JSON manifest reports ``status: "corrupt"`` (manifest
    ``None``); a manifest that is valid JSON but from another era — a
    future schema this code cannot parse, or a ``format_version``
    other than the current one — reports ``status: "stale"`` (the
    entry is intact, just unusable by this version); a missing
    manifest reports ``status: "no-manifest"`` — so the listing works
    on a damaged cache directory instead of crashing on it.
    """
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    entries = []
    if not cache_dir.is_dir():
        return entries
    for trace_path in sorted(cache_dir.glob("*.npz")):
        stem = trace_path.stem
        profile_path = trace_path.with_suffix(".json")
        manifest_path = manifest_path_for(trace_path)
        size = 0
        for path in (trace_path, profile_path, manifest_path):
            try:
                size += path.stat().st_size
            except OSError:
                pass
        manifest = None
        status = "ok"
        if manifest_path.exists():
            try:
                manifest = RunManifest.load(manifest_path)
            except ManifestError:
                status = ("stale" if _parses_as_json_object(manifest_path)
                          else "corrupt")
            else:
                if manifest.format_version != CACHE_FORMAT_VERSION:
                    status = "stale"
        else:
            status = "no-manifest"
        match = _VERSION_IN_STEM.search(trace_path.name)
        version = int(match.group(1)) if match else None
        entries.append({
            "stem": stem,
            "path": str(trace_path),
            "size_bytes": size,
            "format_version": version,
            "current": version == CACHE_FORMAT_VERSION,
            "status": status,
            "manifest": manifest,
        })
    return entries


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
