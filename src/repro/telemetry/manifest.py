"""Run manifests: provenance records written next to cached artifacts.

Every time the suite runner executes a benchmark and writes its trace
cache, it also writes ``<cache stem>.manifest.json`` describing *how*
those artifacts were produced: the benchmark's run configuration
(:class:`~repro.experiments.runner.RunConfig`), the cache key
and format version, the git commit of the working tree (when
available), and the telemetry event-log path (when a run had one).
Any table or figure computed from the cache is thereby traceable to
the run that produced it.  A manifest holds no timings: where a run's
seconds went is the span ledger of its event log
(:func:`~repro.telemetry.tracing.fold_ledger`).

The schema (``MANIFEST_VERSION`` 2)::

    {
      "manifest_version": 2,
      "benchmark": "wc",
      "cache_key": "wc-s0_1-r2-v4-a1b2c3d4e5",
      "format_version": 4,
      "config": {"scale": 0.1, "runs": 2, "profile_source": "measured"},
      "git_sha": "..." | null,
      "event_log": "path/to/telemetry.jsonl" | null,
      "artifacts": {"trace": "....npz", "profile": "....json"},
      "checksums": {"trace": "sha256:...", "profile": "sha256:..."},
      "created": "2026-08-06T12:34:56+00:00"
    }

Version 2 added ``checksums``: the sha256 of each artifact as written,
verified on every cache load by the resilience layer (see
docs/RESILIENCE.md) so torn writes and bit rot are caught and
quarantined instead of silently poisoning later runs.  Manifests
written before the span ledger carry a ``stages`` dict of seconds;
:meth:`RunManifest.from_dict` ignores it.
"""

import datetime
import json
import subprocess

MANIFEST_VERSION = 2


def git_sha(root=None):
    """The working tree's HEAD commit, or None outside a git checkout."""
    command = ["git"]
    if root is not None:
        command += ["-C", str(root)]
    command += ["rev-parse", "HEAD"]
    try:
        output = subprocess.run(command, capture_output=True, text=True,
                                timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if output.returncode != 0:
        return None
    return output.stdout.strip() or None


def manifest_path_for(artifact_path):
    """The manifest path sitting next to a cache artifact.

    Both the ``.npz`` trace and the ``.json`` profile of one cache
    entry share a stem, and so share one manifest.
    """
    from pathlib import Path

    artifact_path = Path(artifact_path)
    return artifact_path.with_name(artifact_path.stem + ".manifest.json")


class RunManifest:
    """Provenance for one benchmark execution (see module docstring)."""

    __slots__ = ("benchmark", "cache_key", "format_version", "config",
                 "git_sha", "event_log", "artifacts", "checksums",
                 "created")

    def __init__(self, benchmark, cache_key, format_version, config,
                 git_sha=None, event_log=None, artifacts=None,
                 checksums=None, created=None):
        self.benchmark = benchmark
        self.cache_key = cache_key
        self.format_version = format_version
        self.config = dict(config)
        self.git_sha = git_sha
        self.event_log = event_log
        self.artifacts = dict(artifacts or {})
        self.checksums = dict(checksums or {})
        if created is None:
            created = datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds")
        self.created = created

    # -- serialisation -----------------------------------------------------

    def to_dict(self):
        return {
            "manifest_version": MANIFEST_VERSION,
            "benchmark": self.benchmark,
            "cache_key": self.cache_key,
            "format_version": self.format_version,
            "config": self.config,
            "git_sha": self.git_sha,
            "event_log": self.event_log,
            "artifacts": self.artifacts,
            "checksums": self.checksums,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            benchmark=data["benchmark"],
            cache_key=data["cache_key"],
            format_version=data["format_version"],
            config=data.get("config", {}),
            git_sha=data.get("git_sha"),
            event_log=data.get("event_log"),
            artifacts=data.get("artifacts", {}),
            checksums=data.get("checksums", {}),
            created=data.get("created"),
        )

    def write(self, path):
        """Serialise to ``path`` atomically; returns the path.

        Uses the crash-safe store (temp + fsync + ``os.replace``) so a
        manifest is never observed half-written.
        """
        from pathlib import Path

        from repro.resilience.store import atomic_write_json

        path = Path(path)
        atomic_write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path):
        """Parse a manifest file written by :meth:`write`.

        Raises :class:`~repro.resilience.errors.ManifestError` when
        the file is unreadable, not JSON, or structurally wrong —
        callers quarantine instead of crashing.
        """
        from pathlib import Path

        from repro.resilience.errors import ManifestError

        try:
            data = json.loads(Path(path).read_text())
            if not isinstance(data, dict):
                raise ValueError("manifest is not a JSON object")
            return cls.from_dict(data)
        except OSError as error:
            raise ManifestError(str(path),
                                "unreadable: %s" % error) from error
        except (ValueError, KeyError, TypeError) as error:
            raise ManifestError(str(path),
                                "malformed: %s" % error) from error

    def __eq__(self, other):
        if not isinstance(other, RunManifest):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return "RunManifest(%r, key=%r)" % (self.benchmark,
                                             self.cache_key)
