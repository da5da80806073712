"""Checkpoint/resume for multi-table experiment sweeps.

A full campaign (``repro-branches all`` / ``report``) renders eight
tables and figures back to back; before this module, a crash after
table 4 threw away tables 1-3.  :class:`SweepCheckpoint` persists each
completed section's rendered text — atomically, via the crash-safe
store — under a fingerprint of the sweep configuration, so a restarted
campaign replays finished sections from disk and resumes computing at
the first incomplete one.

The fingerprint covers everything that could change a section's
content (section list, scale, runs, benchmark subset, cache format
version); a checkpoint whose fingerprint disagrees is silently
discarded rather than resumed, and a corrupt checkpoint file is
quarantined — resuming from a wrong-config record would misattribute
results, which is worse than recomputing.
"""

import hashlib
import json
from pathlib import Path

from repro.resilience.store import atomic_write_json, quarantine
from repro.telemetry.core import TELEMETRY

CHECKPOINT_VERSION = 1


def sweep_fingerprint(sections, scale, runs, benchmarks, format_version):
    """A short stable digest of everything that shapes a sweep."""
    payload = json.dumps({
        "sections": list(sections),
        "scale": scale,
        "runs": runs,
        "benchmarks": sorted(benchmarks) if benchmarks else None,
        "format_version": format_version,
    }, sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


class SweepCheckpoint:
    """Per-section partial results of one sweep, persisted atomically.

    Usage::

        checkpoint = SweepCheckpoint(path, fingerprint)
        done = checkpoint.load()          # {} on mismatch/corruption
        for section in sections:
            if section in done:
                text = done[section]
            else:
                text = render(section)
                checkpoint.record(section, text)
        checkpoint.clear()                # campaign complete
    """

    def __init__(self, path, fingerprint):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._sections = {}

    @property
    def sections(self):
        return dict(self._sections)

    def load(self):
        """Completed sections from disk; {} when absent or unusable.

        A file that is unreadable, not valid JSON, or structurally
        wrong is quarantined (``*.corrupt``) with a
        ``checkpoint.corrupt`` event; a fingerprint or version
        mismatch just ignores the file (it will be overwritten by the
        first :meth:`record`).
        """
        self._sections = {}
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return {}
        except OSError as error:
            TELEMETRY.event("checkpoint.corrupt", path=str(self.path),
                            reason=str(error))
            return {}
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                raise ValueError("checkpoint is not a JSON object")
            sections = data.get("sections", {})
            if not isinstance(sections, dict) or not all(
                    isinstance(text, str)
                    for text in sections.values()):
                raise ValueError("sections are not name -> text")
        except ValueError as error:
            quarantine(self.path, "unreadable checkpoint: %s" % error)
            TELEMETRY.event("checkpoint.corrupt", path=str(self.path),
                            reason=str(error))
            return {}
        if (data.get("checkpoint_version") != CHECKPOINT_VERSION
                or data.get("fingerprint") != self.fingerprint):
            TELEMETRY.event("checkpoint.mismatch", path=str(self.path),
                            found=data.get("fingerprint"),
                            expected=self.fingerprint)
            return {}
        self._sections = dict(sections)
        if self._sections:
            TELEMETRY.count("checkpoint.resumed_sections",
                            len(self._sections))
            TELEMETRY.event("checkpoint.resume", path=str(self.path),
                            sections=sorted(self._sections))
        return dict(self._sections)

    def record(self, section, text):
        """Persist ``section``'s rendered text; atomic whole-file write."""
        self._sections[section] = text
        atomic_write_json(self.path, {
            "checkpoint_version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "sections": self._sections,
        })
        TELEMETRY.event("checkpoint.section", path=str(self.path),
                        section=section)

    def clear(self):
        """Remove the checkpoint (the sweep completed)."""
        self._sections = {}
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self):
        return "SweepCheckpoint(%r, %d sections)" % (
            str(self.path), len(self._sections))
