"""Campaign state: a grid of shards and the tables it degrades into.

A campaign is submitted as JSON, validated into a
:class:`CampaignSpec`, expanded into :class:`~repro.service.shards.
ShardSpec` cells, and then lives as a :class:`Campaign` whose cells
move through::

    pending -> done
            -> failed     (worker attempts exhausted)
            -> shed       (circuit breaker open for the group)
            -> cancelled  (deadline expired before dispatch)

**The degraded-table contract**: :meth:`Campaign.tables` always
renders the full row x column grid.  A cell that did not complete is
*marked* — ``None`` in the JSON payload, ``—`` in the text rendering —
and listed under ``missing`` with its reason.  A degraded table never
fabricates a value and never silently drops a row; partial results are
partial, visibly.
"""

import json
import time

from repro.service.errors import SpecError
from repro.service.shards import (
    ShardSpec,
    canonical_config,
    probe_label,
    scheme_label,
    validate_probe,
)

CAMPAIGN_KINDS = ("sweep", "probe")

#: Terminal cell states (everything except "pending").
DONE = "done"
FAILED = "failed"
SHED = "shed"
CANCELLED = "cancelled"

#: Marker rendered for a missing cell in the text tables.
MISSING_CELL = "—"


class CampaignSpec:
    """A validated, canonical campaign request."""

    __slots__ = ("kind", "benchmarks", "probes", "schemes", "scale",
                 "runs", "profile_source", "flush_interval", "engine",
                 "deadline_s")

    def __init__(self, kind, schemes, benchmarks=None, probes=None,
                 scale=1.0, runs=None, profile_source="measured",
                 flush_interval=None, engine="auto", deadline_s=None):
        self.kind = kind
        self.benchmarks = benchmarks
        self.probes = probes
        self.schemes = schemes
        self.scale = scale
        self.runs = runs
        self.profile_source = profile_source
        self.flush_interval = flush_interval
        self.engine = engine
        self.deadline_s = deadline_s

    @classmethod
    def from_payload(cls, payload):
        """Validate a JSON payload; raises :class:`SpecError`.

        Every rejection names the field and the accepted values — a
        client debugging a 400 should need nothing but the message.
        """
        if not isinstance(payload, dict):
            raise SpecError("campaign spec must be a JSON object")
        kind = payload.get("kind", "sweep")
        if kind not in CAMPAIGN_KINDS:
            raise SpecError("unknown campaign kind %r (expected one "
                            "of %s)" % (kind, ", ".join(CAMPAIGN_KINDS)))
        known = {"kind", "benchmarks", "probes", "schemes", "scale",
                 "runs", "profile_source", "flush_interval", "engine",
                 "deadline_s"}
        unknown = set(payload) - known
        if unknown:
            raise SpecError("unknown campaign field(s): %s"
                            % ", ".join(sorted(unknown)))

        schemes = payload.get("schemes")
        if not isinstance(schemes, list) or not schemes:
            raise SpecError("campaign needs a non-empty 'schemes' list")
        schemes = [canonical_config(config) for config in schemes]

        benchmarks = probes = None
        if kind == "sweep":
            from repro.benchmarksuite import get_benchmark

            benchmarks = payload.get("benchmarks")
            if not isinstance(benchmarks, list) or not benchmarks:
                raise SpecError("sweep campaign needs a non-empty "
                                "'benchmarks' list")
            for name in benchmarks:
                try:
                    get_benchmark(name)
                except KeyError as error:
                    raise SpecError(str(error.args[0])) from error
            if len(set(benchmarks)) != len(benchmarks):
                raise SpecError("duplicate benchmark in 'benchmarks'")
        else:
            probes = payload.get("probes")
            if not isinstance(probes, list) or not probes:
                raise SpecError("probe campaign needs a non-empty "
                                "'probes' list")
            probes = [validate_probe(probe) for probe in probes]

        scale = payload.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or scale <= 0:
            raise SpecError("'scale' must be > 0 (got %r)" % (scale,))
        runs = payload.get("runs")
        if runs is not None and (not isinstance(runs, int) or runs < 1):
            raise SpecError("'runs' must be >= 1 (got %r)" % (runs,))
        profile_source = payload.get("profile_source", "measured")
        if profile_source not in ("measured", "static"):
            raise SpecError("'profile_source' must be 'measured' or "
                            "'static' (got %r)" % (profile_source,))
        flush_interval = payload.get("flush_interval")
        if flush_interval is not None and (
                not isinstance(flush_interval, int)
                or flush_interval < 1):
            raise SpecError("'flush_interval' must be >= 1 (got %r)"
                            % (flush_interval,))
        engine = payload.get("engine", "auto")
        if engine not in ("auto", "scalar", "vector"):
            raise SpecError("'engine' must be auto, scalar or vector "
                            "(got %r)" % (engine,))
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None and (
                not isinstance(deadline_s, (int, float))
                or deadline_s < 0):
            raise SpecError("'deadline_s' must be >= 0 (got %r)"
                            % (deadline_s,))
        return cls(kind, schemes, benchmarks=benchmarks, probes=probes,
                   scale=float(scale), runs=runs,
                   profile_source=profile_source,
                   flush_interval=flush_interval, engine=engine,
                   deadline_s=deadline_s)

    def to_payload(self):
        payload = {"kind": self.kind, "schemes": self.schemes,
                   "engine": self.engine}
        if self.kind == "sweep":
            payload.update(benchmarks=self.benchmarks,
                           scale=self.scale, runs=self.runs,
                           profile_source=self.profile_source)
        else:
            payload.update(probes=self.probes,
                           flush_interval=self.flush_interval)
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        return payload

    @property
    def rows(self):
        if self.kind == "sweep":
            return list(self.benchmarks)
        return [probe_label(probe) for probe in self.probes]

    @property
    def columns(self):
        return [scheme_label(config) for config in self.schemes]

    def expand(self):
        """The campaign's shards, in row-major grid order."""
        shards = []
        if self.kind == "sweep":
            for benchmark in self.benchmarks:
                for config in self.schemes:
                    shards.append(ShardSpec(
                        "sweep", config, benchmark=benchmark,
                        scale=self.scale, runs=self.runs,
                        profile_source=self.profile_source,
                        engine=self.engine))
        else:
            for probe in self.probes:
                for config in self.schemes:
                    shards.append(ShardSpec(
                        "probe", config, probe=probe,
                        flush_interval=self.flush_interval,
                        engine=self.engine))
        return shards


class Campaign:
    """One submitted campaign's live state."""

    def __init__(self, campaign_id, spec, created=None):
        self.id = campaign_id
        self.spec = spec
        self.created = time.time() if created is None else created
        self.deadline_epoch = (
            None if spec.deadline_s is None
            else self.created + spec.deadline_s)
        self.expired = False
        self.shards = spec.expand()
        # (row, column) -> cell dict; row-major grid order.
        self.cells = {}
        for shard in self.shards:
            self.cells[(shard.row, shard.column)] = {
                "key": shard.key, "status": "pending",
                "result": None, "reason": None,
            }
        self.events = []        # completion-ordered cell resolutions

    # -- state ---------------------------------------------------------------

    @property
    def pending(self):
        return [cell for cell in self.cells.values()
                if cell["status"] == "pending"]

    @property
    def finished(self):
        return not self.pending

    @property
    def status(self):
        if not self.finished:
            return "expired" if self.expired else "running"
        if self.expired:
            return "expired"
        statuses = {cell["status"] for cell in self.cells.values()}
        return "done" if statuses == {DONE} else "degraded"

    def past_deadline(self, now=None):
        if self.deadline_epoch is None:
            return False
        return (time.time() if now is None else now) \
            >= self.deadline_epoch

    def cells_for_key(self, key):
        return [(coords, cell) for coords, cell in self.cells.items()
                if cell["key"] == key and cell["status"] == "pending"]

    def resolve(self, key, status, result=None, reason=None):
        """Mark every pending cell of ``key`` terminal; returns count."""
        resolved = 0
        for (row, column), cell in self.cells_for_key(key):
            cell["status"] = status
            cell["result"] = result
            cell["reason"] = reason
            self.events.append({
                "seq": len(self.events), "row": row, "column": column,
                "key": key, "status": status, "result": result,
                "reason": reason,
            })
            resolved += 1
        return resolved

    # -- presentation --------------------------------------------------------

    def to_status_dict(self):
        by_status = {}
        for cell in self.cells.values():
            by_status[cell["status"]] = (
                by_status.get(cell["status"], 0) + 1)
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "status": self.status,
            "created": self.created,
            "deadline_epoch": self.deadline_epoch,
            "total": len(self.cells),
            "by_status": by_status,
            "events": len(self.events),
        }

    def tables(self):
        """The campaign's result tables under the degraded contract.

        Returns a dict with the full grid (``rows`` hold ``None`` for
        missing cells), a ``missing`` list naming each absent cell and
        why, a ``degraded`` flag, and a ``text`` rendering where
        missing cells show :data:`MISSING_CELL`.
        """
        from repro.experiments.report import TableData, render_table

        columns = self.spec.columns
        rows = []
        text_rows = []
        missing = []
        for row_name in self.spec.rows:
            row = [row_name]
            text_row = [row_name]
            for column in columns:
                cell = self.cells.get((row_name, column))
                if cell is not None and cell["status"] == DONE:
                    accuracy = round(cell["result"]["accuracy"], 4)
                    row.append(accuracy)
                    text_row.append(accuracy)
                else:
                    reason = "never-submitted"
                    if cell is not None:
                        reason = (cell["reason"] or cell["status"])
                    missing.append({"row": row_name, "column": column,
                                    "reason": reason})
                    row.append(None)
                    text_row.append(MISSING_CELL)
            rows.append(row)
            text_rows.append(text_row)

        title = "Campaign %s (%s): prediction accuracy" % (
            self.id, self.status)
        notes = []
        if missing:
            notes.append("%d missing cell%s (degraded, not fabricated):"
                         " %s" % (len(missing),
                                  "" if len(missing) == 1 else "s",
                                  "; ".join(
                                      "%s x %s [%s]"
                                      % (gap["row"], gap["column"],
                                         gap["reason"])
                                      for gap in missing)))
        header = ("Benchmark" if self.spec.kind == "sweep" else "Probe")
        table = TableData(title, [header] + columns, text_rows,
                          notes=notes)
        return {
            "id": self.id,
            "status": self.status,
            "degraded": bool(missing),
            "headers": [header] + columns,
            "rows": rows,
            "missing": missing,
            "text": render_table(table),
        }

    # -- persistence ---------------------------------------------------------

    JOURNAL_VERSION = 1

    def to_journal_dict(self):
        return {
            "journal_version": self.JOURNAL_VERSION,
            "id": self.id,
            "spec": self.spec.to_payload(),
            "created": self.created,
            "expired": self.expired,
            "status": self.status,
            "cells": [
                {"row": row, "column": column, **cell}
                for (row, column), cell in self.cells.items()
            ],
        }

    @classmethod
    def from_journal_dict(cls, data):
        """Rebuild a campaign from its journal record.

        Raises ``ValueError`` on a structurally wrong record (the
        journal quarantines it); completed cells are restored with
        their results, pending cells stay pending for re-dispatch.
        Completion *order* is not persisted — restored events replay
        in grid order, which only affects the stream cursor, never
        the results.
        """
        if data.get("journal_version") != cls.JOURNAL_VERSION:
            raise ValueError("journal version %r not understood"
                             % data.get("journal_version"))
        spec = CampaignSpec.from_payload(data["spec"])
        campaign = cls(data["id"], spec, created=data["created"])
        campaign.expired = bool(data.get("expired"))
        recorded = {(cell["row"], cell["column"]): cell
                    for cell in data.get("cells", [])}
        for coords, cell in campaign.cells.items():
            stored = recorded.get(coords)
            if stored is None:
                continue
            if stored.get("key") != cell["key"]:
                raise ValueError(
                    "journal cell %r/%r key mismatch" % coords)
            if stored.get("status", "pending") == "pending":
                continue
            campaign.resolve(cell["key"], stored["status"],
                             result=stored.get("result"),
                             reason=stored.get("reason"))
        return campaign

    def __repr__(self):
        return "Campaign(%s, %s, %d cells)" % (self.id, self.status,
                                               len(self.cells))


def campaign_fingerprint(spec):
    """A short digest of a campaign spec (journal file naming aid)."""
    import hashlib

    payload = json.dumps(spec.to_payload(), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:10]
