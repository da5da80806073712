"""Observability report: ``stats``.

:func:`render_stats` is the mispredict attribution report built on
:mod:`repro.telemetry.attribution`: per-scheme, per-static-site
prediction accuracy ranked worst-first with source lines
(``repro-branches stats <benchmark>``; ``--json`` for the
machine-readable payload).  The trace-cache inventory
(``repro-branches cache``) is :func:`repro.experiments.cache.render_cache`,
which imports none of the kernels this report needs.

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
