"""The conformance run: probes and fuzz -> differential replay -> golden.

One call to :func:`run_conformance` checks every trace — first the
characterization probe battery, then one fuzzed trace (and its
likely-bit map) per seed from
:class:`~repro.conformance.fuzz.TraceFuzzer` — with one loop over one
scheme table:

1. lockstep differential replay of each scheme against its oracle,
   including buffer-state comparison after every record;
2. a scalar-vs-vector cross-check of the scheme's ``PredictionStats``
   over the same trace;
3. on fuzzed traces, a cycle-level differential of the production
   :class:`~repro.pipeline.cycle_sim.CycleSimulator` (always the batch
   kernel, :mod:`repro.kernels.cycle`) against the straight-line
   oracle interpreter, once per pipeline shape;

and then, once, the golden-table layer: one measurement at the pinned
configuration, checked against the paper tolerance bands and the
committed golden JSON.  Any replay or engine divergence is shrunk to a
minimal reproducer and reported — and emitted as a structured
``conformance.divergence`` telemetry event so a CI run's JSONL log
pinpoints the failure without rerunning anything.

With telemetry on, each piece of work runs in its own span, so the
ledger of a traced run accounts for the differential's time:
``conformance.fuzz`` (building a seed's trace), ``conformance.replay``,
``conformance.engine_check``, ``conformance.cycle_check`` and, after a
divergence, ``conformance.shrink``.
"""

from repro.characterize.probes import probe_battery
from repro.conformance.differential import (
    cycle_divergence,
    engine_divergence,
    replay_divergence,
    shrink_trace,
)
from repro.conformance.fuzz import TraceFuzzer
from repro.conformance.golden import (
    check_golden,
    check_paper_bands,
    measure,
)
from repro.conformance.oracles import oracle_for
from repro.pipeline.config import PipelineConfig
from repro.predictors import (
    Bimodal,
    CounterBTB,
    ForwardSemanticPredictor,
    GShare,
    SimpleBTB,
)
from repro.telemetry.core import TELEMETRY

#: Small buffers so fuzzed traces create real capacity/eviction
#: pressure (256 entries would never evict with two dozen sites).
_ENTRIES = 16

#: Pipeline shapes for the cycle differential: the paper's moderately
#: and highly pipelined points.
_CYCLE_CONFIGS = (PipelineConfig(1, 1, 1), PipelineConfig(2, 4, 4))


def _schemes(likely_sites):
    """The scheme table: (scheme, make_production, make_oracle) rows.

    A fuzzed trace comes with a likely-bit map and checks the three
    paper schemes against their oracles.  A probe trace has no map, so
    FS sits it out, and the history-based kernels, which have no
    oracle (``make_oracle`` is None), join it for the engine
    cross-check.
    """
    schemes = [
        ("SBTB",
         lambda: SimpleBTB(entries=_ENTRIES),
         lambda: oracle_for("SBTB", entries=_ENTRIES)),
        ("CBTB",
         lambda: CounterBTB(entries=_ENTRIES),
         lambda: oracle_for("CBTB", entries=_ENTRIES)),
    ]
    if likely_sites is not None:
        schemes.append(
            ("FS",
             lambda: ForwardSemanticPredictor(likely_sites=likely_sites),
             lambda: oracle_for("FS", likely_sites=likely_sites)))
    else:
        schemes += [
            ("gshare", lambda: GShare(history_bits=4, entries=_ENTRIES),
             None),
            ("bimodal", lambda: Bimodal(entries=_ENTRIES), None),
        ]
    return schemes


class DivergenceFinding:
    """A shrunk, reportable conformance failure."""

    __slots__ = ("scheme", "seed", "divergence", "reproducer")

    def __init__(self, scheme, seed, divergence, reproducer):
        self.scheme = scheme
        self.seed = seed
        self.divergence = divergence
        self.reproducer = reproducer

    def describe(self):
        lines = ["%s (seed %d, %s): %s"
                 % (self.scheme, self.seed, self.divergence.kind,
                    self.divergence.describe())]
        if self.reproducer is not None:
            lines.append("  minimal reproducer (%d records):"
                         % len(self.reproducer))
            for index in range(len(self.reproducer)):
                lines.append("    %r" % (self.reproducer[index],))
        return "\n".join(lines)


class ConformanceReport:
    """Everything one conformance run observed."""

    def __init__(self, seeds):
        self.seeds = seeds
        self.replays = 0
        self.cycle_checks = 0
        self.engine_checks = 0
        self.probe_checks = 0
        self.findings = []
        self.band_violations = []
        self.golden_violations = []
        self.golden_checked = False

    @property
    def ok(self):
        return not (self.findings or self.band_violations
                    or self.golden_violations)

    def render(self):
        lines = ["Conformance: %d seeds x %d oracles (%d replays, "
                 "%d cycle checks)"
                 % (self.seeds, len(_schemes({})), self.replays,
                    self.cycle_checks)]
        if self.findings:
            lines.append("DIVERGENCES (%d):" % len(self.findings))
            lines.extend(finding.describe() for finding in self.findings)
        else:
            lines.append("differential replay: zero divergences")
        lines.append("engine cross-check (scalar vs vector): "
                     "%d comparisons" % self.engine_checks)
        # Every cycle check runs the batch kernel, so the cycle count
        # is also the count of kernel-vs-interpreter comparisons.
        lines.append("vector cycle-sim vs oracle interpreter: "
                     "%d comparisons" % self.cycle_checks)
        lines.append("characterization probe battery: "
                     "%d scheme x probe replays" % self.probe_checks)
        if self.golden_checked:
            for label, violations in (
                    ("paper tolerance bands", self.band_violations),
                    ("golden tables", self.golden_violations)):
                if violations:
                    lines.append("%s: %d violation%s"
                                 % (label, len(violations),
                                    "" if len(violations) == 1 else "s"))
                    lines.extend("  " + violation
                                 for violation in violations)
                else:
                    lines.append("%s: pass" % label)
        else:
            lines.append("golden tables: skipped")
        lines.append("RESULT: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def _note_divergence(report, scheme, seed, divergence, reproducer):
    report.findings.append(DivergenceFinding(scheme, seed, divergence,
                                             reproducer))
    TELEMETRY.count("conformance.divergences")
    TELEMETRY.event(
        "conformance.divergence", scheme=scheme, seed=seed,
        kind=divergence.kind, index=divergence.index,
        production=repr(divergence.production),
        oracle=repr(divergence.oracle),
        reproducer_records=(len(reproducer)
                            if reproducer is not None else None))


def _diverged(report, label, seed, trace, diverges, span):
    """Note the divergence ``diverges(trace)`` finds, shrunk to a minimal
    reproducer; True when there was one.  The check runs in a span
    named ``span``, the shrinking in ``conformance.shrink``.  Probe
    traces (seed -1) shrink with seed 0."""
    with TELEMETRY.span(span):
        divergence = diverges(trace)
    if divergence is None:
        return False
    with TELEMETRY.span("conformance.shrink"):
        reproducer = shrink_trace(trace,
                                  lambda t: diverges(t) is not None,
                                  seed=max(seed, 0))
    _note_divergence(report, label, seed, divergence, reproducer)
    return True


def _check_trace(report, trace, seed, schemes, probe):
    """Check every scheme of ``schemes`` on one trace.

    Per scheme: oracle replay (when the scheme has an oracle), the
    engine cross-check, and on fuzzed traces the cycle check at each
    pipeline shape; a divergence ends that scheme's checks.  ``probe``
    is None for a fuzzed trace and names a probe trace, which counts
    every check in ``probe_checks`` and labels findings
    ``SCHEME@probe:NAME`` and ``SCHEME@engine:NAME``.  Cycle
    divergences are noted unshrunk.
    """
    fuzzed = probe is None
    replay_suffix = "" if fuzzed else "@probe:" + probe
    engine_suffix = "@engine" if fuzzed else "@engine:" + probe
    for scheme, make_production, make_oracle in schemes:
        if make_oracle is not None:
            if fuzzed:
                report.replays += 1
            else:
                report.probe_checks += 1
            if _diverged(report, scheme + replay_suffix, seed, trace,
                         lambda t: replay_divergence(
                             make_production(), make_oracle(), t),
                         "conformance.replay"):
                continue
        if fuzzed:
            report.engine_checks += 1
        else:
            report.probe_checks += 1
        if _diverged(report, scheme + engine_suffix, seed, trace,
                     lambda t: engine_divergence(make_production, t),
                     "conformance.engine_check"):
            continue
        if not fuzzed:
            continue
        for config in _CYCLE_CONFIGS:
            report.cycle_checks += 1
            with TELEMETRY.span("conformance.cycle_check"):
                divergence = cycle_divergence(config, make_production,
                                              make_oracle, trace)
            if divergence is not None:
                _note_divergence(report, "%s@%r" % (scheme, config),
                                 seed, divergence, None)


def run_conformance(seeds=200, golden=True, cache=True):
    """Run the full conformance battery; returns a ConformanceReport.

    Args:
        seeds: fuzz seeds to replay (each seed covers every scheme and
            both cycle-differential pipeline shapes).
        golden: also run the paper-band and golden-file checks.
        cache: let the golden layer use the trace cache.

    The characterization probe battery (fixed adversarial traces, see
    :func:`repro.characterize.probes.probe_battery`) runs first: it
    oversubscribes sets and maximises aliasing, regimes the
    program-skeleton fuzzer essentially never reaches.
    """
    report = ConformanceReport(seeds)
    with TELEMETRY.span("conformance.probes"):
        schemes = _schemes(None)
        for family, name, trace in probe_battery(entries=_ENTRIES):
            _check_trace(report, trace, -1, schemes,
                         probe="%s/%s" % (family, name))
    with TELEMETRY.span("conformance.differential", seeds=seeds):
        for seed in range(seeds):
            TELEMETRY.count("conformance.seeds")
            with TELEMETRY.span("conformance.fuzz"):
                fuzzer = TraceFuzzer(seed)
                trace = fuzzer.trace()
            _check_trace(report, trace, seed,
                         _schemes(fuzzer.likely_sites()), None)
    if golden:
        with TELEMETRY.span("conformance.golden"):
            measured = measure(cache)
            report.band_violations = check_paper_bands(measured)
            report.golden_violations = check_golden(measured)
            report.golden_checked = True
            TELEMETRY.count("conformance.band_violations",
                            len(report.band_violations))
            TELEMETRY.count("conformance.golden_violations",
                            len(report.golden_violations))
    TELEMETRY.event("conformance.result", ok=report.ok,
                    seeds=seeds, replays=report.replays,
                    cycle_checks=report.cycle_checks,
                    divergences=len(report.findings))
    return report
