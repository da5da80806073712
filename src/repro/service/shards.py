"""The unit of service work: one (benchmark x scheme x config) shard.

A campaign is a grid of shards; a shard is the smallest thing the
dispatcher schedules, retries, deduplicates, and journals.  Two shard
kinds exist:

``sweep``
    Run one benchmark through the suite runner (hitting the
    content-addressed trace cache) and simulate one predictor
    configuration over its evaluation trace.  This is the paper's
    Tables 1-5 workload, sharded.
``probe``
    Simulate one predictor configuration over one synthetic probe
    trace (a :mod:`repro.characterize.probes` kernel, or explicit
    records shipped by the client).  This is the characterization
    harness's bursty many-small-requests traffic.

Every shard has a **content-addressed key**: for sweep shards it is
derived from the runner's cache stem (which already encodes benchmark
source hash, scale, runs, profile source, and cache format version)
plus the canonical scheme configuration; for probe shards it digests
the trace itself.  Identical requests — from one client or many —
therefore collapse to one key, which is what the dispatcher's
in-flight deduplication and result cache key on.

Shard execution is a pure function of the spec (given the cache
directory), so a shard can run in this process, in a worker process,
or after a service restart and produce bit-identical results.
"""

import hashlib
import json

from repro.service.errors import SpecError

#: Scheme names a shard config may request.  SBTB/CBTB/FS are the
#: paper's three schemes; the rest are the modern zoo, exposed so
#: clients can sweep them through the same service.
SCHEME_NAMES = ("SBTB", "CBTB", "FS", "GShare", "Bimodal",
                "AlwaysTaken", "AlwaysNotTaken")

#: Per-scheme config fields (name -> default).  ``None`` defaults are
#: "constructor decides"; unknown fields are rejected loudly.
_SCHEME_FIELDS = {
    "SBTB": {"entries": 256, "associativity": None},
    "CBTB": {"entries": 256, "associativity": None,
             "counter_bits": 2, "threshold": 2},
    "FS": {},
    "GShare": {"history_bits": 4, "table_bits": 10,
               "entries": 32, "associativity": None},
    "Bimodal": {"table_bits": 10, "entries": 32, "associativity": None},
    "AlwaysTaken": {},
    "AlwaysNotTaken": {},
}

#: Probe trace families a probe shard may name, mapped to the
#: characterize generators' required parameters.
_PROBE_FIELDS = {
    "chain": ("m", "stride", "laps"),
    "step": ("takens", "not_takens", "takens_again"),
    "ladder": ("k", "periods"),
    "victim": ("ways", "stride", "probe"),
    "disagree": ("periods",),
}


def canonical_config(config):
    """Validate a scheme config dict; returns its canonical form.

    The canonical form has every field present (defaults filled in)
    and sorted keys, so equal configurations always serialise — and
    therefore hash — identically.
    """
    if not isinstance(config, dict):
        raise SpecError("scheme config must be an object, got %r"
                        % type(config).__name__)
    scheme = config.get("scheme")
    if scheme not in _SCHEME_FIELDS:
        raise SpecError("unknown scheme %r (expected one of %s)"
                        % (scheme, ", ".join(SCHEME_NAMES)))
    fields = _SCHEME_FIELDS[scheme]
    unknown = set(config) - set(fields) - {"scheme", "label"}
    if unknown:
        raise SpecError("unknown %s config field(s): %s"
                        % (scheme, ", ".join(sorted(unknown))))
    canonical = {"scheme": scheme}
    for field, default in fields.items():
        value = config.get(field, default)
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool)):
            raise SpecError("%s.%s must be an integer, got %r"
                            % (scheme, field, value))
        canonical[field] = value
    if "label" in config:
        if not isinstance(config["label"], str) or not config["label"]:
            raise SpecError("scheme label must be a non-empty string")
        canonical["label"] = config["label"]
    return canonical


def scheme_label(config):
    """Column heading for one canonical scheme config."""
    if "label" in config:
        return config["label"]
    scheme = config["scheme"]
    if scheme in ("SBTB", "CBTB") and config.get("entries") != 256:
        return "%s[%s]" % (scheme, config["entries"])
    return scheme


def make_predictor(config, program=None):
    """Instantiate the predictor a canonical config describes.

    ``program`` supplies the laid-out FS program for sweep shards;
    probe shards run the FS scheme with an empty likely-bit map (the
    characterization roster's convention).
    """
    from repro.predictors import (
        AlwaysNotTaken,
        AlwaysTaken,
        Bimodal,
        CounterBTB,
        ForwardSemanticPredictor,
        GShare,
        SimpleBTB,
    )

    scheme = config["scheme"]
    if scheme == "SBTB":
        return SimpleBTB(config["entries"], config["associativity"])
    if scheme == "CBTB":
        return CounterBTB(config["entries"], config["associativity"],
                          config["counter_bits"], config["threshold"])
    if scheme == "FS":
        if program is not None:
            return ForwardSemanticPredictor(program=program)
        return ForwardSemanticPredictor(likely_sites={})
    if scheme == "GShare":
        return GShare(history_bits=config["history_bits"],
                      table_bits=config["table_bits"],
                      entries=config["entries"],
                      associativity=config["associativity"])
    if scheme == "Bimodal":
        return Bimodal(table_bits=config["table_bits"],
                       entries=config["entries"],
                       associativity=config["associativity"])
    if scheme == "AlwaysTaken":
        return AlwaysTaken()
    return AlwaysNotTaken()


# -- probe traces ------------------------------------------------------------


def trace_to_payload(trace):
    """Serialise a BranchTrace into a JSON-shippable payload."""
    return {
        "records": [list(record) for record in trace.records()],
        "total_instructions": trace.total_instructions,
    }


def trace_from_payload(payload):
    """Rebuild a BranchTrace from :func:`trace_to_payload` output."""
    from repro.vm.tracing import BranchTrace

    trace = BranchTrace()
    for record in payload["records"]:
        site, branch_class, taken, target, gap = record
        trace.append(int(site), int(branch_class), bool(taken),
                     int(target), int(gap))
    trace.total_instructions = int(payload["total_instructions"])
    return trace


def validate_probe(probe):
    """Validate one probe spec; returns its canonical dict form.

    A probe is either a named generator family with its parameters
    (``{"family": "chain", "m": 4, "stride": 1, "laps": 6}``) or
    explicit records (``{"records": [...], "total_instructions": n}``).
    """
    if not isinstance(probe, dict):
        raise SpecError("probe must be an object, got %r"
                        % type(probe).__name__)
    if "records" in probe:
        records = probe["records"]
        if not isinstance(records, list) or not records:
            raise SpecError("probe records must be a non-empty list")
        for record in records:
            if not isinstance(record, (list, tuple)) or len(record) != 5:
                raise SpecError("each probe record must be "
                                "[site, class, taken, target, gap]")
        return {"records": [list(record) for record in records],
                "total_instructions": int(
                    probe.get("total_instructions", len(records)))}
    family = probe.get("family")
    if family not in _PROBE_FIELDS:
        raise SpecError("unknown probe family %r (expected one of %s "
                        "or explicit 'records')"
                        % (family, ", ".join(sorted(_PROBE_FIELDS))))
    canonical = {"family": family}
    for field in _PROBE_FIELDS[family]:
        if field not in probe:
            raise SpecError("probe family %r needs field %r"
                            % (family, field))
        value = probe[field]
        if field == "probe":
            canonical[field] = bool(value)
        elif not isinstance(value, int) or isinstance(value, bool):
            raise SpecError("probe field %r must be an integer, got %r"
                            % (field, value))
        else:
            canonical[field] = value
    return canonical


def build_probe_trace(probe):
    """The BranchTrace a canonical probe spec describes."""
    from repro.characterize.probes import (
        chain_trace,
        disagree_trace,
        ladder_trace,
        step_trace,
        victim_trace,
    )

    if "records" in probe:
        return trace_from_payload(probe)
    family = probe["family"]
    if family == "chain":
        return chain_trace(probe["m"], probe["stride"], probe["laps"])
    if family == "step":
        return step_trace(probe["takens"], probe["not_takens"],
                          probe["takens_again"])
    if family == "ladder":
        return ladder_trace(probe["k"], probe["periods"])
    if family == "victim":
        return victim_trace(probe["ways"], probe["stride"],
                            probe=probe["probe"])
    return disagree_trace(probe["periods"])


def probe_label(probe):
    """Row heading for one canonical probe spec."""
    if "records" in probe:
        digest = hashlib.sha1(
            json.dumps(probe, sort_keys=True).encode()).hexdigest()
        return "records-%s" % digest[:8]
    parts = ["%s=%s" % (field, probe[field])
             for field in sorted(probe) if field != "family"]
    return "%s(%s)" % (probe["family"], ", ".join(parts))


# -- the shard ---------------------------------------------------------------


class ShardSpec:
    """One schedulable unit of campaign work.

    Attributes:
        kind: ``"sweep"`` or ``"probe"``.
        benchmark: benchmark name (sweep shards).
        probe: canonical probe dict (probe shards).
        config: canonical scheme config dict.
        scale / runs / profile_source: runner parameters (sweep).
        flush_interval: optional flush cadence (probe).
        engine: simulation engine the shard runs with
            (``auto``/``scalar``/``vector`` — bit-identical either way).
    """

    __slots__ = ("kind", "benchmark", "probe", "config", "scale",
                 "runs", "profile_source", "flush_interval", "engine",
                 "_key")

    def __init__(self, kind, config, benchmark=None, probe=None,
                 scale=1.0, runs=None, profile_source="measured",
                 flush_interval=None, engine="auto"):
        self.kind = kind
        self.benchmark = benchmark
        self.probe = probe
        self.config = config
        self.scale = scale
        self.runs = runs
        self.profile_source = profile_source
        self.flush_interval = flush_interval
        self.engine = engine
        self._key = None

    @property
    def row(self):
        """The table row this shard's result lands in."""
        if self.kind == "sweep":
            return self.benchmark
        return probe_label(self.probe)

    @property
    def column(self):
        """The table column this shard's result lands in."""
        return scheme_label(self.config)

    @property
    def breaker_group(self):
        """Which circuit breaker guards this shard.

        Sweep shards break per benchmark (one misbehaving workload
        must not shed the others); probe shards share one group per
        scheme (they are cheap and homogeneous).
        """
        if self.kind == "sweep":
            return "benchmark:%s" % self.benchmark
        return "probe:%s" % self.config["scheme"]

    def content_stem(self):
        """The content-addressed identity of this shard's *input*.

        Sweep shards reuse the runner's cache stem — benchmark source
        hash, scale, runs, profile source, and cache format version
        are all baked into it, so a source edit or format bump changes
        the key and nothing stale is ever deduplicated against.
        Probe shards digest the canonical probe spec.
        """
        if self.kind == "sweep":
            from repro.experiments.runner import content_stem

            return content_stem(self.benchmark, scale=self.scale,
                                runs=self.runs,
                                profile_source=self.profile_source)
        digest = hashlib.sha1(
            json.dumps(self.probe, sort_keys=True).encode()).hexdigest()
        return "probe-%s" % digest[:16]

    @property
    def key(self):
        """Content-addressed deduplication key (memoised)."""
        if self._key is None:
            payload = json.dumps({
                "stem": self.content_stem(),
                "config": self.config,
                "flush_interval": self.flush_interval,
            }, sort_keys=True)
            self._key = hashlib.sha1(payload.encode()).hexdigest()[:16]
        return self._key

    def to_dict(self):
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "probe": self.probe,
            "config": self.config,
            "scale": self.scale,
            "runs": self.runs,
            "profile_source": self.profile_source,
            "flush_interval": self.flush_interval,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["kind"], data["config"],
                   benchmark=data.get("benchmark"),
                   probe=data.get("probe"),
                   scale=data.get("scale", 1.0),
                   runs=data.get("runs"),
                   profile_source=data.get("profile_source", "measured"),
                   flush_interval=data.get("flush_interval"),
                   engine=data.get("engine", "auto"))

    def __repr__(self):
        return "ShardSpec(%s, %s x %s)" % (self.kind, self.row,
                                           self.column)


def stats_from_dict(data):
    """Rebuild a PredictionStats from its ``as_dict`` payload."""
    from repro.predictors.base import PredictionStats

    stats = PredictionStats()
    stats.total = data["total"]
    stats.correct = data["correct"]
    stats.buffer_accesses = data["buffer_accesses"]
    stats.buffer_misses = data["buffer_misses"]
    stats.by_class_total = {int(key): value for key, value
                            in data["by_class_total"].items()}
    stats.by_class_correct = {int(key): value for key, value
                              in data["by_class_correct"].items()}
    return stats


def execute_shard(spec, cache_dir=None):
    """Run one shard to completion; returns its JSON-safe result dict.

    Pure given the spec and the (content-addressed, crash-safe) cache
    directory: a shard re-executed after a crash, in another process,
    or on another day produces a bit-identical result — which is what
    lets the chaos gate demand byte-equal tables across a SIGKILL.
    """
    from repro.predictors.base import simulate
    from repro.telemetry.core import TELEMETRY

    if isinstance(spec, dict):
        spec = ShardSpec.from_dict(spec)
    with TELEMETRY.span("service.shard", kind=spec.kind, row=spec.row,
                        column=spec.column):
        if spec.kind == "sweep":
            from repro.experiments.runner import SuiteRunner

            runner = SuiteRunner(scale=spec.scale, runs=spec.runs,
                                 cache_dir=cache_dir,
                                 engine=spec.engine,
                                 profile_source=spec.profile_source)
            run = runner.run(spec.benchmark)
            predictor = make_predictor(spec.config,
                                       program=run.fs_program)
            stats = simulate(predictor, run.trace, engine=spec.engine)
        else:
            trace = build_probe_trace(spec.probe)
            predictor = make_predictor(spec.config)
            stats = simulate(predictor, trace,
                             flush_interval=spec.flush_interval,
                             engine=spec.engine)
    return {
        "key": spec.key,
        "kind": spec.kind,
        "row": spec.row,
        "column": spec.column,
        "accuracy": stats.accuracy,
        "miss_ratio": stats.miss_ratio,
        "stats": stats.as_dict(),
    }
