"""Benchmark execution and caching for the experiment harness.

For each benchmark the runner performs the paper's methodology:

1. compile the Minic source (the "executable intermediate form"),
2. run it over the input suite and fold its profile (block counts,
   branch directions) from the runs' block paths,
3. recompile with trace selection + layout, setting likely bits,
4. derive the evaluation branch trace of the laid-out program over the
   same input suite (the paper profiles and measures on the same
   inputs, which it notes explicitly).  Layout only reorders blocks,
   so each laid-out run follows its profiling run block for block:
   the trace comes from the profiling run's block path, mapped through
   the layout (:meth:`~repro.traceopt.layout.LayoutResult.derive_traces`),
   and the laid-out program never runs,
5. simulate the predictors over the trace and size the forward-slot
   expansions.

Step 2, the one VM pass per input, dominates the cost, so the outputs
of steps 2 and 4 (profile JSON and trace arrays) are cached on disk
keyed by benchmark, the run configuration (:class:`RunConfig`: scale,
run count, profile source), and a format version.  Everything else is
recomputed deterministically from those artifacts.

The cache is crash-safe (see :mod:`repro.resilience` and
docs/RESILIENCE.md): every artifact is written atomically with its
sha256 recorded in the run manifest and verified on load; artifacts
that fail checksum or parse are quarantined to ``*.corrupt`` and
recomputed once; an inter-process lock per cache stem keeps concurrent
warm workers from tearing (or double-computing) the same entry; and
the parallel warm path is supervised — per-benchmark timeouts, bounded
retries with jittered backoff, and a typed
:class:`~repro.resilience.supervisor.RunReport` instead of one worker
failure killing the campaign.
"""

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from repro.benchmarksuite import get_benchmark
from repro.experiments.cache import (
    _VERSION_IN_STEM,
    CACHE_FORMAT_VERSION,
    default_cache_dir,
)
from repro.lang import compile_source
from repro.profiling import Profile
from repro.profiling.profiler import checked_paths
from repro.resilience.errors import (
    CacheCorruptError,
    LockTimeout,
    ManifestError,
)
from repro.resilience.store import (
    StemLock,
    atomic_write_npz,
    atomic_write_text,
    quarantine,
    verify_checksum,
)
from repro.telemetry.core import TELEMETRY
from repro.telemetry.manifest import (
    RunManifest,
    git_sha,
    manifest_path_for,
)
from repro.traceopt import build_fs_program, fill_forward_slots
from repro.predictors import (
    CounterBTB,
    ForwardSemanticPredictor,
    SimpleBTB,
    simulate,
)
from repro.vm import BranchTrace, run_program

#: Per-run VM instruction budget.
MAX_INSTRUCTIONS = 500_000_000

#: Wall-clock limit per benchmark for a supervised warm worker (a hung
#: worker is killed and retried), and the extra attempts a worker gets
#: after dying.
WARM_TIMEOUT = 600.0
WARM_RETRIES = 2

#: How long to wait on another process's stem lock before degrading
#: to an uncached in-process compute.
LOCK_TIMEOUT = 600.0

#: Where the profile driving trace layout comes from: ``measured``
#: profiles the program on its input suite (the paper's setup);
#: ``static`` estimates the profile from the IR alone
#: (:func:`repro.analysis.staticpred.estimate_profile`) and never
#: invokes the profiler.
PROFILE_SOURCES = ("measured", "static")


class RunConfig(NamedTuple):
    """Everything that shapes a run's content, kept in one place.

    The cache stem, the manifest ``config``, the warm-worker payload
    and the sweep-checkpoint fingerprint all take it whole, so a new
    field reaches every one of them.
    """

    scale: float = 1.0
    runs: Optional[int] = None      # None = each spec's full suite
    profile_source: str = "measured"

    def for_benchmark(self, spec):
        """This configuration with ``runs`` capped at ``spec``'s suite."""
        return self._replace(
            runs=spec.runs if self.runs is None
            else min(self.runs, spec.runs))


_UNSET = object()


SLOT_COUNTS = (1, 2, 4, 8)  # the k + l values of Table 5

SCHEMES = ("SBTB", "CBTB", "FS")


class BenchmarkRun:
    """All measured artifacts for one benchmark at one scale."""

    def __init__(self, name, spec, program, layout, profile, trace,
                 scale, runs, manifest=None):
        self.name = name
        self.spec = spec
        self.program = program          # base compiled program
        self.layout = layout            # LayoutResult (FS program inside)
        self.profile = profile
        self.trace = trace              # merged evaluation trace
        self.scale = scale
        self.runs = runs
        self.manifest = manifest        # RunManifest (None when uncached)
        self._stats = None
        self._predictions = None
        self._expansions = None

    @property
    def fs_program(self):
        return self.layout.program

    @property
    def stats(self):
        """Trace statistics (Tables 1 and 2)."""
        if self._stats is None:
            self._stats = self.trace.stats()
        return self._stats

    @property
    def source_lines(self):
        return self.spec.source_lines()

    def predictions(self):
        """PredictionStats per scheme over the evaluation trace.

        Simulates the paper's configuration (256-entry buffers, a 2-bit
        CBTB counter with threshold 2) once and memoises the result.
        The trace's kernel encoding is then released, since no paper
        table simulates the trace again.
        """
        if self._predictions is None:
            from repro.kernels import EncodedTrace

            with TELEMETRY.span("runner.predict", benchmark=self.name,
                                entries=256):
                self._predictions = {
                    "SBTB": simulate(SimpleBTB(256), self.trace),
                    "CBTB": simulate(CounterBTB(256), self.trace),
                    "FS": simulate(
                        ForwardSemanticPredictor(program=self.fs_program),
                        self.trace),
                }
            EncodedTrace.release(self.trace)
        return self._predictions

    def expansions(self):
        """Table 5's code-size reports, one per slot count."""
        if self._expansions is None:
            with TELEMETRY.span("runner.expansions", benchmark=self.name):
                self._expansions = {
                    n_slots: fill_forward_slots(self.fs_program, n_slots)[1]
                    for n_slots in SLOT_COUNTS
                }
        return self._expansions


class SuiteRunner:
    """Runs benchmarks and caches their traces and profiles.

    ``scale``, ``runs`` and ``profile_source`` are the run
    configuration, kept whole in :attr:`config`; ``cache_dir`` and
    ``event_log`` only say where this deployment keeps its files.
    Every laid-out program is IR-verified.

    Args:
        scale: input size multiplier (1.0 = paper-scale).
        runs: cap on profiling runs per benchmark (None = the spec's
            full suite).
        cache_dir: trace cache directory; None = default; False
            disables caching entirely.
        event_log: path of the telemetry JSONL event log this run
            writes to (recorded in run manifests); None when telemetry
            is off or in-memory.
        profile_source: ``"measured"`` (default) profiles each
            benchmark on its input suite; ``"static"`` estimates the
            profile from the IR alone — the profiler is never invoked,
            cache stems carry a ``+static`` marker, and the source is
            recorded in run manifests.

    After a parallel ``run_all``, :attr:`last_warm_report` holds the
    supervised warm's :class:`~repro.resilience.supervisor.RunReport`
    (succeeded / retried / failed per benchmark).
    """

    def __init__(self, scale=1.0, runs=None, cache_dir=None,
                 event_log=None, profile_source="measured"):
        if profile_source not in PROFILE_SOURCES:
            raise ValueError(
                "unknown profile source %r (expected one of %s)"
                % (profile_source, ", ".join(PROFILE_SOURCES)))
        self.config = RunConfig(scale, runs, profile_source)
        if cache_dir is False:
            self.cache_dir = None
        else:
            self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.event_log = str(event_log) if event_log else None
        self.last_warm_report = None
        self._memo = {}
        self._programs = {}
        self._git_sha = _UNSET

    # -- cache plumbing ------------------------------------------------------

    def _cache_paths(self, name, config, source):
        """The (trace, profile) paths of one benchmark's cache entry.

        The only owner of the content-addressed stem format: everything
        that can change the cached trace is baked in — the source hash
        (so an edit to the benchmark program invalidates it), the
        benchmark's resolved :class:`RunConfig`, and the cache format
        version.  Static-profile entries carry a ``+static`` marker:
        the layout they trace was driven by estimated counts, so they
        must never collide with measured entries of the same benchmark.
        """
        if self.cache_dir is None:
            return None, None
        digest = hashlib.sha1(source.encode()).hexdigest()[:10]
        marker = "" if config.profile_source == "measured" else "+static"
        stem = ("%s%s-s%s-r%d-v%d-%s"
                % (name, marker, repr(config.scale), config.runs,
                   CACHE_FORMAT_VERSION, digest)).replace(".", "_")
        return (self.cache_dir / (stem + ".npz"),
                self.cache_dir / (stem + ".json"))

    def _report_stale_versions(self, name, trace_path):
        """Detect cache entries written under another format version.

        The format version is baked into the cache file name, so a
        bump silently turns every old entry into dead weight; this
        surfaces each one as a structured ``cache.invalidated`` event
        (and counter) instead of leaving the staleness invisible.
        """
        if trace_path is None or not self.cache_dir.is_dir():
            return []
        # Names that split around a version into this name's head and
        # tail (``_cache_paths`` always writes a version).  A glob
        # would compile a fresh pattern per benchmark.
        head, _, tail = _VERSION_IN_STEM.split(trace_path.name, maxsplit=1)
        stale = []
        for entry in sorted(os.listdir(self.cache_dir)):
            parts = _VERSION_IN_STEM.split(entry, maxsplit=1)
            if len(parts) != 3 or (parts[0], parts[2]) != (head, tail):
                continue
            found = int(parts[1])
            if found == CACHE_FORMAT_VERSION:
                continue
            path = self.cache_dir / entry
            stale.append(path)
            TELEMETRY.count("runner.cache.invalidated")
            TELEMETRY.event(
                "cache.invalidated", benchmark=name, path=str(path),
                found_version=found,
                expected_version=CACHE_FORMAT_VERSION)
        return stale

    def _repo_git_sha(self):
        if self._git_sha is _UNSET:
            self._git_sha = git_sha(Path(__file__).resolve().parents[3])
        return self._git_sha

    # -- crash-safe cache load/store ----------------------------------------

    def _load_cache_entry(self, name, program, trace_path, profile_path):
        """(profile, trace, manifest) from disk, or (None, None, None).

        An entry is a **miss** when none of its three files exist; it
        is **corrupt** — quarantined and reported, then treated as a
        miss — when the files are incomplete, the manifest does not
        parse, a checksum disagrees, or an artifact fails to parse or
        to check (the profile's counts must fit ``program``'s CFG).
        Only the typed taxonomy is caught here; a genuine bug still
        raises.
        """
        manifest_path = manifest_path_for(trace_path)
        paths = (trace_path, profile_path, manifest_path)
        missing = [path for path in paths if not path.exists()]
        if len(missing) == len(paths):
            return None, None, None
        try:
            if missing:
                raise CacheCorruptError(
                    str(trace_path),
                    "incomplete entry: %s missing" % missing[0].name)
            manifest = RunManifest.load(manifest_path)
            for key, path in (("trace", trace_path),
                              ("profile", profile_path)):
                expected = manifest.checksums.get(key)
                if not expected:
                    raise CacheCorruptError(
                        str(path), "no recorded checksum for %r" % key)
                if not verify_checksum(path, expected):
                    raise CacheCorruptError(
                        str(path),
                        "checksum mismatch (expected %s)" % expected)
            try:
                with np.load(trace_path) as arrays:
                    trace = BranchTrace.from_arrays(arrays)
                profile = Profile.from_dict(
                    json.loads(profile_path.read_text()))
                profile.check(program)
            except (OSError, ValueError, KeyError,
                    zipfile.BadZipFile) as error:
                raise CacheCorruptError(
                    str(trace_path),
                    "artifact rejected: %s" % error) from error
        except (CacheCorruptError, ManifestError) as error:
            self._quarantine_entry(name, paths, error)
            return None, None, None
        return profile, trace, manifest

    def _quarantine_entry(self, name, paths, error):
        """Move a damaged entry aside so it is recomputed exactly once."""
        TELEMETRY.count("runner.cache.corrupt")
        TELEMETRY.event("cache.corrupt", benchmark=name,
                        path=str(paths[0]),
                        error=type(error).__name__,
                        reason=str(error))
        for path in paths:
            quarantine(path, reason=str(error), benchmark=name)

    def _store_cache_entry(self, name, config, trace_path, profile_path,
                           profile, trace):
        """Atomically persist an entry; returns its manifest.

        All three files are written via the crash-safe store; the
        manifest carries the artifact checksums.  An ``OSError`` (full
        disk, permissions) degrades gracefully: the partial entry is
        removed so nothing torn survives, a ``cache.store_failed``
        event records why, and the caller keeps the in-memory result.
        """
        manifest_path = manifest_path_for(trace_path)
        try:
            with TELEMETRY.span("runner.cache_store", benchmark=name):
                checksums = {
                    "trace": atomic_write_npz(trace_path,
                                              trace.to_arrays()),
                    "profile": atomic_write_text(
                        profile_path, json.dumps(profile.to_dict())),
                }
            manifest = self._build_manifest(name, config, trace_path,
                                            profile_path, checksums)
            manifest.write(manifest_path)
            return manifest
        except OSError as error:
            for path in (trace_path, profile_path, manifest_path):
                try:
                    path.unlink()
                except OSError:
                    pass
            TELEMETRY.count("runner.cache.store_failed")
            TELEMETRY.event("cache.store_failed", benchmark=name,
                            path=str(trace_path), error=str(error))
            return self._build_manifest(name, config, trace_path,
                                        profile_path)

    # -- execution ------------------------------------------------------------

    def run(self, name):
        """Produce (and memoise) the :class:`BenchmarkRun` for ``name``."""
        if name in self._memo:
            return self._memo[name]

        spec = get_benchmark(name)
        config = self.config.for_benchmark(spec)
        program = self._program(spec)

        trace_path, profile_path = self._cache_paths(name, config,
                                                     spec.source)
        self._report_stale_versions(name, trace_path)
        profile = None
        trace = None
        manifest = None
        layout = None
        if trace_path is not None:
            with TELEMETRY.span("runner.cache_load", benchmark=name):
                profile, trace, manifest = self._load_cache_entry(
                    name, program, trace_path, profile_path)

        cache_hit = trace is not None and profile is not None
        TELEMETRY.count("runner.cache.hit" if cache_hit
                        else "runner.cache.miss")
        if cache_hit:
            TELEMETRY.event("cache.hit", benchmark=name,
                            path=str(trace_path))
        elif trace_path is None:
            TELEMETRY.event("cache.miss", benchmark=name, path=None)
            profile, trace, layout = self._execute(spec, program, config)
        else:
            TELEMETRY.event("cache.miss", benchmark=name,
                            path=str(trace_path))
            profile, trace, manifest, layout = self._compute_locked(
                spec, program, config, trace_path, profile_path)

        if layout is None:      # cache hit: the VM pass did not run
            with TELEMETRY.span("runner.layout", benchmark=name):
                layout = build_fs_program(program, profile)

        if manifest is None:
            manifest = self._build_manifest(name, config, trace_path,
                                            profile_path)

        run = BenchmarkRun(name, spec, program, layout, profile, trace,
                           config.scale, config.runs, manifest=manifest)
        self._memo[name] = run
        return run

    def _program(self, spec):
        """``spec``'s compiled base program, compiled once per runner."""
        program = self._programs.get(spec.name)
        if program is None:
            with TELEMETRY.span("runner.compile", benchmark=spec.name):
                program = compile_source(spec.source, name=spec.name)
            self._programs[spec.name] = program
        return program

    def _compute_locked(self, spec, program, config, trace_path,
                        profile_path):
        """Compute + store one entry under its inter-process stem lock.

        The lock serialises concurrent warmers of the *same* benchmark
        (different stems proceed in parallel): the first holder
        computes and stores; later holders find the finished entry on
        re-check and load it, so the work happens once and the entry
        is written exactly once.  A lock that cannot be acquired
        within :data:`LOCK_TIMEOUT` (a wedged peer) degrades to an
        uncached in-process compute instead of blocking the campaign.

        Returns ``(profile, trace, manifest, layout)``; ``layout`` is
        None when the entry was loaded after a lock wait.
        """
        name = spec.name
        lock = StemLock(self.cache_dir, trace_path.stem,
                        timeout=LOCK_TIMEOUT)
        try:
            with lock:
                profile, trace, manifest = self._load_cache_entry(
                    name, program, trace_path, profile_path)
                if trace is not None:
                    TELEMETRY.event("cache.hit", benchmark=name,
                                    path=str(trace_path),
                                    after_lock_wait=True)
                    return profile, trace, manifest, None
                profile, trace, layout = self._execute(spec, program, config)
                manifest = self._store_cache_entry(
                    name, config, trace_path, profile_path, profile, trace)
                return profile, trace, manifest, layout
        except LockTimeout:
            profile, trace, layout = self._execute(spec, program, config)
            return profile, trace, None, layout

    def _build_manifest(self, name, config, trace_path, profile_path,
                        checksums=None):
        """The provenance record written beside the cache artifacts."""
        cache_key = trace_path.stem if trace_path is not None else None
        artifacts = {}
        if trace_path is not None:
            artifacts = {"trace": trace_path.name,
                         "profile": profile_path.name}
        return RunManifest(
            benchmark=name,
            cache_key=cache_key,
            format_version=CACHE_FORMAT_VERSION,
            config=config._asdict(),
            git_sha=self._repo_git_sha(),
            event_log=self.event_log,
            artifacts=artifacts,
            checksums=checksums,
        )

    def _execute(self, spec, program, config):
        """One VM pass per input: run the base program, fold its
        profile from the runs' block paths, lay it out, and derive the
        laid-out program's trace from each run's block path.

        Layout's translation validator shows that the laid-out program
        computes what the base program computes, and the derivation
        raises when a base run took an indirect jump layout cannot
        remap or when a laid-out run would exceed
        :data:`MAX_INSTRUCTIONS`.  A base run that left the compiled VM
        has no block path and raises here.

        With ``profile_source="static"`` the profile is estimated from
        the IR instead of folded from the runs.

        Returns ``(profile, trace, layout)``.
        """
        suite = spec.input_suite(scale=config.scale, runs=config.runs)
        with TELEMETRY.span("runner.vm", benchmark=spec.name):
            paths = checked_paths(program, [
                run_program(program, inputs=streams,
                            max_instructions=MAX_INSTRUCTIONS).block_path
                for streams in suite])
        if config.profile_source == "static":
            from repro.analysis.staticpred import estimate_profile

            with TELEMETRY.span("runner.staticpred", benchmark=spec.name):
                profile = estimate_profile(program)
        else:
            with TELEMETRY.span("runner.profile", benchmark=spec.name):
                profile = Profile.from_paths(program, paths)
        with TELEMETRY.span("runner.layout", benchmark=spec.name):
            layout = build_fs_program(program, profile)

        with TELEMETRY.span("runner.trace", benchmark=spec.name):
            merged = BranchTrace.concatenate(
                layout.derive_traces(paths, MAX_INSTRUCTIONS))
        return profile, merged, layout

    def run_all(self, names=None, workers=None):
        """Run every benchmark (or ``names``); returns name -> run.

        Args:
            workers: when > 1 and the disk cache is enabled, warm the
                cache with supervised worker processes (per-benchmark
                timeout, bounded retries), then load everything in
                this process.  Serial otherwise.

        Warm failures never abort the sweep: a benchmark whose workers
        kept dying is simply recomputed serially in-process here, and
        :attr:`last_warm_report` says who needed retries or fell
        through.
        """
        from repro.benchmarksuite import BENCHMARK_NAMES
        names = list(names or BENCHMARK_NAMES)
        if workers and workers > 1 and self.cache_dir is not None:
            self._warm_parallel(names, workers)
        return {name: self.run(name) for name in names}

    def _warm_parallel(self, names, workers):
        from repro.resilience.supervisor import run_supervised

        pending = [name for name in names if name not in self._memo]
        if not pending:
            return None
        # Each program is compiled here, once, and shipped to its
        # worker; this process lays it out again from the warmed cache.
        tasks = [(name, (name, self._program(get_benchmark(name)),
                         self.config, str(self.cache_dir)))
                 for name in pending]
        with TELEMETRY.span("runner.warm", benchmarks=len(pending),
                            workers=workers):
            report = run_supervised(
                tasks, _warm_cache_entry,
                workers=min(workers, len(pending)),
                timeout=WARM_TIMEOUT, retries=WARM_RETRIES,
                backoff=0.25)
        self.last_warm_report = report
        if not report.ok:
            TELEMETRY.count("runner.warm.partial_failures")
            TELEMETRY.event("warm.partial_failure",
                            failed=report.failed,
                            degraded=report.degraded)
        return report


def _warm_cache_entry(arguments):
    """Worker: execute one benchmark's compiled program so its trace
    cache exists."""
    name, program, config, cache_dir = arguments
    runner = SuiteRunner(cache_dir=cache_dir, **config._asdict())
    runner._programs[name] = program
    runner.run(name)
    return name
