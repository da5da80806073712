"""One traced run of a workload: per-layer self time and exact counts.

``bench/run.py`` starts this in a fresh child process::

    python bench/traced.py LEDGER.json -- all --scale 1.0 --workers 1

The child times ``import repro.cli``, wraps the public callables named
in :data:`LAYERS`, :data:`VM_RUN` and :data:`COUNTED` at every binding
in the loaded ``repro`` modules (callers use ``from X import f``, so
patching only the home attribute would miss them; methods are patched
on their class), then calls ``repro.cli.main`` with the arguments after
``--``.  Standard output is the program's own, byte for byte.  Spans
and counts stay in memory and are written to LEDGER.json when the run
ends.

A layer's self time is its span's duration minus the time its child
spans cover; ``other_s`` is the traced wall time no span claims.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: Rendered sections of the ``all`` and ``sweeps`` experiments.
SECTIONS = ("table1", "table2", "table3", "table4", "table5", "figures",
            "headline", "storage", "sweeps")

#: Layer metric -> the public callables ("module:qualname") it spans.
LAYERS = {
    "lang.compile_s": ["repro.lang.compiler:compile_source"],
    "profiling.profile_s": ["repro.profiling.profiler:profile_program"],
    "vm.trace_stats_s": ["repro.vm.tracing:BranchTrace.stats"],
    "traceopt.layout_s": ["repro.traceopt.layout:build_fs_program"],
    "traceopt.slots_s": [
        "repro.traceopt.forward_slots:fill_forward_slots"],
    "cache.store_s": ["repro.resilience.store:atomic_write_npz",
                      "repro.resilience.store:atomic_write_text",
                      "repro.telemetry.manifest:RunManifest.write"],
    "cache.verify_s": ["repro.resilience.store:verify_checksum"],
    "cache.decode_s": ["repro.vm.tracing:BranchTrace.from_arrays",
                       "repro.profiling.profiler:Profile.from_dict"],
    "cache.lock_wait_s": ["repro.resilience.store:StemLock.__enter__"],
    "resilience.checkpoint_s": [
        "repro.resilience.checkpoint:SweepCheckpoint.load",
        "repro.resilience.checkpoint:SweepCheckpoint.record",
        "repro.resilience.checkpoint:SweepCheckpoint.clear"],
    "kernels.encode_s": ["repro.kernels.encode:EncodedTrace.of"],
    "kernels.evict_s": ["repro.kernels.evict:sbtb_evict",
                        "repro.kernels.evict:cbtb_evict",
                        "repro.kernels.evict:store_evict"],
    "kernels.cycle_s": ["repro.kernels.cycle:cycle_kernel"],
    "predictors.simulate_s": ["repro.predictors.base:simulate"],
    "pipeline.cycle_sim_s": ["repro.pipeline.cycle_sim:CycleSimulator.run"],
    "conformance.fuzz_s": ["repro.conformance.fuzz:TraceFuzzer.trace"],
    "conformance.replay_s": [
        "repro.conformance.differential:replay_divergence"],
    "conformance.engine_check_s": [
        "repro.conformance.differential:engine_divergence"],
    "conformance.cycle_check_s": [
        "repro.conformance.differential:cycle_divergence"],
    "conformance.golden_s": ["repro.conformance.golden:check_golden",
                             "repro.conformance.golden:check_paper_bands"],
}
LAYERS.update({"experiments.render_s.%s" % section:
               ["repro.experiments.%s:render" % section]
               for section in SECTIONS})

#: Machine.run is one callable but two layers, told apart per call.
VM_RUN = "repro.vm.machine:Machine.run"
VM_LAYERS = ("vm.profile_pass_s", "vm.trace_pass_s")

#: Callables that are counted but not spanned.
COUNTED = ("repro.kernels.engine:resolve_engine",
           "repro.experiments.runner:SuiteRunner.run",
           "repro.resilience.store:quarantine")

#: Units of the per-layer metrics that are not self times in seconds.
UNITS = {
    "lang.compile_calls": "count",
    "vm.instructions": "count",
    "vm.branch_records": "count",
    "vm.minstr_per_s": "Minstr/s",
    "traceopt.layout_per_benchmark": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.quarantined": "count",
    "kernels.evict_rows": "count",
    "predictors.simulate_calls": "count",
    "predictors.records": "count",
    "predictors.records_per_s": "1/s",
    "predictors.vector_share": "ratio",
    "trace_overhead": "ratio",
}

#: Counts that must repeat exactly between two runs of the same code.
EXACT_COUNTS = ("vm.instructions", "vm.branch_records",
                "predictors.records", "kernels.evict_rows")


def unit_of(metric):
    """The unit a ledger metric is reported in."""
    return UNITS.get(metric, "s")


class Ledger:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []         # [layer, start, end, parent index]
        self._open = []         # [span index, child seconds] per level

    def span(self, layer, function, args, kwargs):
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([layer, start, None, parent])
        self._open.append([index, 0.0])
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, children = self._open.pop()
            duration = end - start
            self.spans[index][2] = end
            self.self_s[layer] += duration - children
            self.inclusive_s[layer] += duration
            if self._open:
                self._open[-1][1] += duration


def _vm_layer(machine):
    if machine.probe_addresses is not None:
        return "vm.profile_pass_s"
    return "vm.trace_pass_s"


def _after_call(counts, target, args, kwargs, result):
    """Exact counts taken at the call boundary of ``target``."""
    if target.endswith(":compile_source"):
        counts["lang.compile_calls"] += 1
    elif target.endswith(":Machine.run"):
        counts["vm.passes"] += 1
        counts["vm.instructions"] += result.instructions
        if result.trace is not None:
            counts["vm.branch_records"] += len(result.trace)
    elif target.endswith(":build_fs_program"):
        counts["traceopt.layout_calls"] += 1
    elif target.startswith("repro.kernels.evict:"):
        counts["kernels.evict_rows"] += len(args[0])
    elif target.endswith(":simulate"):
        trace = args[1] if len(args) > 1 else kwargs["trace"]
        counts["predictors.simulate_calls"] += 1
        counts["predictors.records"] += len(trace)
    elif target.endswith(":resolve_engine"):
        records = len(args[2] if len(args) > 2 else kwargs["trace"])
        counts["engine.records"] += records
        if result == "vector":
            counts["engine.vector_records"] += records
    elif target.endswith(":quarantine"):
        counts["cache.quarantined"] += 1


def _wrap(ledger, target, layer, function):
    if target.endswith(":SuiteRunner.run"):
        @functools.wraps(function)
        def suite_run(runner, name, *args, **kwargs):
            # A benchmark's first run() either loads the cache or makes
            # the VM passes; later calls return the memoised run.
            fresh = name not in runner._memo
            passes = ledger.counts["vm.passes"]
            result = function(runner, name, *args, **kwargs)
            if fresh:
                ledger.counts["cache.benchmarks"] += 1
                if ledger.counts["vm.passes"] == passes:
                    ledger.counts["cache.served"] += 1
            return result
        return suite_run

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if layer is None:
            result = function(*args, **kwargs)
        else:
            name = layer(args[0]) if callable(layer) else layer
            result = ledger.span(name, function, args, kwargs)
        _after_call(ledger.counts, target, args, kwargs, result)
        return result
    return wrapper


def _rebind(original, replacement):
    """Replace every binding of ``original`` in the loaded repro modules,
    including values of module-level dicts (such as the CLI's table of
    experiment renderers)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(ledger, target, layer):
    """Wrap one ``module:qualname`` callable to report to ``ledger``."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            setattr(owner, attribute,
                    classmethod(_wrap(ledger, target, layer,
                                      raw.__func__)))
        else:
            setattr(owner, attribute, _wrap(ledger, target, layer, raw))
    else:
        original = getattr(owner, attribute)
        _rebind(original, _wrap(ledger, target, layer, original))


def install_all(ledger):
    # Import every target module first, so each binding exists to be
    # replaced and modules imported later copy the wrapped object.
    targets = [(target, layer) for layer, names in LAYERS.items()
               for target in names]
    targets += [(VM_RUN, _vm_layer)]
    targets += [(target, None) for target in COUNTED]
    for target, _ in targets:
        importlib.import_module(target.split(":")[0])
    for target, layer in targets:
        install(ledger, target, layer)


def metrics(ledger, wall_s):
    """Every per-layer metric of the run (all layers, even idle ones)."""
    self_s = ledger.self_s
    counts = ledger.counts
    values = {layer: self_s.get(layer, 0.0)
              for layer in ("process.import_s", *LAYERS, *VM_LAYERS)}
    vm_s = sum(ledger.inclusive_s.get(layer, 0.0) for layer in VM_LAYERS)
    simulate_s = ledger.inclusive_s.get("predictors.simulate_s", 0.0)
    benchmarks = counts["cache.benchmarks"]
    for name in ("lang.compile_calls", "vm.instructions",
                 "vm.branch_records", "cache.quarantined",
                 "kernels.evict_rows", "predictors.simulate_calls",
                 "predictors.records"):
        values[name] = counts[name]
    values["vm.minstr_per_s"] = (counts["vm.instructions"] / vm_s / 1e6
                                 if vm_s else 0.0)
    values["traceopt.layout_per_benchmark"] = (
        counts["traceopt.layout_calls"] / benchmarks if benchmarks else 0.0)
    values["cache.hit_ratio"] = (counts["cache.served"] / benchmarks
                                 if benchmarks else 0.0)
    values["predictors.records_per_s"] = (
        counts["predictors.records"] / simulate_s if simulate_s else 0.0)
    values["predictors.vector_share"] = (
        counts["engine.vector_records"] / counts["engine.records"]
        if counts["engine.records"] else 0.0)
    values["other_s"] = wall_s - sum(self_s.values())
    return values


def main(argv):
    ledger_path = argv[0]
    program_argv = argv[argv.index("--") + 1:]
    ledger = Ledger()
    start = time.perf_counter()
    ledger.span("process.import_s", importlib.import_module,
                ("repro.cli",), {})
    import_s = time.perf_counter() - start

    install_all(ledger)     # outside the traced window

    cli = sys.modules["repro.cli"]
    start = time.perf_counter()
    try:
        exit_code = cli.main(program_argv)
    finally:
        wall_s = import_s + time.perf_counter() - start
        sys.stdout.flush()
        names = sorted({span[0] for span in ledger.spans})
        index = {name: position for position, name in enumerate(names)}
        origin = ledger.spans[0][1]
        with open(ledger_path, "w") as handle:
            json.dump({
                "argv": program_argv,
                "wall_s": wall_s,
                "metrics": metrics(ledger, wall_s),
                "counts": dict(ledger.counts),
                "span_layers": names,
                # [layer index, start s, end s, parent span index];
                # times are relative to the start of the import.
                "spans": [[index[layer], begin - origin, end - origin,
                           parent]
                          for layer, begin, end, parent in ledger.spans],
            }, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
