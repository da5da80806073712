"""Benchmark registry: name -> (Minic source, input generation, runs)."""

from repro.benchmarksuite.inputs import DeterministicRandom
from repro.benchmarksuite.programs import (
    cccp, cmp_bench, compress, eqn, espresso, grep, lex, make_bench,
    tar, tee, wc, yacc,
)
from repro.lang import compile_source

_MODULES = {
    "cccp": cccp,
    "cmp": cmp_bench,
    "compress": compress,
    "eqn": eqn,
    "espresso": espresso,
    "grep": grep,
    "lex": lex,
    "make": make_bench,
    "tar": tar,
    "tee": tee,
    "wc": wc,
    "yacc": yacc,
}

# The ten programs of Tables 1-4.
BENCHMARK_NAMES = ("cccp", "cmp", "compress", "grep", "lex", "make",
                   "tar", "tee", "wc", "yacc")
# Table 5 additionally lists eqn and espresso.
EXTRA_BENCHMARK_NAMES = ("eqn", "espresso")
ALL_BENCHMARK_NAMES = tuple(sorted(_MODULES))


class BenchmarkSpec:
    """One benchmark: its program text and its input suite."""

    def __init__(self, name, module):
        self.name = name
        self.source = module.SOURCE
        self.runs = module.RUNS
        self.description = module.DESCRIPTION
        self._make_inputs = module.make_inputs

    def source_lines(self):
        """Static size of the benchmark source (Table 1's Lines)."""
        return len([line for line in self.source.splitlines()
                    if line.strip()])

    def inputs_for_run(self, run_index, scale=1.0):
        """Input streams for one profiling run.

        Args:
            run_index: which run (0 .. runs-1); each run gets a
                distinct deterministic input.
            scale: input size multiplier (1.0 = paper-scale suite,
                small fractions for tests).

        Returns:
            list of bytes objects, one per input stream.
        """
        if not 0 <= run_index < self.runs:
            raise ValueError("run_index out of range for %s" % self.name)
        # str.hash() is randomised per process; use a fixed polynomial
        # hash so the input suite is identical across runs and machines.
        name_hash = 0
        for char in self.name:
            name_hash = (name_hash * 131 + ord(char)) % (1 << 32)
        rng = DeterministicRandom(name_hash * 1000 + run_index + 17)
        return self._make_inputs(rng, run_index, scale)

    def input_suite(self, scale=1.0, runs=None):
        """All runs' inputs: the profiling suite of Table 1."""
        n_runs = self.runs if runs is None else min(runs, self.runs)
        return [self.inputs_for_run(index, scale) for index in range(n_runs)]

    def __repr__(self):
        return "BenchmarkSpec(%r, %d runs)" % (self.name, self.runs)


def get_benchmark(name):
    """Look up a benchmark by name; raises KeyError for unknown names."""
    if name not in _MODULES:
        raise KeyError("unknown benchmark %r (have: %s)"
                       % (name, ", ".join(ALL_BENCHMARK_NAMES)))
    return BenchmarkSpec(name, _MODULES[name])


def compile_benchmark(name):
    """Compile a benchmark to a resolved Program."""
    spec = get_benchmark(name)
    return compile_source(spec.source, name=name)
