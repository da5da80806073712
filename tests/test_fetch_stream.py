"""Tests for fetch-stream reconstruction.

The central property: the stream reconstructed from a branch trace is
exactly the address stream the VM recorded while executing — for every
benchmark.  This doubles as a consistency proof of the trace format
(sites, targets, and gaps agree with actual control flow).
"""

import pytest

from repro.benchmarksuite import BENCHMARK_NAMES, compile_benchmark, get_benchmark
from repro.lang import compile_source
from repro.pipeline.fetch_stream import (
    TraceInconsistency,
    fetch_addresses,
    fetch_segments,
)
from repro.vm import Machine
from repro.vm.tracing import BranchClass, BranchTrace


def traced(source, inputs=()):
    program = compile_source(source, "t")
    machine = Machine(program, inputs=inputs, trace=True,
                      address_trace=True)
    result = machine.run()
    return program, result


SMALL = """
int main() {
    int i; int t = 0;
    for (i = 0; i < 20; i = i + 1) {
        if (i % 3 == 0) t = t + 2;
        else t = t + 1;
    }
    puti(t);
    return 0;
}
"""


def test_reconstruction_matches_recorded_addresses():
    program, result = traced(SMALL)
    rebuilt = list(fetch_addresses(result.trace, program.entry))
    assert rebuilt == result.addresses


@pytest.mark.parametrize("name", BENCHMARK_NAMES[:5])
def test_reconstruction_matches_on_benchmarks(name):
    spec = get_benchmark(name)
    program = compile_benchmark(name)
    streams = spec.inputs_for_run(0, scale=0.03)
    machine = Machine(program, inputs=streams, trace=True,
                      address_trace=True, max_instructions=30_000_000)
    result = machine.run()
    rebuilt = list(fetch_addresses(result.trace, program.entry))
    assert rebuilt == result.addresses


def test_segments_cover_instruction_count():
    program, result = traced(SMALL)
    segments = fetch_segments(result.trace, program.entry)
    assert sum(length for _, length in segments) == result.instructions


def test_validation_catches_corrupt_trace():
    program, result = traced(SMALL)
    records = list(result.trace.records())
    site, *rest = records[3]
    records[3] = (site + 1, *rest)   # break the site/gap chain
    corrupted = BranchTrace.from_records(
        records, result.trace.total_instructions)
    with pytest.raises(TraceInconsistency):
        fetch_segments(corrupted, program.entry)


def test_validation_catches_bad_total():
    program, result = traced(SMALL)
    trace = result.trace
    trace.total_instructions = 1
    with pytest.raises(TraceInconsistency):
        fetch_segments(trace, program.entry)


def test_validation_can_be_disabled():
    trace = BranchTrace.from_records(
        [(5, BranchClass.CONDITIONAL, True, 0, 2)])
    # entry 0: first record at site 5 with gap 2 is inconsistent...
    with pytest.raises(TraceInconsistency):
        fetch_segments(trace, 0)
    # ...but reconstructable structurally if asked.
    segments = fetch_segments(trace, 0, validate=False)
    assert segments == [(0, 3)]

