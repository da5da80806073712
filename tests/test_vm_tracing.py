"""Tests for branch traces: records, stats, merging, serialisation."""

import functools
import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.lang import compile_source
from repro.vm import run_program
from repro.vm.tracing import BranchClass, BranchRecord, BranchTrace

#: The trace columns, in record-tuple order.
COLUMNS = ("sites", "classes", "takens", "targets", "gaps")

#: The columns held in the narrowest dtype of their range.
NARROW = ("sites", "targets", "gaps")


def _sample_trace():
    return BranchTrace.from_records([
        (10, BranchClass.CONDITIONAL, True, 20, 3),
        (10, BranchClass.CONDITIONAL, False, 20, 1),
        (30, BranchClass.UNCONDITIONAL_KNOWN, True, 5, 0),
        (40, BranchClass.UNCONDITIONAL_UNKNOWN, True, 77, 2),
        (50, BranchClass.RETURN, True, 31, 4),
    ], total_instructions=15)


@functools.lru_cache(maxsize=None)
def _vm_trace():
    program = compile_source("""
        int twice(int x) { return x + x; }
        int main() {
            int i; int t = 0;
            for (i = 0; i < 20; i = i + 1) {
                if (i % 3 == 0) t = t + twice(i);
            }
            puti(t);
            return 0;
        }
    """, "vm-trace")
    return run_program(program, trace=True).trace


def _npz_roundtrip(trace):
    buffer = io.BytesIO()
    np.savez(buffer, **trace.to_arrays())
    buffer.seek(0)
    with np.load(buffer) as arrays:
        return BranchTrace.from_arrays(arrays)


def _assert_narrow(trace):
    """Classes are int8, takens bool, and every other column is in the
    narrowest signed dtype of its values."""
    assert trace.classes.dtype == np.int8
    assert trace.takens.dtype == bool
    for column in NARROW:
        values = getattr(trace, column)
        assert values.dtype == np.dtype(
            "int%d" % _narrowest_bits(values.tolist()))


def _assert_same_trace(trace, other):
    """Same length, instruction count, dtypes and values."""
    assert len(trace) == len(other)
    assert trace.total_instructions == other.total_instructions
    _assert_narrow(trace)
    for column in COLUMNS:
        assert getattr(other, column).dtype == getattr(trace, column).dtype
        assert np.array_equal(getattr(trace, column),
                              getattr(other, column))


def test_len_and_indexing():
    trace = _sample_trace()
    assert len(trace) == 5
    record = trace[0]
    assert record.site == 10
    assert record.taken is True
    assert record.gap == 3


def test_record_equality():
    a = BranchRecord(1, 0, True, 2, 3)
    b = BranchRecord(1, 0, True, 2, 3)
    c = BranchRecord(1, 0, False, 2, 3)
    assert a == b
    assert a != c


def test_record_classification():
    trace = _sample_trace()
    assert trace[0].is_conditional
    assert trace[2].target_known
    assert not trace[3].target_known
    assert trace[4].target_known  # returns are known-target (RAS)


def test_stats():
    stats = _sample_trace().stats()
    assert stats.conditional == 2
    assert stats.conditional_taken == 1
    assert stats.unconditional == 3
    assert stats.unconditional_known == 2  # jump + return
    assert stats.unconditional_unknown == 1
    assert stats.branches == 5
    assert stats.taken_fraction == 0.5
    assert abs(stats.known_fraction - 2 / 3) < 1e-12
    assert abs(stats.control_fraction - 5 / 15) < 1e-12


def test_stats_empty():
    stats = BranchTrace().stats()
    assert stats.taken_fraction == 0.0
    assert stats.known_fraction == 0.0
    assert stats.control_fraction == 0.0


def test_concatenate():
    a = _sample_trace()
    b = _sample_trace()
    merged = BranchTrace.concatenate([a, b])
    assert len(merged) == 10
    assert merged.total_instructions == 30
    assert merged[5] == b[0]
    assert len(a) == 5


def test_records_are_python_scalars():
    """The scalar loop, the oracles and every JSON writer get plain
    ints and bools, never NumPy scalars."""
    trace = _sample_trace()
    for record in trace.records():
        assert [type(value) for value in record] == \
            [int, int, bool, int, int]
    record = trace[1]
    assert [type(value) for value in (record.site, record.branch_class,
                                      record.taken, record.target,
                                      record.gap)] == \
        [int, int, bool, int, int]


def test_roundtrip_arrays():
    trace = _sample_trace()
    rebuilt = BranchTrace.from_arrays(trace.to_arrays())
    assert len(rebuilt) == len(trace)
    assert rebuilt.total_instructions == trace.total_instructions
    for index in range(len(trace)):
        assert rebuilt[index] == trace[index]


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=100),
), max_size=50))
def test_roundtrip_property(records):
    """A VM-built trace, a ``from_records`` trace and a trace back from
    the ``.npz`` layout hold every column in the narrowest dtype of its
    range, and the same dtype and values come out as went in."""
    trace = BranchTrace.from_records(records)
    assert list(trace.records()) == records
    assert trace.total_instructions == \
        sum(gap for *_, gap in records) + len(records)
    for source in (trace, _vm_trace()):
        _assert_same_trace(source, BranchTrace.from_records(
            source.records(), source.total_instructions))
        _assert_same_trace(source, _npz_roundtrip(source))


#: Values on both sides of the int8, int16 and int32 limits.
_LIMITS = sorted({value for bits in (8, 16, 32)
                  for edge in (-2 ** (bits - 1), 2 ** (bits - 1) - 1)
                  for value in (edge - 1, edge, edge + 1)})
_INT64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)


def _narrowest_bits(column):
    """The width the narrow layout must pick for ``column``."""
    for bits in (8, 16, 32):
        limit = 2 ** (bits - 1)
        if all(-limit <= value < limit for value in column):
            return bits
    return 64


@given(st.lists(st.tuples(
    st.one_of(st.sampled_from(_LIMITS), _INT64),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.one_of(st.sampled_from(_LIMITS), _INT64),
    st.one_of(st.sampled_from([v for v in _LIMITS if v >= 0]),
              st.integers(min_value=0, max_value=2 ** 40)),
), max_size=20), st.integers(min_value=0, max_value=5))
@example([], 0)
@example([(-129, 0, True, 2 ** 31, 127), (-2 ** 40, 3, False, -1, 128)], 2)
def test_narrow_layout_roundtrip(records, tail):
    """The on-disk layout stores each column as the trace holds it, in
    the narrowest signed dtype of its range (never truncating), and
    the trace back from it, through ``.npz`` too, holds the stored
    dtypes and the original records."""
    total = sum(gap for *_, gap in records) + len(records) + tail
    trace = BranchTrace.from_records(records, total)
    arrays = trace.to_arrays()
    for index, column in ((0, "sites"), (3, "targets"), (4, "gaps")):
        values = [record[index] for record in records]
        assert arrays[column].dtype == np.dtype(
            "int%d" % _narrowest_bits(values))
        assert arrays[column].dtype == getattr(trace, column).dtype
        assert arrays[column].tolist() == values
    assert arrays["flags"].dtype == np.int8
    assert arrays["flags"].tolist() == [
        branch_class << 1 | taken for _, branch_class, taken, _, _ in records]
    for rebuilt in (BranchTrace.from_arrays(arrays), _npz_roundtrip(trace)):
        _assert_same_trace(trace, rebuilt)
        assert list(rebuilt.records()) == records


def _layout_with(**changes):
    arrays = _sample_trace().to_arrays()
    arrays.update(changes)
    return arrays


@pytest.mark.parametrize("changes, message", [
    ({"sites": np.array([10, 10, 30, 40, 50], dtype=np.float64)},
     "not a signed integer"),
    ({"flags": np.array([1, 0, 3, 5, 7], dtype=np.uint8)},
     "not a signed integer"),
    ({"flags": np.array([1, 0, 8, 5, 7], dtype=np.int8)}, r"\[0, 7\]"),
    ({"flags": np.array([1, 0, -1, 5, 7], dtype=np.int8)}, r"\[0, 7\]"),
    ({"gaps": np.array([3, -1, 0, 2, 4], dtype=np.int8)}, "negative gap"),
    ({"total_instructions": np.int64(14)}, "exceed its 14 instructions"),
    ({"total_instructions": np.array([15, 15])}, "not a scalar"),
])
def test_from_arrays_rejects_broken_layouts(changes, message):
    with pytest.raises(ValueError, match=message):
        BranchTrace.from_arrays(_layout_with(**changes))


def test_from_arrays_allows_instructions_after_the_last_branch():
    trace = BranchTrace.from_arrays(
        _layout_with(total_instructions=np.int64(16)))
    assert trace.total_instructions == 16


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=3),
    st.booleans(),
), max_size=200))
def test_stats_totals_property(events):
    """Class counts always partition the record count."""
    trace = BranchTrace.from_records(
        (0, branch_class, taken, 0, 0) for branch_class, taken in events)
    stats = trace.stats()
    assert stats.branches == len(events)
    assert (stats.conditional_taken + stats.conditional_not_taken
            + stats.unconditional_known + stats.unconditional_unknown
            == len(events))


def test_trace_stats_repr():
    assert "TraceStats" in repr(_sample_trace().stats())
