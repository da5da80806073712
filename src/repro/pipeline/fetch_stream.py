"""Reconstructing the fetch stream from a branch trace.

Between two branches the machine fetches sequentially, so a branch
trace (sites, directions, targets, gaps) plus the entry point fully
determines the instruction-address stream of a single run.
Reconstructing it is a strong internal consistency check on the trace
itself: every record's site must equal the previous landing plus its
gap.

Only single-run traces reconstruct (merged multi-run traces have
invisible restarts); :class:`~repro.vm.machine.Machine` address traces
remain available for anything else.
"""


class TraceInconsistency(ValueError):
    """The branch trace does not describe a sequential fetch stream."""


def fetch_segments(trace, entry, validate=True):
    """Sequential fetch segments [(start, length), ...] of one run.

    Each segment covers the non-branch instructions since the previous
    branch plus the branch itself; a final branchless tail (e.g. the
    HALT path) is appended when the instruction count says one exists.
    """
    segments = []
    current = entry
    consumed = 0
    for site, _, taken, target, gap in trace.records():
        if validate and site != current + gap:
            raise TraceInconsistency(
                "record at site %d does not follow landing %d + gap %d"
                % (site, current, gap))
        segments.append((current, gap + 1))
        consumed += gap + 1
        current = target if taken else site + 1
    tail = trace.total_instructions - consumed
    if tail > 0:
        segments.append((current, tail))
    elif validate and tail < 0:
        raise TraceInconsistency(
            "records cover %d instructions but the trace executed %d"
            % (consumed, trace.total_instructions))
    return segments


def fetch_addresses(trace, entry, validate=True):
    """Iterate every fetched instruction address of one run."""
    for start, length in fetch_segments(trace, entry, validate=validate):
        yield from range(start, start + length)
