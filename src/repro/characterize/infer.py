"""Black-box inference driver: recover predictor parameters from probes.

The driver never inspects a predictor object.  It is handed a zero-arg
*factory* and observes nothing but the :class:`PredictionStats` that
``simulate()`` returns for crafted probe traces — the same discipline
the silicon reverse-engineering papers are forced into (they only see
retired-mispredict counters).  Warm-up transients are cancelled by a
*steady-state differential*: every measurement runs the same periodic
probe at two lengths on two fresh predictor instances and divides the
difference by the extra periods, so only the converged per-period rate
survives.  On top of that single primitive:

* **buffered** — any chain probe reports ``buffer_accesses > 0`` iff
  the scheme consults a buffer (``hit`` is not ``None``).
* **capacity** — binary search (doubling, then bisection) for the
  longest stride-1 always-taken chain with a zero steady-state
  buffer-miss rate.  The divergence point is exact: consecutive sites
  load the sets evenly, so ``m`` sites fit iff ``m <= entries``.
* **associativity** — the same search at stride = capacity.  The set
  count divides the capacity, so every probed site aliases into one
  set and the divergence point is the way count.
* **counter width / threshold** — flip-latency analysis on
  :func:`~repro.characterize.probes.step_trace`: the number of wrong
  predictions while the outcome is inverted measures the distance from
  one saturation rail to the decision threshold.  For a saturating
  counter in ``[0, 2^b - 1]`` predicting taken at ``>= t``, the
  down-flip costs ``2^b - t`` wrongs and the up-flip ``t``, so both
  parameters fall out of two subtractions.  Only attempted on
  history-free schemes — global history makes a single-site pattern
  index-hop instead of hammering one counter.
* **history depth** — the ladder: largest ``k`` such that the periodic
  pattern ``taken^k not-taken`` reaches a steady state with zero
  mispredictions.  Monotone in ``k``, hence binary searched.
* **replacement policy** — the eviction-victim experiment of
  :func:`~repro.characterize.probes.victim_trace`: refresh the LRU
  entry of a full set, force one eviction, and check whether the
  refresh changed the victim.
* **flush sensitivity** — re-run a resident chain with a flush
  interval; buffered schemes pick up extra misses, software schemes
  are unaffected.

Every conclusion carries a :class:`ProbeEvidence` row recording the
probe family, its parameters, and the raw observation that forced the
conclusion, so a mis-recovery is debuggable from the report alone.
"""

import math

from repro.predictors.base import simulate
from repro.telemetry.core import TELEMETRY

from repro.characterize.probes import (
    chain_trace, ladder_trace, step_trace, victim_trace)
from repro.characterize.report import CharacterizationReport, ProbeEvidence

#: Ceiling for the capacity search — predictors larger than this are
#: reported as ``entries=None`` ("at least MAX_ENTRIES") rather than
#: probed forever.
MAX_ENTRIES = 4096

#: Largest history depth the ladder climbs to.
MAX_HISTORY = 16

#: Largest saturating-counter width the step probe can resolve; the
#: step segments are sized to saturate a counter of this width.
MAX_COUNTER_BITS = 5


class _Probe:
    """Shared bookkeeping for one characterization run.

    :meth:`run` is the single measurement channel: a fresh predictor
    from ``factory``, one trace, one :class:`PredictionStats`.
    """

    def __init__(self, factory):
        self.factory = factory
        self.simulations = 0
        self.records = 0
        self.evidence = []

    def run(self, trace, flush_interval=None):
        """One fresh predictor, one trace, one PredictionStats."""
        stats = simulate(self.factory(), trace,
                         flush_interval=flush_interval)
        self.simulations += 1
        self.records += stats.total
        if TELEMETRY.enabled:
            TELEMETRY.count("characterize.simulations")
            TELEMETRY.count("characterize.records", stats.total)
        return stats

    def note(self, family, name, observation, conclusion, **params):
        self.evidence.append(ProbeEvidence(
            family=family, name=name, params=params,
            observation=observation, conclusion=conclusion))
        if TELEMETRY.enabled:
            TELEMETRY.count("characterize.probes")


def _steady_miss_rate(probe, build, base_units, family, name, **params):
    """Steady-state buffer misses per probe unit.

    ``build(units)`` must return a trace of that many repeated units;
    running at ``base_units`` and ``2 * base_units`` on fresh
    predictors and differencing cancels the warm-up prefix exactly.
    """
    short = probe.run(build(base_units))
    long = probe.run(build(2 * base_units))
    rate = (long.buffer_misses - short.buffer_misses) / base_units
    probe.note(family, name,
               {"units": base_units,
                "short_misses": short.buffer_misses,
                "long_misses": long.buffer_misses},
               "steady miss rate %.3f/unit" % rate, **params)
    return rate


def _steady_wrong_rate(probe, build, base_units, family, name, **params):
    """Steady-state wrong predictions per probe unit (same trick)."""
    short = probe.run(build(base_units))
    long = probe.run(build(2 * base_units))
    wrong_short = short.total - short.correct
    wrong_long = long.total - long.correct
    rate = (wrong_long - wrong_short) / base_units
    probe.note(family, name,
               {"units": base_units,
                "short_wrong": wrong_short, "long_wrong": wrong_long},
               "steady mispredict rate %.3f/unit" % rate, **params)
    return rate


def _chain_laps(m):
    """Laps per measurement: enough that history-driven warm-up (at
    most tens of records) stays inside the cancelled prefix."""
    return max(4, -(-64 // m))


def _chain_fits(probe, m, stride):
    rate = _steady_miss_rate(
        probe, lambda laps: chain_trace(m, stride, laps),
        _chain_laps(m), "capacity" if stride == 1 else "alias",
        "chain-m%d-s%d" % (m, stride), m=m, stride=stride)
    return rate == 0.0


def _max_resident_chain(probe, stride, ceiling):
    """Longest chain with zero steady-state misses: doubling + bisection.

    Returns ``None`` when even ``ceiling`` sites stay resident (the
    structure is larger than the search budget).
    """
    if not _chain_fits(probe, 1, stride):
        return 0
    low = 1
    high = 2
    while high <= ceiling and _chain_fits(probe, high, stride):
        low, high = high, high * 2
    if high > ceiling:
        return None
    while high - low > 1:
        mid = (low + high) // 2
        if _chain_fits(probe, mid, stride):
            low = mid
        else:
            high = mid
    return low


def _infer_buffered(probe):
    stats = probe.run(chain_trace(2, 1, 4))
    buffered = stats.buffer_accesses > 0
    probe.note("capacity", "buffered-detect",
               {"buffer_accesses": stats.buffer_accesses},
               "buffered" if buffered else "non-buffered")
    return buffered


def _infer_geometry(probe, max_entries):
    """Capacity, associativity, and set count via divergence points."""
    entries = _max_resident_chain(probe, 1, max_entries)
    probe.note("capacity", "divergence-point", {"entries": entries},
               "capacity %s" % (entries if entries is not None
                                else ">= %d" % max_entries))
    if not entries:
        return entries, None, None
    ways = _max_resident_chain(probe, entries, max_entries)
    probe.note("alias", "divergence-point", {"ways": ways},
               "associativity %s" % ways)
    if not ways:
        return entries, None, None
    return entries, ways, entries // ways


def _infer_counter(probe, max_counter_bits):
    """Flip latencies -> threshold, counter range, counter width."""
    segment = (1 << max_counter_bits) + 8
    base = probe.run(step_trace(segment, 0, 0))
    down = probe.run(step_trace(segment, segment, 0))
    full = probe.run(step_trace(segment, segment, segment))
    flips_down = segment - (down.correct - base.correct)
    flips_up = segment - (full.correct - down.correct)
    threshold = flips_up
    counter_max = flips_down + flips_up - 1
    bits = None
    if counter_max >= 1 and (counter_max + 1) & counter_max == 0:
        bits = int(math.log2(counter_max + 1))
    probe.note("counter", "flip-latency",
               {"flips_down": flips_down, "flips_up": flips_up,
                "counter_max": counter_max},
               "threshold %d, %s-bit counter"
               % (threshold, bits if bits is not None else "non-power"),
               segment=segment)
    return bits, threshold, flips_down, flips_up


def _ladder_perfect(probe, k):
    rate = _steady_wrong_rate(
        probe, lambda periods: ladder_trace(k, periods), 8,
        "history", "ladder-k%d" % k, k=k)
    return rate == 0.0


def _infer_history(probe, max_history):
    """Largest perfectly-predicted ladder rung, binary searched."""
    if not _ladder_perfect(probe, 1):
        depth = 0
    else:
        low = 1
        high = 2
        while high <= max_history and _ladder_perfect(probe, high):
            low, high = high, high * 2
        if high > max_history:
            depth = max_history
        else:
            while high - low > 1:
                mid = (low + high) // 2
                if _ladder_perfect(probe, mid):
                    low = mid
                else:
                    high = mid
            depth = low
    probe.note("history", "divergence-point", {"depth": depth},
               "history depth %d%s" % (
                   depth, "+" if depth == max_history else ""))
    return depth


def _infer_replacement(probe, entries, ways):
    """LRU vs FIFO-like via the refreshed-victim experiment."""
    if ways is None or ways < 2:
        return None
    base = probe.run(victim_trace(ways, entries, probe=False))
    probed = probe.run(victim_trace(ways, entries, probe=True))
    extra = probed.buffer_misses - base.buffer_misses
    policy = "lru" if extra == 0 else "fifo-like"
    probe.note("replacement", "victim-probe",
               {"extra_misses": extra}, policy, ways=ways)
    return policy


def _infer_flush(probe):
    """Does a context-switch flush cost anything?"""
    trace = chain_trace(8, 1, 8)
    base = probe.run(trace)
    flushed = probe.run(trace, flush_interval=8)
    sensitive = (flushed.buffer_misses > base.buffer_misses
                 or flushed.correct < base.correct)
    probe.note("replacement", "flush-interval",
               {"base_misses": base.buffer_misses,
                "flushed_misses": flushed.buffer_misses,
                "base_correct": base.correct,
                "flushed_correct": flushed.correct},
               "flush-sensitive" if sensitive else "flush-immune")
    return sensitive


def characterize(factory, declared=None, label=None,
                 max_entries=MAX_ENTRIES, max_history=MAX_HISTORY,
                 max_counter_bits=MAX_COUNTER_BITS):
    """Recover a predictor's configuration through ``simulate()`` only.

    Args:
        factory: zero-argument callable returning a *fresh* predictor
            in its power-on state.  Every probe measurement gets its
            own instance, so the driver never depends on (or perturbs)
            cross-probe state.
        declared: optional dict of claimed parameters to diff against
            the recovered ones (``None`` asks the factory's product
            for :meth:`~repro.predictors.base.Predictor.
            declared_parameters`).
        label: display name for the report.
        max_entries: capacity-search ceiling; beyond it ``entries`` is
            reported as ``None``.
        max_history: tallest ladder rung probed.
        max_counter_bits: widest saturating counter the step probe is
            sized for.

    Returns:
        :class:`~repro.characterize.report.CharacterizationReport`.
    """
    probe = _Probe(factory)
    if declared is None:
        declared = factory().declared_parameters()
    if label is None:
        label = getattr(factory(), "name", "predictor")

    recovered = {}
    with TELEMETRY.span("characterize.predictor", label=label) as span:
        with TELEMETRY.span("characterize.probe", family="buffered"):
            recovered["buffered"] = _infer_buffered(probe)

        entries = ways = sets = None
        if recovered["buffered"]:
            with TELEMETRY.span("characterize.probe", family="capacity"):
                entries, ways, sets = _infer_geometry(probe, max_entries)
        recovered["entries"] = entries
        recovered["associativity"] = ways
        recovered["n_sets"] = sets

        with TELEMETRY.span("characterize.probe", family="history"):
            recovered["history_depth"] = _infer_history(probe,
                                                        max_history)

        bits = threshold = flips_down = flips_up = None
        if recovered["buffered"] and recovered["history_depth"] == 0:
            # Global history would spray the single-site step pattern
            # across many counters; the latencies only measure one
            # counter's hysteresis when the scheme is history-free.
            with TELEMETRY.span("characterize.probe", family="counter"):
                bits, threshold, flips_down, flips_up = _infer_counter(
                    probe, max_counter_bits)
        recovered["counter_bits"] = bits
        recovered["threshold"] = threshold
        recovered["flips_down"] = flips_down
        recovered["flips_up"] = flips_up

        replacement = None
        if recovered["buffered"]:
            with TELEMETRY.span("characterize.probe",
                                family="replacement"):
                replacement = _infer_replacement(probe, entries, ways)
        recovered["replacement"] = replacement

        with TELEMETRY.span("characterize.probe", family="flush"):
            recovered["flush_sensitive"] = _infer_flush(probe)
        span.annotate(simulations=probe.simulations, records=probe.records)

    report = CharacterizationReport(
        label=label, recovered=recovered, declared=dict(declared or {}),
        evidence=probe.evidence, simulations=probe.simulations,
        records=probe.records)
    if TELEMETRY.enabled:
        TELEMETRY.event("characterize.report", label=label,
                        simulations=probe.simulations,
                        records=probe.records,
                        mismatches=len(report.mismatches))
    return report
