"""Probe-kernel generator: synthetic branch traces with known answers.

Every probe here is a deterministic :class:`~repro.vm.tracing.BranchTrace`
crafted so that a predictor's *aggregate* response — the
:class:`~repro.predictors.base.PredictionStats` one ``simulate()`` call
returns — pins down one microarchitectural parameter.  The construction
follows the black-box reverse-engineering literature (BTB capacity and
associativity recovery on Arm, history-depth ladders on Firestorm/Oryon)
translated to our trace-driven simulators:

* :func:`chain_trace` — a pointer-chased chain of ``m`` always-taken
  branches at stride ``s``, walked round-robin for ``laps`` laps.  With
  LRU replacement the steady-state buffer-miss rate is a step function
  of ``m``: zero while every site stays resident, one miss per access
  once any set is oversubscribed.  Stride 1 loads all sets evenly
  (capacity); stride = capacity aliases every site into a single set
  (associativity), because the number of sets always divides the entry
  count.
* :func:`step_trace` — one site driven taken ``k`` times, then
  not-taken ``j`` times, then taken ``l`` times.  The number of wrong
  predictions inside each segment is the flip latency of the scheme's
  hysteresis (saturating-counter width and threshold).
* :func:`ladder_trace` — one site executing the periodic pattern
  ``taken^k not-taken``, repeated.  A history predictor with depth
  ``h`` disambiguates every position of the period iff ``k <= h``, so
  the steady-state mispredict rate steps from zero to positive exactly
  at ``k = h + 1``.
* :func:`victim_trace` — warm an aliased set, refresh its LRU entry,
  force one eviction, optionally re-probe the refreshed entry: the
  extra probe misses iff the replacement policy ignored the refresh
  (FIFO-like rather than LRU).
* :func:`disagree_trace` — two interleaved sites with opposite
  outcomes; an adversarial pattern for chooser/agreement machinery.

All probe records are conditional branches (the class every scheme
specialises on) with per-site distinct targets, zero gaps, and no
randomness: the same arguments always yield byte-identical traces,
which is what lets the conformance engine replay every family
differentially.
"""

import numpy as np

from repro.vm.tracing import BranchClass, BranchTrace

#: Base address for probe sites — arbitrary, nonzero so site 0 never
#: collides with "absent" sentinels anywhere downstream.
BASE_ADDRESS = 3

#: Offset separating targets from sites (probe traces never take a
#: branch *to* another probe site).
TARGET_OFFSET = 1 << 20


def _trace(sites, takens):
    """A gap-free conditional trace: record ``i`` is site ``sites[i]``,
    taken when ``takens[i]`` is true."""
    sites = np.asarray(sites, dtype=np.int64)
    count = len(sites)
    return BranchTrace(
        sites, np.full(count, BranchClass.CONDITIONAL, dtype=np.int8),
        np.asarray(takens, dtype=bool), sites + TARGET_OFFSET,
        np.zeros(count, dtype=np.int8))


def probe_sites(m, stride, base=BASE_ADDRESS):
    """The ``m`` site addresses of a stride-``stride`` chain."""
    return [base + index * stride for index in range(m)]


def chain_trace(m, stride, laps, base=BASE_ADDRESS):
    """Round-robin over ``m`` always-taken sites at ``stride``.

    The pointer-chase of the capacity/associativity probes: each lap
    visits every site once, in address order, so per-set access order
    is cyclic and LRU replacement makes residency an all-or-nothing
    step at the set's way count.
    """
    sites = probe_sites(m, stride, base) * laps
    return _trace(sites, [True] * len(sites))


def step_trace(takens, not_takens, takens_again, site=BASE_ADDRESS):
    """One site: ``takens`` T, ``not_takens`` N, ``takens_again`` T.

    The counter-width probe.  Segment lengths must exceed the largest
    counter range under test so the first segment saturates the
    counter high and the second saturates it low; the per-segment
    wrong-prediction counts are then exactly the two flip latencies.
    """
    outcomes = [True] * takens + [False] * not_takens + [True] * takens_again
    return _trace([site] * len(outcomes), outcomes)


def ladder_trace(k, periods, site=BASE_ADDRESS):
    """``periods`` repetitions of the pattern ``taken^k not-taken``.

    The history-length ladder: a global-history predictor of depth
    ``h`` sees a distinct history before every position of the period
    while ``k <= h`` (the single not-taken outcome sits at a different
    offset of each history window), so every pattern-table entry
    converges and the steady state is perfect.  At ``k = h + 1`` two
    positions with different outcomes share the all-taken history and
    at least one misprediction per period survives warm-up.
    """
    outcomes = ([True] * k + [False]) * periods
    return _trace([site] * len(outcomes), outcomes)


def victim_trace(ways, stride, probe=False, base=BASE_ADDRESS):
    """Warm one set, refresh its LRU entry, evict once, optionally probe.

    Sequence: three laps over ``ways`` aliased sites (fills the set and
    leaves it warm in visit order), one refreshing re-access of the
    first site, one access to a brand-new aliased site (forces exactly
    one eviction), and — with ``probe`` — one final access to the
    first site.  Under LRU the refresh saved the first site (the
    eviction takes the second-oldest); under FIFO/insertion order the
    refresh is ignored and the first site is the victim.  The
    difference in total buffer misses between the ``probe=False`` and
    ``probe=True`` traces is therefore 0 for LRU and 1 for FIFO.
    """
    sites = probe_sites(ways, stride, base)
    first = sites[0]
    intruder = base + ways * stride
    visits = sites * 3 + [first, intruder] + ([first] if probe else [])
    return _trace(visits, [True] * len(visits))


def disagree_trace(periods, base=BASE_ADDRESS):
    """Two interleaved sites with opposite, alternating outcomes.

    Site A runs T N T N ..., site B runs N T N T ... — every record
    disagrees with its site's previous outcome and with the other
    site's current one.  Nothing in the repo's fuzzer produces this
    adversarial interleaving; it stresses chooser tables, history
    pollution, and counter hysteresis at once.
    """
    site_a, site_b = base, base + 1
    return _trace([site_a, site_b] * periods,
                  [period % 2 == index for period in range(periods)
                   for index in (0, 1)])


#: The largest counter range the battery's step probe saturates: each
#: of its segments is four records longer.
_MAX_COUNTER = 8

#: The history depths the battery's ladders climb to.
_HISTORY_RUNGS = (1, 2, 4, 8)


def probe_battery(entries=16, associativity=None):
    """Named probe traces sized for a buffer of ``entries`` entries.

    Returns a list of ``(family, name, trace)`` tuples covering every
    probe family at the given geometry: fitting, exactly-full, and
    overflowing chains (stride 1 and maximally aliasing stride =
    ``entries``), the counter step, a ladder per rung, the
    eviction-victim pair, and the disagreement weave.  This is the
    adversarial corpus the conformance engine replays through the
    reference oracles and the scalar-vs-vector differential: probe
    traces deliberately oversubscribe sets and maximise aliasing —
    regimes the program-skeleton fuzzer essentially never reaches.
    """
    ways = associativity if associativity is not None else entries
    battery = []
    for m, label in ((max(entries // 2, 1), "fit"),
                     (entries, "full"),
                     (entries + max(ways // 2, 1), "overflow"),
                     (2 * entries, "thrash")):
        battery.append(("capacity", "chain-%s-m%d" % (label, m),
                        chain_trace(m, 1, 6)))
    for m, label in ((ways, "full"), (ways + 1, "overflow")):
        battery.append(("alias", "aliased-chain-%s-m%d" % (label, m),
                        chain_trace(m, entries, 6)))
    battery.append(("counter", "step-k%d" % _MAX_COUNTER,
                    step_trace(_MAX_COUNTER + 4, _MAX_COUNTER + 4,
                               _MAX_COUNTER + 4)))
    for rung in _HISTORY_RUNGS:
        battery.append(("history", "ladder-k%d" % rung,
                        ladder_trace(rung, 10)))
    for probe in (False, True):
        battery.append(("replacement",
                        "victim-%s" % ("probe" if probe else "base"),
                        victim_trace(max(ways, 2), entries, probe=probe)))
    battery.append(("disagree", "weave-32", disagree_trace(32)))
    return battery


PROBE_FAMILIES = ("capacity", "alias", "counter", "history",
                  "replacement", "disagree")
