"""Reference oracles: naive reimplementations of the paper's schemes.

Every class here is written for obviousness, not speed: plain lists,
linear scans, one decision per line of the paper's prose.  They share
*no* code with the production predictors — that independence is the
whole point of differential testing (the reverse-engineering literature
probes black-box predictors the same way).  Where the paper's prose is
silent the oracles encode the documented repo convention, namely the
recency policy of :mod:`repro.predictors.assoc_cache`: a predict-path
lookup and a new-entry allocation refresh recency; an in-place update
does not.

Each oracle mirrors the production ``predict``/``update`` protocol and
additionally exposes ``state()`` — a hashable snapshot of its entire
buffer in replacement order — which the differential engine compares
against the production predictor's state after every record.
"""

from repro.predictors.base import Prediction
from repro.vm.tracing import BranchClass


class _NaiveLRU:
    """A fully-explicit (set-)associative LRU store.

    Entries live in per-set Python lists ordered LRU-first; a recency
    refresh removes the key and re-appends it.  O(ways) per operation,
    intentionally.
    """

    def __init__(self, entries, associativity=None):
        if associativity is None:
            associativity = entries
        if entries <= 0 or associativity <= 0 or entries % associativity:
            raise ValueError("bad geometry")
        self.entries = entries
        self.associativity = associativity
        self.n_sets = entries // associativity
        # Each set: list of [key, value] pairs, index 0 = next victim.
        self.sets = [[] for _ in range(self.n_sets)]

    def _set(self, key):
        return self.sets[key % self.n_sets]

    def get_refresh(self, key):
        """Predict-path access: value or None, refreshing recency."""
        bucket = self._set(key)
        for index, (stored, value) in enumerate(bucket):
            if stored == key:
                del bucket[index]
                bucket.append([key, value])
                return value
        return None

    def get_quiet(self, key):
        """Update-path access: value or None, order untouched."""
        for stored, value in self._set(key):
            if stored == key:
                return value
        return None

    def put_new(self, key, value):
        """Allocate ``key`` (must be absent), evicting the set's LRU."""
        bucket = self._set(key)
        if len(bucket) >= self.associativity:
            del bucket[0]
        bucket.append([key, value])

    def set_quiet(self, key, value):
        """Overwrite ``key``'s value in place (must be present)."""
        for pair in self._set(key):
            if pair[0] == key:
                pair[1] = value
                return
        raise KeyError(key)

    def remove(self, key):
        bucket = self._set(key)
        for index, (stored, _) in enumerate(bucket):
            if stored == key:
                del bucket[index]
                return

    def snapshot(self):
        """((key, value), ...) per set in LRU order, sets concatenated."""
        return tuple((stored, value)
                     for bucket in self.sets
                     for stored, value in bucket)


class OracleSBTB:
    """Section 2.2's Simple BTB, straight from the prose.

    "Remembers as many taken branches as possible": a hit predicts
    taken with the stored target; a miss predicts not-taken; a buffered
    branch that executes not-taken loses its entry; a taken branch is
    (re)recorded with its target.
    """

    name = "oracle-SBTB"

    def __init__(self, entries=256, associativity=None):
        self._lru = _NaiveLRU(entries, associativity)

    def predict(self, site, branch_class):
        target = self._lru.get_refresh(site)
        if target is None:
            return Prediction(False, hit=False)
        return Prediction(True, target=target, hit=True)

    def update(self, site, branch_class, taken, target):
        if not taken:
            self._lru.remove(site)
        elif self._lru.get_quiet(site) is None:
            self._lru.put_new(site, target)
        else:
            self._lru.set_quiet(site, target)

    def reset(self):
        self._lru = _NaiveLRU(self._lru.entries, self._lru.associativity)

    def flush(self):
        self.reset()

    def state(self):
        return self._lru.snapshot()


class OracleCBTB:
    """Section 2.2's Counter BTB.

    Every executed branch is remembered with an n-bit saturating
    up/down counter C and a target.  A fresh entry starts at T when the
    branch was taken, T-1 otherwise.  Predict taken iff C >= T.  Taken
    increments (saturating at 2^n - 1) and refreshes the target;
    not-taken decrements (saturating at 0).
    """

    name = "oracle-CBTB"

    def __init__(self, entries=256, associativity=None, counter_bits=2,
                 threshold=2):
        self.counter_max = 2 ** counter_bits - 1
        self.threshold = threshold
        self._lru = _NaiveLRU(entries, associativity)

    def predict(self, site, branch_class):
        entry = self._lru.get_refresh(site)
        if entry is None:
            return Prediction(False, hit=False)
        counter, target = entry
        if counter >= self.threshold:
            return Prediction(True, target=target, hit=True)
        return Prediction(False, hit=True)

    def update(self, site, branch_class, taken, target):
        entry = self._lru.get_quiet(site)
        if entry is None:
            start = self.threshold if taken else self.threshold - 1
            self._lru.put_new(site, (start, target))
            return
        counter, stored_target = entry
        if taken:
            counter = min(counter + 1, self.counter_max)
            stored_target = target
        else:
            counter = max(counter - 1, 0)
        self._lru.set_quiet(site, (counter, stored_target))

    def reset(self):
        self._lru = _NaiveLRU(self._lru.entries, self._lru.associativity)

    def flush(self):
        self.reset()

    def state(self):
        return self._lru.snapshot()


class OracleFS:
    """The Forward Semantic from the prose: a frozen likely-bit table.

    Conditional branches follow their compiler-set likely bit;
    known-target unconditional branches are always covered; an
    unknown-target indirect jump can never be predicted.  No state, no
    updates, immune to flushes.
    """

    name = "oracle-FS"

    def __init__(self, likely_sites):
        self._likely = dict(likely_sites)

    def predict(self, site, branch_class):
        if branch_class == BranchClass.CONDITIONAL:
            if self._likely.get(site, False):
                return Prediction(True, target=_ANY)
            return Prediction(False)
        if branch_class == BranchClass.UNCONDITIONAL_KNOWN:
            return Prediction(True, target=_ANY)
        return Prediction(False)

    def update(self, site, branch_class, taken, target):
        pass

    def reset(self):
        pass

    def flush(self):
        pass

    def state(self):
        return ()


class _AnyTarget:
    """Matches any concrete target (the statically-encoded one)."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __hash__(self):  # pragma: no cover
        return 0


_ANY = _AnyTarget()


class OracleCycleStats:
    """What the straight-line interpreter measures."""

    __slots__ = ("cycles", "instructions", "branches", "squashed_cycles",
                 "mispredictions", "fill_cycles", "squashed_by_class")

    def __init__(self):
        self.cycles = 0
        self.instructions = 0
        self.branches = 0
        self.squashed_cycles = 0
        self.mispredictions = 0
        self.fill_cycles = 0
        self.squashed_by_class = {}


class OracleCycleInterpreter:
    """The pipeline story of Section 2.3, told one instruction at a time.

    The machine is in-order and single-issue with one-cycle stages, so
    the prose reduces to: every retired instruction is one cycle; a
    branch whose scheme failed to cover it squashes the instructions
    fetched behind it — k + l + m for a conditional discovered at the
    end of execute, k + l for an unconditional discovered at the end of
    decode — and each squashed instruction is one wasted cycle; the
    pipeline fill before the first retirement is depth - 1 cycles.
    This interpreter charges those cycles with explicit unit loops
    (no closed forms) so its total is an independent derivation of
    :class:`repro.pipeline.cycle_sim.CycleSimulator`'s arithmetic.
    """

    def __init__(self, config, predictor):
        self.config = config
        self.predictor = predictor

    def run(self, trace):
        from repro.predictors.base import is_correct

        config = self.config
        stats = OracleCycleStats()
        for _ in range(config.depth - 1):        # pipeline fill
            stats.fill_cycles += 1
            stats.cycles += 1
        for site, branch_class, taken, target, gap in trace.records():
            for _ in range(gap):                 # non-branch retirements
                stats.instructions += 1
                stats.cycles += 1
            stats.instructions += 1              # the branch retires too
            stats.cycles += 1
            stats.branches += 1
            if branch_class == BranchClass.RETURN:
                continue                         # covered by the RAS
            prediction = self.predictor.predict(site, branch_class)
            covered = is_correct(prediction, taken, target)
            self.predictor.update(site, branch_class, taken, target)
            if covered:
                continue
            stats.mispredictions += 1
            if branch_class == BranchClass.CONDITIONAL:
                wasted = config.k + config.l + config.m
            else:
                wasted = config.k + config.l
            for _ in range(wasted):              # squashed slots, 1 cycle each
                stats.squashed_cycles += 1
                stats.cycles += 1
            stats.squashed_by_class[branch_class] = (
                stats.squashed_by_class.get(branch_class, 0) + wasted)
        # The production simulator counts instructions from the trace
        # header (which may include a non-branch tail after the last
        # branch record); charge any such tail here too.
        tail = trace.total_instructions - stats.instructions
        for _ in range(max(tail, 0)):
            stats.instructions += 1
            stats.cycles += 1
        return stats


def oracle_for(scheme, entries=256, associativity=None, counter_bits=2,
               threshold=2, likely_sites=None):
    """Build the oracle matching a production scheme name."""
    if scheme == "SBTB":
        return OracleSBTB(entries, associativity)
    if scheme == "CBTB":
        return OracleCBTB(entries, associativity, counter_bits, threshold)
    if scheme == "FS":
        return OracleFS(likely_sites or {})
    raise ValueError("no oracle for scheme %r" % (scheme,))
