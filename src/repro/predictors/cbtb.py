"""The Counter-based Branch Target Buffer (CBTB) of Section 2.2.

Remembers as many executed branches as possible (taken or not), each
entry holding an n-bit saturating up/down counter C and the branch
target.  A new entry's counter starts at the threshold T when the
branch was taken and T-1 otherwise.  The branch is predicted taken when
C >= T.  The paper's configuration: 256 entries, fully associative,
LRU, 2-bit counters, T = 2.
"""

from repro.predictors.assoc_cache import AssociativeCache
from repro.predictors.base import Prediction, Predictor


class _Entry:
    __slots__ = ("counter", "target")

    def __init__(self, counter, target):
        self.counter = counter
        self.target = target


class CounterBTB(Predictor):
    """CBTB with parametric counter width and threshold."""

    name = "CBTB"

    def __init__(self, entries=256, associativity=None, counter_bits=2,
                 threshold=2):
        if counter_bits < 1:
            raise ValueError("counter_bits must be at least 1")
        self.counter_max = (1 << counter_bits) - 1
        if not 1 <= threshold <= self.counter_max:
            raise ValueError("threshold must lie within the counter range")
        self.threshold = threshold
        self.counter_bits = counter_bits
        self._cache = AssociativeCache(entries, associativity)

    def predict(self, site, branch_class):
        entry = self._cache.lookup(site)
        if entry is None:
            return Prediction(False, hit=False)
        if entry.counter >= self.threshold:
            return Prediction(True, target=entry.target, hit=True)
        return Prediction(False, hit=True)

    def update(self, site, branch_class, taken, target):
        # peek, not lookup: the predict path already refreshed this
        # entry's recency; the update mutates counter/target in place
        # without a second (order-perturbing) touch.
        entry = self._cache.peek(site)
        if entry is None:
            counter = self.threshold if taken else self.threshold - 1
            self._cache.insert(site, _Entry(counter, target))
            return
        if taken:
            if entry.counter < self.counter_max:
                entry.counter += 1
            entry.target = target
        elif entry.counter > 0:
            entry.counter -= 1

    def reset(self):
        self._cache.clear()

    @property
    def occupancy(self):
        return len(self._cache)

    def telemetry_stats(self):
        return {"scheme": self.name, "entries": self._cache.entries,
                "associativity": self._cache.associativity}

    def declared_parameters(self):
        return {
            "buffered": True,
            "entries": self._cache.entries,
            "associativity": self._cache.associativity,
            "n_sets": self._cache.n_sets,
            "counter_bits": self.counter_bits,
            "threshold": self.threshold,
            "history_depth": 0,
            "replacement": "lru",
            "flush_sensitive": True,
        }

    def __repr__(self):
        return "CounterBTB(%d entries, %d-bit, T=%d, %d used)" % (
            self._cache.entries, self.counter_bits, self.threshold,
            len(self._cache))
