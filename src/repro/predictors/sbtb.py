"""The Simple Branch Target Buffer (SBTB) of Section 2.2.

Remembers as many taken branches as possible.  Any branch found in the
buffer is predicted taken (with the stored target); any branch absent is
predicted not-taken.  A buffered branch that executes not-taken has its
entry deleted.  256 entries, fully associative, LRU — the paper's
configuration — by default.
"""

from repro.predictors.assoc_cache import AssociativeCache
from repro.predictors.base import Prediction, Predictor


class SimpleBTB(Predictor):
    """SBTB: cache of taken branches, keyed by branch address."""

    name = "SBTB"

    def __init__(self, entries=256, associativity=None):
        self._cache = AssociativeCache(entries, associativity)

    def predict(self, site, branch_class):
        target = self._cache.lookup(site)
        if target is None:
            return Prediction(False, hit=False)
        return Prediction(True, target=target, hit=True)

    def update(self, site, branch_class, taken, target):
        if taken:
            # Only the predict-path lookup and a fresh allocation count
            # as recency events (the assoc_cache contract): a resident
            # entry keeps its order, its target refreshed in place.
            if not self._cache.replace(site, target):
                self._cache.insert(site, target)
        else:
            # Predicted taken (if it was in the buffer) but fell
            # through: the paper deletes the entry.
            self._cache.delete(site)

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
            "history_depth": 0,
            "replacement": "lru",
            "flush_sensitive": True,
        }

    def __repr__(self):
        return "SimpleBTB(%d entries, %d used)" % (
            self._cache.entries, len(self._cache))
