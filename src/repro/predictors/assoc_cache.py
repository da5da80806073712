"""Associative tag store with LRU replacement.

Backs both BTB schemes.  Fully associative by default (the paper's
configuration); bounded set-associativity is available for the
feasibility ablation the paper alludes to ("with 256 entries, it may
not be feasible to implement full associativity").

Recency policy (the determinism contract the conformance oracles
encode): exactly two operations refresh an entry's recency —
:meth:`lookup` (the predict path) and :meth:`insert` of a *new* key.
Everything else (:meth:`peek`, :meth:`replace`, :meth:`contains`,
:meth:`items`, :meth:`lru_order`) leaves the order untouched, so the
differential replay engine can snapshot buffer state mid-replay
without perturbing it, and ties never arise: recency is a total order
(every refresh moves the key to the MRU end of its set's OrderedDict,
and keys never refreshed keep their insertion order).
"""

from collections import OrderedDict


class AssociativeCache:
    """A (set-)associative key -> value store with per-set LRU.

    Args:
        entries: total capacity.
        associativity: ways per set; ``None`` means fully associative.
            Must divide ``entries`` evenly.
    """

    def __init__(self, entries, associativity=None):
        if entries <= 0:
            raise ValueError("entries must be positive")
        if associativity is None:
            associativity = entries
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if entries % associativity != 0:
            raise ValueError("associativity must divide entry count")
        self.entries = entries
        self.associativity = associativity
        self.n_sets = entries // associativity
        self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self._size = 0

    def _set_for(self, key):
        return self._sets[key % self.n_sets]

    def lookup(self, key):
        """Return the stored value (refreshing LRU) or None on miss.

        Store values must not be None: None is the miss sentinel.
        """
        bucket = self._set_for(key)
        value = bucket.get(key)
        if value is None:
            return None
        bucket.move_to_end(key)
        return value

    def peek(self, key):
        """Return the stored value without refreshing LRU order.

        The update path and state-snapshotting use this: observing the
        buffer must not change the replacement decision.
        """
        return self._set_for(key).get(key)

    def replace(self, key, value):
        """Overwrite ``key``'s value in place, keeping its recency.

        Returns True when the key was present (and replaced); False
        leaves the cache untouched — callers insert explicitly, so an
        allocation is always a deliberate recency event.
        """
        if value is None:
            raise ValueError("None values are reserved for misses")
        bucket = self._set_for(key)
        if key not in bucket:
            return False
        bucket[key] = value
        return True

    def contains(self, key):
        """Membership test without touching LRU order."""
        return key in self._set_for(key)

    def insert(self, key, value):
        """Insert or update, evicting the set's LRU entry when full.

        Returns the evicted (key, value) pair or None.
        """
        if value is None:
            raise ValueError("None values are reserved for misses")
        bucket = self._set_for(key)
        if key in bucket:
            bucket[key] = value
            bucket.move_to_end(key)
            return None
        evicted = None
        if len(bucket) >= self.associativity:
            evicted = bucket.popitem(last=False)
        else:
            self._size += 1
        bucket[key] = value
        return evicted

    def delete(self, key):
        """Remove ``key`` if present; returns True when removed."""
        bucket = self._set_for(key)
        if key in bucket:
            del bucket[key]
            self._size -= 1
            return True
        return False

    def clear(self):
        for bucket in self._sets:
            bucket.clear()
        self._size = 0

    def __len__(self):
        return self._size

    def items(self):
        for bucket in self._sets:
            yield from bucket.items()

    def lru_order(self):
        """The canonical replacement order, as a tuple of keys.

        Per set, keys run LRU-first to MRU-last (the eviction victim of
        each set is its first listed key); sets are concatenated in set
        index order.  Two caches that report equal ``lru_order`` make
        identical future replacement decisions — the bit-for-bit
        reproducibility witness the differential engine compares.
        """
        return tuple(key for bucket in self._sets for key in bucket)

    def __repr__(self):
        return "AssociativeCache(%d entries, %d-way, %d used)" % (
            self.entries, self.associativity, len(self))
