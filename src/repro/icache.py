"""A set-associative instruction cache simulator.

Built for the paper's spatial-locality claim: "because copying
instructions into forward slots increases the spatial locality of the
program, the expanded static code size does not translate linearly
into increased miss ratios of instruction caches", and the conclusion's
"executing the instructions in forward slots often will cause the
branch target's instructions to be in the instruction cache".

Addresses are instruction indices (one word per instruction); a cache
line holds ``line_words`` consecutive instructions.  LRU replacement
per set, as in :mod:`repro.predictors.assoc_cache`.
"""

from repro.predictors.assoc_cache import AssociativeCache


class CacheStats:
    """Accesses and misses of one simulation."""

    __slots__ = ("accesses", "misses")

    def __init__(self, accesses=0, misses=0):
        self.accesses = accesses
        self.misses = misses

    @property
    def miss_ratio(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def __repr__(self):
        return "CacheStats(%d accesses, %d misses, %.4f%% miss)" % (
            self.accesses, self.misses, 100.0 * self.miss_ratio)


class InstructionCache:
    """A (set-)associative instruction cache over word addresses.

    Args:
        total_words: capacity in instruction words.
        line_words: words per cache line (a power of two).
        associativity: ways per set; ``None`` = fully associative.
    """

    def __init__(self, total_words=1024, line_words=8, associativity=4):
        if line_words <= 0 or total_words <= 0:
            raise ValueError("sizes must be positive")
        if total_words % line_words != 0:
            raise ValueError("line_words must divide total_words")
        self.line_words = line_words
        n_lines = total_words // line_words
        self._lines = AssociativeCache(n_lines, associativity)
        self.stats = CacheStats()

    def access(self, address):
        """Fetch one instruction; returns True on hit."""
        line = address // self.line_words
        self.stats.accesses += 1
        if self._lines.lookup(line) is not None:
            return True
        self.stats.misses += 1
        self._lines.insert(line, True)
        return False

    def run(self, addresses):
        """Feed a full fetch stream; returns the accumulated stats.

        The hot path is inlined (no per-access method call) because
        address traces run to millions of entries.
        """
        line_words = self.line_words
        lookup = self._lines.lookup
        insert = self._lines.insert
        accesses = 0
        misses = 0
        last_line = -1
        for address in addresses:
            accesses += 1
            line = address // line_words
            if line == last_line:
                continue  # sequential run inside one line: guaranteed hit
            last_line = line
            if lookup(line) is None:
                misses += 1
                insert(line, True)
        self.stats.accesses += accesses
        self.stats.misses += misses
        return self.stats

    def reset(self):
        self._lines.clear()
        self.stats = CacheStats()


def miss_ratio_of(addresses, total_words=1024, line_words=8,
                  associativity=4):
    """Convenience: one-shot miss ratio of a fetch stream."""
    cache = InstructionCache(total_words, line_words, associativity)
    return cache.run(addresses).miss_ratio
