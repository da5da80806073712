"""Deterministic seeded trace/program fuzzer for the differential engine.

Pure-iid random records exercise predictors poorly (no locality, no
loops, no stable biases), so the fuzzer works at the *program* level
first: it draws a random control-flow skeleton — a set of branch sites
with a class, a per-site taken bias, and successor sites — and then
walks that skeleton with a seeded RNG to emit a correlated dynamic
trace.  The result has loops, hot sites, biased conditionals, the
occasional flaky indirect jump, and a likely-bit map consistent with
what a profiling compiler would have set — everything the SBTB/CBTB/FS
oracles disagree about when an implementation is wrong.

Everything is derived from one ``random.Random(seed)``; the same seed
always yields the same trace (the property the replay engine and the
shrinker rely on).
"""

import random

from repro.vm.tracing import BranchClass, BranchTrace

#: Weighted class mix, roughly the paper's Table 1/2 regime: mostly
#: conditionals, some direct jumps/calls, few indirects and returns.
_CLASS_WEIGHTS = (
    (BranchClass.CONDITIONAL, 12),
    (BranchClass.UNCONDITIONAL_KNOWN, 4),
    (BranchClass.UNCONDITIONAL_UNKNOWN, 1),
    (BranchClass.RETURN, 3),
)

#: Per-site taken biases: strongly-not-taken through strongly-taken,
#: mirroring the bimodal site populations of Table 2.
_BIASES = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)


class _Site:
    __slots__ = ("address", "branch_class", "bias", "target", "alt_targets")

    def __init__(self, address, branch_class, bias, target, alt_targets):
        self.address = address
        self.branch_class = branch_class
        self.bias = bias
        self.target = target
        self.alt_targets = alt_targets


class TraceFuzzer:
    """One seed, one reproducible program skeleton and trace.

    Args:
        seed: the only source of randomness.
        n_sites: static branch sites in the skeleton (small by default
            so 16-entry buffers see real capacity pressure).
        n_records: dynamic records per generated trace.
        address_space: site/target addresses are drawn below this.
    """

    def __init__(self, seed, n_sites=24, n_records=160, address_space=512):
        self.seed = seed
        self.n_sites = n_sites
        self.n_records = n_records
        self.address_space = address_space
        self._rng = random.Random(seed)
        self._sites = self._build_skeleton()

    def _build_skeleton(self):
        rng = self._rng
        classes = [branch_class
                   for branch_class, weight in _CLASS_WEIGHTS
                   for _ in range(weight)]
        addresses = rng.sample(range(self.address_space), self.n_sites)
        sites = []
        for address in addresses:
            branch_class = rng.choice(classes)
            bias = rng.choice(_BIASES)
            target = rng.randrange(self.address_space)
            # Indirect jumps (and a sprinkle of others) carry alternate
            # targets so target-field handling gets exercised.
            n_alts = (rng.randint(1, 3)
                      if branch_class == BranchClass.UNCONDITIONAL_UNKNOWN
                      else 0)
            alt_targets = tuple(rng.randrange(self.address_space)
                                for _ in range(n_alts))
            sites.append(_Site(address, branch_class, bias, target,
                               alt_targets))
        return sites

    def likely_sites(self):
        """The likely-bit map a profiling compiler would have written.

        A conditional site is marked likely-taken iff its bias exceeds
        one half — exactly what profile-guided likely bits converge to.
        """
        return {site.address: site.bias > 0.5
                for site in self._sites
                if site.branch_class == BranchClass.CONDITIONAL}

    def trace(self):
        """Emit one dynamic :class:`BranchTrace` by walking the skeleton.

        The walk favours staying on a small working set (loop
        behaviour) with occasional jumps to a different region
        (phase changes), so buffers both warm up and get evicted.
        """
        rng = self._rng
        records = []
        position = rng.randrange(len(self._sites))
        for _ in range(self.n_records):
            site = self._sites[position]
            if site.branch_class == BranchClass.CONDITIONAL:
                taken = rng.random() < site.bias
                target = site.target
            elif site.branch_class == BranchClass.UNCONDITIONAL_UNKNOWN:
                taken = True
                target = rng.choice(site.alt_targets + (site.target,))
            else:
                taken = True
                target = site.target
            gap = rng.randint(0, 7)
            records.append((site.address, site.branch_class, taken,
                            target, gap))
            # Loopy walk: usually a neighbour, sometimes a far jump.
            if rng.random() < 0.85:
                position = (position + rng.randint(-2, 2)) % len(self._sites)
            else:
                position = rng.randrange(len(self._sites))
        return BranchTrace.from_records(records)
