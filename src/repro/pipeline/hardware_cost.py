"""Hardware storage cost of the three schemes.

The paper's closing argument is about silicon: "the hardware schemes
need to be accessed fast by the instruction prefetch pipeline, [so]
these schemes would have to be implemented on-chip ... using up
valuable area.  The Forward Semantic frees this area for other uses."

This module counts the storage each scheme requires so the trade can
be quantified:

* the BTBs store, per entry: a tag (the branch address), the target
  address, the first k instructions of the target path (what masks the
  fetch refill), a valid bit, and — for the CBTB — the n-bit counter;
* the Forward Semantic stores nothing on-chip; its cost is the
  *instruction memory* occupied by forward slots (the Table 5
  expansion) plus one likely bit per branch instruction encoding.
"""


class StorageCost:
    """Bits of storage, split by where they live."""

    __slots__ = ("on_chip_bits", "instruction_memory_bits")

    def __init__(self, on_chip_bits, instruction_memory_bits):
        self.on_chip_bits = on_chip_bits
        self.instruction_memory_bits = instruction_memory_bits

    @property
    def total_bits(self):
        return self.on_chip_bits + self.instruction_memory_bits

    def __repr__(self):
        return "StorageCost(on_chip=%d, instr_mem=%d)" % (
            self.on_chip_bits, self.instruction_memory_bits)


def btb_storage(entries, k, counter_bits=0, address_bits=32,
                instruction_bits=32):
    """On-chip storage of an SBTB (counter_bits=0) or CBTB.

    Per entry: tag + target + k stored target-path instructions +
    valid bit + counter.
    """
    if entries <= 0 or k < 0:
        raise ValueError("entries must be positive and k non-negative")
    per_entry = (address_bits          # associative tag
                 + address_bits        # branch target
                 + k * instruction_bits
                 + 1                   # valid
                 + counter_bits)
    return StorageCost(entries * per_entry, 0)


def sbtb_storage(entries=256, k=1, address_bits=32, instruction_bits=32):
    """The paper's SBTB configuration."""
    return btb_storage(entries, k, counter_bits=0,
                       address_bits=address_bits,
                       instruction_bits=instruction_bits)


def cbtb_storage(entries=256, k=1, counter_bits=2, address_bits=32,
                 instruction_bits=32):
    """The paper's CBTB configuration."""
    return btb_storage(entries, k, counter_bits=counter_bits,
                       address_bits=address_bits,
                       instruction_bits=instruction_bits)


def forward_semantic_storage(expansion_report, instruction_bits=32):
    """Storage of the Forward Semantic: zero on-chip; code expansion
    (slots) in instruction memory, plus the likely bit which fits in
    the branch instruction encoding (one bit per static branch, folded
    into the instruction word -> no extra storage counted).

    Args:
        expansion_report: :class:`~repro.traceopt.ExpansionReport` for
            the chosen k + l.
    """
    extra_instructions = (expansion_report.expanded_size
                          - expansion_report.original_size)
    return StorageCost(0, extra_instructions * instruction_bits)


def compare_storage(expansion_report, entries=256, k=1, counter_bits=2,
                    instruction_bits=32):
    """Side-by-side storage of the three schemes at one design point.

    Returns {"SBTB": StorageCost, "CBTB": ..., "FS": ...}.
    """
    return {
        "SBTB": sbtb_storage(entries, k, instruction_bits=instruction_bits),
        "CBTB": cbtb_storage(entries, k, counter_bits=counter_bits,
                             instruction_bits=instruction_bits),
        "FS": forward_semantic_storage(expansion_report,
                                       instruction_bits=instruction_bits),
    }
