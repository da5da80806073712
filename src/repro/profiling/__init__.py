"""Profiling infrastructure: the paper's block-count profiler.

The paper's compiler inserts probes at the entry of every basic block,
runs the program over a representative input suite, and feeds the
accumulated counts back into recompilation.  This package gets the same
counts without probes: the VM runs each basic block as one compiled
block and records the start of every block it enters, so block counts
are a count of those starts at the CFG leaders, and each conditional's
direction follows from the block that starts next.
"""

from repro.profiling.profiler import Profile, profile_program

__all__ = ["Profile", "profile_program"]
