"""Profiling infrastructure: the paper's probe-based profiler.

The paper's compiler inserts probes at the entry of every basic block,
runs the program over a representative input suite, and feeds the
accumulated counts back into recompilation.  This package does the same
thing on the VM: block-entry counts come from machine probes placed at
the CFG leaders, and per-branch direction/target statistics come from
the branch trace of the profiling runs.
"""

from repro.profiling.profiler import Profile, profile_program

__all__ = ["Profile", "profile_program"]
