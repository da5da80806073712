"""Vectorized cycle-level simulation.

This is the only engine behind
:class:`~repro.pipeline.cycle_sim.CycleSimulator`.  Because the modeled
machine never stalls for anything but branch squashes, a
record-at-a-time replay against a live predictor (the reference,
:class:`~repro.conformance.oracles.OracleCycleInterpreter`) collapses
into array passes:

1. **Squash classes** — :func:`repro.kernels.aggregate.outcomes`
   scores the predictor's batch kernel exactly as ``is_correct``
   does, so ``uncovered`` records are known without stepping the
   machine.
2. **Cycle accounting** — each uncovered record pays a fixed,
   class-determined penalty (``k + l + m`` for conditionals resolved
   at execute, ``k + l`` for the rest resolved at decode), so the
   squash totals are segmented sums over the class axis (a bincount —
   the degenerate prefix-scan where only the final per-segment value
   is kept), and ``cycles = (depth - 1) + instructions + squashed`` in
   closed form.

Bit-identity with the oracle interpreter is the contract: the
``tests/test_cycle_kernel_equivalence.py`` battery and the conformance
harness cross-check every field, including the key-presence semantics
of ``squashed_by_class`` (a class appears exactly when at least one of
its records went uncovered, even at zero penalty).
"""

import numpy as np

from repro.kernels.encode import EncodedTrace
from repro.vm.tracing import BranchClass


def cycle_kernel(config, predictor, trace):
    """Raw cycle accounting for ``trace``; returns a plain dict.

    The caller (:class:`~repro.pipeline.cycle_sim.CycleSimulator`)
    wraps the result in :class:`~repro.pipeline.cycle_sim.CycleStats`;
    keeping this module free of pipeline imports avoids a cycle.
    """
    from repro.kernels.aggregate import outcomes

    enc = EncodedTrace.of(trace)
    # The return-address mechanism covers every return, so the
    # reference never shows return records to the predictor.
    records, correct, _hit, _credited = outcomes(predictor, enc)
    uncovered = ~correct
    counts = np.bincount(records.classes[uncovered], minlength=4)
    conditional_penalty = config.k + config.l + config.m
    unconditional_penalty = config.k + config.l
    squashed_by_class = {}
    for code, count in enumerate(counts.tolist()):
        if count:
            penalty = (conditional_penalty
                       if code == BranchClass.CONDITIONAL
                       else unconditional_penalty)
            squashed_by_class[code] = count * penalty
    squashed = sum(squashed_by_class.values())

    fill = config.depth - 1
    instructions = trace.total_instructions
    return {
        "cycles": fill + instructions + squashed,
        "instructions": instructions,
        "branches": len(enc),
        "squashed_cycles": squashed,
        "mispredictions": int(np.count_nonzero(uncovered)),
        "fill_cycles": fill,
        "squashed_by_class": squashed_by_class,
    }
