"""Black-box predictor characterization.

Recover a predictor's microarchitectural parameters — buffer capacity,
associativity, saturating-counter width and threshold, global-history
depth, replacement policy, flush sensitivity — purely from the
:class:`~repro.predictors.base.PredictionStats` that ``simulate()``
returns for crafted probe traces, the way the BTB reverse-engineering
literature recovers them from silicon.  The recovered configuration is
diffed against what the predictor declares; any disagreement is either
an inference bug or a simulator bug, which makes the harness a test
oracle that grows with every new predictor (see docs/CHARACTERIZE.md).

    from repro.characterize import characterize
    from repro.predictors import SimpleBTB

    report = characterize(lambda: SimpleBTB(entries=256))
    assert report.recovered["entries"] == 256
    assert report.ok  # recovered == declared

The probe traces themselves (:func:`probe_battery`) double as an
adversarial corpus for the conformance engine: overflowing sets,
maximal aliasing, and pathological periodic patterns the program
fuzzer essentially never produces.
"""

from repro._lazy import lazy_names

# Imported on first use (:mod:`repro._lazy`): the conformance harness
# needs only the probe traces, not the inference or the roster.
__getattr__, __dir__, __all__ = lazy_names(globals(), {
    "repro.characterize.infer": ("MAX_COUNTER_BITS", "MAX_ENTRIES",
                                 "MAX_HISTORY", "characterize"),
    "repro.characterize.probes": ("PROBE_FAMILIES", "chain_trace",
                                  "disagree_trace", "ladder_trace",
                                  "probe_battery", "step_trace",
                                  "victim_trace"),
    "repro.characterize.report": ("CharacterizationReport",
                                  "ProbeEvidence"),
    "repro.characterize.roster": ("roster_names", "run_roster",
                                  "run_self_test"),
})
