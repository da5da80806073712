"""Resilience: crash-safe storage, supervision, fault injection.

Long trace-driven campaigns die in boring ways — a truncated ``.npz``,
a full disk, one hung warm worker — and before this package any of
those killed an entire ``run_all`` sweep.  Five pieces (see
docs/RESILIENCE.md for the full guide):

* :mod:`repro.resilience.errors` — the typed failure taxonomy
  (:class:`CacheCorruptError`, :class:`ManifestError`,
  :class:`LockTimeout`), replacing blanket ``except Exception``
  in the cache paths;
* :mod:`repro.resilience.store` — atomic writes (temp + fsync +
  ``os.replace``), sha256 checksums recorded in run manifests,
  ``*.corrupt`` quarantine, and the inter-process :class:`StemLock`;
* :mod:`repro.resilience.supervisor` — supervised parallel execution
  with per-task timeouts, jittered-backoff retries, and a typed
  :class:`RunReport` of partial failures;
* :mod:`repro.resilience.checkpoint` — per-section checkpoint/resume
  for multi-table sweeps;
* :mod:`repro.resilience.faults` — the deterministic, seeded fault
  injector (disabled by default, one attribute check when off) and
  :mod:`repro.resilience.harness`, the recovery matrix behind
  ``repro-branches faults``.
"""

from repro._lazy import lazy_names

# Imported on first use (:mod:`repro._lazy`): the supervisor alone
# pulls in ``multiprocessing``, which a cache read never needs.
__getattr__, __dir__, __all__ = lazy_names(globals(), {
    "repro.resilience.checkpoint": ("SweepCheckpoint", "sweep_fingerprint"),
    "repro.resilience.errors": ("CacheCorruptError", "LockTimeout",
                                "ManifestError", "ResilienceError"),
    "repro.resilience.faults": ("FAULT_KINDS", "FAULTS", "Fault",
                                "FaultInjector", "FaultPlan"),
    "repro.resilience.store": ("QUARANTINE_SUFFIX", "StemLock",
                               "atomic_write_bytes", "atomic_write_json",
                               "atomic_write_npz", "atomic_write_text",
                               "data_checksum", "file_checksum",
                               "list_quarantined", "quarantine",
                               "verify_checksum"),
    "repro.resilience.supervisor": ("RunReport", "TaskOutcome",
                                    "run_supervised"),
})
