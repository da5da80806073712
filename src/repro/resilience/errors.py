"""The resilience layer's typed error taxonomy.

Every failure the layer can recover from (or must surface) has a
distinct exception type, so callers catch exactly the failures they
handle and nothing else.  The blanket ``except Exception`` the suite
runner's cache-load path used to carry is gone: a corrupt artifact, a
damaged manifest and a held lock are different situations with
different recoveries.
"""


class ResilienceError(Exception):
    """Base of every typed failure raised by :mod:`repro.resilience`."""


class CacheCorruptError(ResilienceError):
    """A cache artifact failed its checksum or could not be parsed.

    Recovery: quarantine the entry (rename to ``*.corrupt``) and
    recompute.
    """

    def __init__(self, path, reason):
        super().__init__("%s: %s" % (path, reason))
        self.path = path
        self.reason = reason


class ManifestError(ResilienceError):
    """A run manifest is missing, truncated, or not valid JSON.

    Without the manifest there are no recorded checksums, so the whole
    cache entry is untrustworthy; recovery is the same quarantine +
    recompute as :class:`CacheCorruptError`.
    """

    def __init__(self, path, reason):
        super().__init__("%s: %s" % (path, reason))
        self.path = path
        self.reason = reason


class LockTimeout(ResilienceError):
    """An inter-process stem lock could not be acquired in time.

    Recovery: proceed without touching the cache (compute in-process,
    skip the store) rather than block a campaign on a wedged peer.
    """

    def __init__(self, path, timeout):
        super().__init__("could not lock %s within %.1fs"
                         % (path, timeout))
        self.path = path
        self.timeout = timeout
