"""Crash-safe artifact storage: atomic writes, checksums, quarantine.

The trace cache and experiment outputs are only trustworthy if a
SIGKILL, a full disk, or a concurrent writer cannot leave a
half-written artifact that silently poisons every later run.  This
module gives the suite runner (and anything else that persists
artifacts) four guarantees:

* **atomicity** — every write goes to a temp file in the target
  directory, is flushed and ``fsync``-ed, then ``os.replace``-d over
  the destination (and the directory fsync-ed), so readers observe
  either the old artifact or the complete new one, never a torn write;
* **integrity** — writes return a ``sha256:<hex>`` checksum that the
  run manifest records and :func:`verify_checksum` re-derives on load;
* **quarantine** — artifacts that fail checksum or parse are renamed
  to ``*.corrupt`` (with a ``cache.quarantined`` telemetry event), so
  a damaged entry is recomputed once instead of re-failing every run;
* **mutual exclusion** — :class:`StemLock` is an inter-process
  lockfile keyed by cache stem, so two warm workers never interleave
  writes to (or double-compute) the same entry.

All hook points consult the fault injector
(:data:`repro.resilience.faults.FAULTS`) behind a single attribute
check, so the recovery paths can be exercised deterministically while
production runs pay nothing.
"""

import hashlib
import io
import json
import os
import random
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

from repro.resilience.errors import LockTimeout
from repro.resilience.faults import FAULTS
from repro.telemetry.core import TELEMETRY

CHECKSUM_PREFIX = "sha256:"

#: Suffix quarantined artifacts are renamed to.
QUARANTINE_SUFFIX = ".corrupt"


def data_checksum(data):
    """The ``sha256:<hex>`` digest of a bytes payload."""
    return CHECKSUM_PREFIX + hashlib.sha256(data).hexdigest()


def file_checksum(path):
    """The ``sha256:<hex>`` digest of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return CHECKSUM_PREFIX + digest.hexdigest()


def verify_checksum(path, expected):
    """True when ``path`` hashes to ``expected`` (False on any OSError)."""
    if not expected:
        return False
    try:
        return file_checksum(path) == expected
    except OSError:
        return False


def _fsync_directory(directory):
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. O_RDONLY dirs on win
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not all filesystems allow it
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path, data):
    """Atomically persist ``data`` at ``path``; returns its checksum.

    Write-to-temp + flush + fsync + ``os.replace`` + directory fsync.
    The temp file lives in the destination directory (same
    filesystem, so the replace is atomic) and is removed on any
    failure, so an injected ``OSError`` — or a real full disk — leaves
    no partial artifact behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if FAULTS.enabled:
        FAULTS.on_write(path)
    temp = path.with_name(".%s.tmp.%d" % (path.name, os.getpid()))
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
    if FAULTS.enabled:
        FAULTS.on_commit(path)
    return data_checksum(data)


def atomic_write_text(path, text):
    """Atomic UTF-8 text write; returns the checksum of the bytes."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, payload):
    """Atomic JSON write (sorted keys); returns the checksum."""
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def atomic_write_npz(path, arrays):
    """Atomic compressed-numpy write; returns the checksum.

    The archive is serialised in memory first so the on-disk write is
    a single atomic byte-level commit.
    """
    import numpy as np

    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


def quarantine(path, reason, benchmark=None):
    """Rename a damaged artifact to ``*.corrupt``; returns the new path.

    Quarantined files keep their bytes for post-mortems but no longer
    match any cache stem, so the entry is recomputed exactly once
    instead of failing on every run.  Returns None when ``path`` does
    not exist (e.g. the artifact vanished between detect and rename).
    """
    path = Path(path)
    if not path.exists():
        return None
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    serial = 0
    while target.exists():
        serial += 1
        target = path.with_name("%s%s.%d" % (path.name,
                                             QUARANTINE_SUFFIX, serial))
    try:
        os.replace(path, target)
    except OSError:
        return None
    TELEMETRY.count("store.quarantined")
    TELEMETRY.event("cache.quarantined", path=str(path),
                    quarantined_as=str(target), reason=reason,
                    benchmark=benchmark)
    return target


def list_quarantined(directory):
    """All ``*.corrupt`` artifacts under ``directory``, sorted."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(path for path in directory.iterdir()
                  if QUARANTINE_SUFFIX in path.name)


class StemLock:
    """An inter-process lock keyed by cache stem.

    POSIX builds use ``fcntl.flock`` on a ``<stem>.lock`` file (locks
    die with the holder, so a SIGKILL-ed worker never wedges the
    cache); elsewhere it degrades to an ``O_EXCL`` create-file
    protocol.  Acquisition polls with a deadline and raises
    :class:`LockTimeout` rather than blocking a campaign forever on a
    hung peer.

    Contended polling backs off exponentially with seeded +-50%
    jitter (the supervisor's retry policy), from ``poll`` up to
    ``max_poll`` — a fixed-cadence poll makes every contender hammer
    the lock file in lockstep, which is exactly the thundering herd
    parallel warm workers racing on one stem would otherwise produce.  The
    jitter seed is derived from the stem, so two contenders on the
    same stem still decorrelate via their attempt phase while a test
    replaying one acquirer sees identical delays.
    """

    def __init__(self, directory, stem, timeout=600.0, poll=0.05,
                 max_poll=1.0):
        self.path = Path(directory) / (stem + ".lock")
        self.timeout = timeout
        self.poll = poll
        self.max_poll = max_poll
        self._handle = None
        self._rng = random.Random(stem)
        self._clock = time.monotonic
        self._sleep = time.sleep

    def _backoff_delay(self, attempt, remaining):
        """Sleep before retry ``attempt``: jittered, capped, and
        clamped so the final poll lands on the deadline rather than
        oversleeping past it."""
        base = min(self.poll * (2 ** (attempt - 1)), self.max_poll)
        delay = base * (0.5 + self._rng.random())
        return max(min(delay, self.max_poll, remaining), 0.0)

    def acquire(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = self._clock() + self.timeout
        attempt = 0
        while True:
            if self._try_acquire():
                return self
            attempt += 1
            remaining = deadline - self._clock()
            if remaining <= 0:
                TELEMETRY.count("store.lock_timeout")
                TELEMETRY.event("cache.lock_timeout",
                                path=str(self.path),
                                timeout_s=self.timeout,
                                attempts=attempt)
                raise LockTimeout(str(self.path), self.timeout)
            self._sleep(self._backoff_delay(attempt, remaining))

    def _try_acquire(self):
        if fcntl is not None:
            handle = open(self.path, "a+")
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return False
            self._handle = handle
            return True
        try:  # pragma: no cover - exercised only on non-POSIX hosts
            fd = os.open(str(self.path), os.O_CREAT | os.O_EXCL
                         | os.O_WRONLY)
        except FileExistsError:  # pragma: no cover
            return False
        self._handle = fd  # pragma: no cover
        return True  # pragma: no cover

    def release(self):
        handle, self._handle = self._handle, None
        if handle is None:
            return
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
        else:  # pragma: no cover - non-POSIX fallback
            os.close(handle)
            self.path.unlink(missing_ok=True)

    def __enter__(self):
        return self.acquire()

    def __exit__(self, exc_type, exc_value, traceback):
        self.release()
        return False
