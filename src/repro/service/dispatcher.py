"""The campaign dispatcher: dedup, backpressure, deadlines, recovery.

:class:`CampaignService` is the long-lived heart of the serving layer.
It refactors the one-shot :mod:`repro.experiments.runner` flow into a
work queue of (benchmark x scheme x config) shards and pumps them
through a small multiprocess worker pool.  The invariants it holds:

**Deduplication.**  Shards are keyed by content-addressed identity
(:attr:`~repro.service.shards.ShardSpec.key`).  A shard requested by
two campaigns — or two clients, or the same client twice — runs once;
everyone waits on the same key and receives the same result.  Dedup
hits are counted (``service.dedup.inflight`` / ``service.dedup.
cached``) so tests and the chaos gate can *prove* nothing ran twice.

**Backpressure.**  Admission is all-or-nothing against a bounded
queue (:class:`~repro.service.admission.AdmissionQueue`); a campaign
that does not fit is rejected at submission with a retry-after
estimate.  The service never buffers unbounded work.

**Deadlines.**  A campaign's ``deadline_s`` propagates to its shards:
at expiry, queued shards are cancelled, running shards whose only
waiter expired are killed, and the campaign serves a degraded partial
table.  Shards other campaigns still want keep running.

**Degradation.**  A per-group circuit breaker
(:class:`~repro.service.breaker.CircuitBreaker`) sheds shards of a
repeatedly failing benchmark instead of burning the pool on them;
shed cells are marked in the tables, never fabricated.

**Crash recovery.**  Every accepted campaign and completed shard is
journalled (:class:`~repro.service.journal.CampaignJournal`,
journal-before-log ordering).  A SIGKILLed service restarted over the
same cache directory resumes every campaign with completed cells
intact and re-dispatches only the unfinished remainder.
"""

import multiprocessing
import os
import random
import threading
import time
import uuid

from repro.resilience.faults import FAULTS
from repro.resilience.supervisor import Attempt, backoff_seconds
from repro.service.admission import AdmissionQueue
from repro.service.breaker import CircuitBreaker
from repro.service.campaign import (
    CANCELLED,
    DONE,
    FAILED,
    SHED,
    Campaign,
    CampaignSpec,
)
from repro.service.errors import ServiceUnavailable, UnknownCampaign
from repro.service.journal import CampaignJournal
from repro.service.shards import execute_shard
from repro.telemetry.core import TELEMETRY

#: Test/chaos knob: seconds each shard worker sleeps before executing,
#: so a gate can reliably SIGKILL the service mid-campaign.
SHARD_DELAY_ENV = "REPRO_SERVICE_SHARD_DELAY"


def _run_shard(payload):
    """Shard-process body, run as the worker of a supervisor
    :class:`~repro.resilience.supervisor.Attempt` (which arms the
    fault plan and reports the result or error on its queue)."""
    spec_dict, cache_dir, key, attempt = payload
    FAULTS.on_shard_start(key, attempt)
    delay = os.environ.get(SHARD_DELAY_ENV)
    if delay:
        time.sleep(float(delay))
    return execute_shard(spec_dict, cache_dir=cache_dir)


class CampaignService:
    """The long-lived sharded campaign service.

    Args:
        cache_dir: content-addressed cache directory; the journal
            lives under ``<cache_dir>/service/``.
        workers: maximum concurrently running shard processes.
        queue_capacity: admission-queue bound (explicit backpressure
            beyond it).
        mode: ``"process"`` (real worker processes) or ``"inline"``
            (shards execute in the calling thread — deterministic, for
            tests and fault scenarios that need no real parallelism).
        shard_timeout: per-attempt wall-clock limit for a shard
            process (None = unlimited).
        retries: extra attempts after a shard's first failure.
        breaker_threshold / breaker_cooldown: circuit-breaker tuning
            per group.
        seed: seeds the retry-backoff jitter.
    """

    def __init__(self, cache_dir, workers=1, queue_capacity=64,
                 mode="process", shard_timeout=None, retries=2,
                 backoff=0.1, breaker_threshold=3,
                 breaker_cooldown=30.0, seed=0, context=None):
        if mode not in ("process", "inline"):
            raise ValueError("mode must be 'process' or 'inline'")
        self.cache_dir = cache_dir
        self.workers = max(int(workers), 1)
        self.mode = mode
        self.shard_timeout = shard_timeout
        self.retries = retries
        self.backoff = backoff
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.instance_id = uuid.uuid4().hex[:8]
        self._rng = random.Random(seed)
        self._context = (multiprocessing.get_context()
                         if context is None else context)
        self._lock = threading.RLock()
        self._closing = False
        self._thread = None

        self.queue = AdmissionQueue(capacity=queue_capacity)
        self.campaigns = {}     # id -> Campaign
        self.inflight = {}      # key -> Attempt
        self.waiters = {}       # key -> set of campaign ids
        self.specs = {}         # key -> ShardSpec
        self.results = {}       # key -> result dict (in-memory cache)
        self.attempts = {}      # key -> attempts so far
        self.breakers = {}      # group -> CircuitBreaker
        self.journal = CampaignJournal(
            os.path.join(str(cache_dir), "service"))
        self._finalized = set()  # campaign ids already counted done
        self._recover()

    # -- recovery ------------------------------------------------------------

    def _recover(self):
        """Resume journalled campaigns after a restart (or crash)."""
        for campaign in self.journal.load_campaigns():
            self.campaigns[campaign.id] = campaign
            for cell in campaign.cells.values():
                if cell["status"] == DONE and cell["result"] is not None:
                    if cell["key"] not in self.results:
                        self.results[cell["key"]] = cell["result"]
                        TELEMETRY.count("service.shard.resumed")
            if campaign.finished:
                self._finalized.add(campaign.id)
                continue
            if campaign.past_deadline():
                self._expire_campaign(campaign)
                continue
            requeued = 0
            for shard in campaign.shards:
                key = shard.key
                cell = campaign.cells[(shard.row, shard.column)]
                if cell["status"] != "pending":
                    continue
                if key in self.results:
                    campaign.resolve(key, DONE,
                                     result=self.results[key])
                    continue
                self.specs.setdefault(key, shard)
                self.waiters.setdefault(key, set()).add(campaign.id)
                if key not in self.queue:
                    # recovery bypasses admission: the campaign was
                    # already admitted before the crash.
                    self.queue.requeue(key, 0.0)
                    requeued += 1
            self.journal.write_campaign(campaign)
            if requeued or campaign.finished:
                TELEMETRY.event("service.campaign.recovered",
                                campaign=campaign.id,
                                requeued=requeued)

    # -- submission ----------------------------------------------------------

    def submit(self, payload):
        """Validate, admit, and register one campaign.

        Raises :class:`SpecError` (invalid), :class:`AdmissionError`
        (queue full — nothing was registered), or
        :class:`ServiceUnavailable` (shutting down).  Returns the
        campaign's status dict.
        """
        with self._lock:
            if self._closing:
                raise ServiceUnavailable("service is shutting down")
            spec = CampaignSpec.from_payload(payload)
            campaign = Campaign(uuid.uuid4().hex[:12], spec)
            unique = {}
            for shard in campaign.shards:
                unique.setdefault(shard.key, shard)
            new_keys = []
            for key in unique:
                if key in self.results:
                    continue
                if key in self.queue or key in self.inflight:
                    TELEMETRY.count("service.dedup.inflight")
                    TELEMETRY.event("service.dedup",
                                    key=key, source="inflight",
                                    campaign=campaign.id)
                    continue
                new_keys.append(key)
            # May raise AdmissionError; the campaign is not yet
            # registered, so rejection leaves no trace to clean up.
            self.queue.admit(new_keys, workers=self.workers)

            self.campaigns[campaign.id] = campaign
            for key, shard in unique.items():
                if key in self.results:
                    TELEMETRY.count("service.dedup.cached")
                    campaign.resolve(key, DONE,
                                     result=self.results[key])
                    continue
                self.specs.setdefault(key, shard)
                self.waiters.setdefault(key, set()).add(campaign.id)
            self.journal.write_campaign(campaign)
            TELEMETRY.count("service.campaign.submitted")
            TELEMETRY.event("service.campaign.submitted",
                            campaign=campaign.id,
                            shards=len(unique),
                            enqueued=len(new_keys))
            return campaign.to_status_dict()

    # -- scheduling ----------------------------------------------------------

    def step(self):
        """One scheduling pass: deadlines, reap, spawn."""
        with self._lock:
            self._expire_deadlines()
            self._reap()
            self._spawn_ready()
            self._finalize()

    def _finalize(self):
        for campaign in self.campaigns.values():
            if campaign.finished \
                    and campaign.id not in self._finalized:
                self._finalized.add(campaign.id)
                TELEMETRY.count("service.campaign.%s"
                                % campaign.status)
                TELEMETRY.event("service.campaign.finished",
                                campaign=campaign.id,
                                status=campaign.status)

    def _breaker(self, group):
        breaker = self.breakers.get(group)
        if breaker is None:
            breaker = CircuitBreaker(
                group, threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown)
            self.breakers[group] = breaker
        return breaker

    def _drop_waiter(self, key, campaign_id):
        """Detach a campaign from a key; True if no waiters remain."""
        waiting = self.waiters.get(key)
        if waiting is not None:
            waiting.discard(campaign_id)
            if not waiting:
                del self.waiters[key]
                return True
        return False

    def _expire_campaign(self, campaign):
        campaign.expired = True
        cancelled = 0
        for shard in campaign.shards:
            cell = campaign.cells[(shard.row, shard.column)]
            if cell["status"] != "pending":
                continue
            key = shard.key
            orphaned = self._drop_waiter(key, campaign.id)
            if orphaned:
                self.queue.discard(key)
                worker = self.inflight.pop(key, None)
                if worker is not None:
                    worker.kill()
                    TELEMETRY.count("service.shard.killed")
                    TELEMETRY.event("service.shard.killed", key=key,
                                    reason="deadline-expired")
                self.specs.pop(key, None)
                self.attempts.pop(key, None)
            cancelled += campaign.resolve(
                shard.key, CANCELLED, reason="deadline-expired")
        if cancelled:
            TELEMETRY.count("service.deadline.cancelled", cancelled)
        TELEMETRY.count("service.campaign.expired")
        TELEMETRY.event("service.campaign.expired",
                        campaign=campaign.id, cancelled=cancelled)
        self.journal.write_campaign(campaign)

    def _expire_deadlines(self):
        now = time.time()
        for campaign in self.campaigns.values():
            if campaign.finished or campaign.expired:
                continue
            if campaign.past_deadline(now):
                self._expire_campaign(campaign)

    def _reap(self):
        for key in list(self.inflight):
            worker = self.inflight[key]
            if worker.timed_out:
                worker.kill()
                del self.inflight[key]
                self._fail(key, "timeout after %.1fs"
                           % self.shard_timeout)
                continue
            if worker.process.is_alive():
                continue
            del self.inflight[key]
            status, detail = worker.finish()
            if status == "ok":
                elapsed = time.monotonic() - worker.started
                self._complete(key, detail, worker.attempt, elapsed)
            else:
                self._fail(key, detail)

    def _complete(self, key, result, attempt, elapsed=None):
        """Fold one executed shard's result into every waiter.

        Journal-before-log: every waiter campaign's journal is
        persisted with the result *before* the execution is appended
        to the log (see :mod:`repro.service.journal`).
        """
        self.results[key] = result
        spec = self.specs.pop(key, None)
        self.attempts.pop(key, None)
        for campaign_id in sorted(self.waiters.pop(key, ())):
            campaign = self.campaigns[campaign_id]
            campaign.resolve(key, DONE, result=result)
            self.journal.write_campaign(campaign)
        self.journal.record_execution(key, self.instance_id, attempt)
        TELEMETRY.count("service.shard.executed")
        if elapsed is not None:
            TELEMETRY.record("service.shard.seconds", elapsed)
            self.queue.observe_latency(elapsed)
        if spec is not None:
            self._breaker(spec.breaker_group).record_success()

    def _fail(self, key, reason):
        attempt = self.attempts.get(key, 1)
        spec = self.specs.get(key)
        if spec is not None:
            tripped = self._breaker(spec.breaker_group).record_failure()
        else:
            tripped = False
        if attempt <= self.retries and not tripped:
            delay = backoff_seconds(self.backoff, attempt, self._rng)
            self.queue.requeue(key, delay)
            TELEMETRY.count("service.shard.retried")
            TELEMETRY.event("service.shard.retry", key=key,
                            attempt=attempt, delay=round(delay, 3),
                            reason=reason)
            return
        self.specs.pop(key, None)
        self.attempts.pop(key, None)
        TELEMETRY.count("service.shard.failed")
        TELEMETRY.event("service.shard.failed", key=key,
                        attempts=attempt, reason=reason)
        for campaign_id in sorted(self.waiters.pop(key, ())):
            campaign = self.campaigns[campaign_id]
            campaign.resolve(key, FAILED, reason=reason)
            self.journal.write_campaign(campaign)

    def _shed(self, key, group):
        """Resolve a shard as shed (breaker open); degraded cells."""
        self.specs.pop(key, None)
        self.attempts.pop(key, None)
        TELEMETRY.count("service.breaker.shed")
        TELEMETRY.event("service.breaker.shed", key=key, group=group)
        for campaign_id in sorted(self.waiters.pop(key, ())):
            campaign = self.campaigns[campaign_id]
            campaign.resolve(key, SHED,
                             reason="breaker-open:%s" % group)
            self.journal.write_campaign(campaign)

    def _spawn_ready(self):
        while len(self.inflight) < self.workers:
            key = self.queue.pop_ready()
            if key is None:
                return
            if key in self.results:
                # Filled while queued (another instance's journal or
                # a cached resolution); serve without executing.
                self._resolve_from_cache(key)
                continue
            if key not in self.waiters:
                continue            # every waiter cancelled meanwhile
            spec = self.specs[key]
            breaker = self._breaker(spec.breaker_group)
            if not breaker.allow():
                self._shed(key, spec.breaker_group)
                continue
            attempt = self.attempts.get(key, 0) + 1
            self.attempts[key] = attempt
            if self.mode == "inline":
                self._run_inline(spec, key, attempt)
            else:
                if FAULTS.enabled:
                    FAULTS.to_env()
                cache_dir = (None if self.cache_dir is None
                             else str(self.cache_dir))
                self.inflight[key] = Attempt(
                    self._context, _run_shard, key,
                    (spec.to_dict(), cache_dir, key, attempt), attempt,
                    self.shard_timeout)
                TELEMETRY.event("service.shard.spawn", key=key,
                                attempt=attempt)

    def _resolve_from_cache(self, key):
        result = self.results[key]
        self.specs.pop(key, None)
        for campaign_id in sorted(self.waiters.pop(key, ())):
            TELEMETRY.count("service.dedup.cached")
            campaign = self.campaigns[campaign_id]
            campaign.resolve(key, DONE, result=result)
            self.journal.write_campaign(campaign)

    def _run_inline(self, spec, key, attempt):
        FAULTS.on_shard_start(key, attempt)
        started = time.monotonic()
        try:
            result = execute_shard(spec, cache_dir=self.cache_dir)
        except Exception as error:
            self._fail(key, "%s: %s" % (type(error).__name__, error))
            return
        self._complete(key, result, attempt,
                       time.monotonic() - started)

    # -- queries -------------------------------------------------------------

    def _campaign(self, campaign_id):
        campaign = self.campaigns.get(campaign_id)
        if campaign is None:
            raise UnknownCampaign(campaign_id)
        return campaign

    def status(self, campaign_id):
        with self._lock:
            return self._campaign(campaign_id).to_status_dict()

    def events_since(self, campaign_id, since=0):
        """Completion events past cursor ``since`` (result streaming)."""
        with self._lock:
            campaign = self._campaign(campaign_id)
            return {
                "id": campaign.id,
                "status": campaign.status,
                "next": len(campaign.events),
                "events": campaign.events[since:],
            }

    def tables(self, campaign_id):
        with self._lock:
            return self._campaign(campaign_id).tables()

    def stats(self):
        with self._lock:
            by_status = {}
            for campaign in self.campaigns.values():
                by_status[campaign.status] = (
                    by_status.get(campaign.status, 0) + 1)
            return {
                "instance": self.instance_id,
                "queue": {"depth": self.queue.depth,
                          "capacity": self.queue.capacity,
                          "shard_seconds": round(
                              self.queue.shard_seconds, 4)},
                "inflight": len(self.inflight),
                "workers": self.workers,
                "mode": self.mode,
                "campaigns": by_status,
                "breakers": [breaker.to_dict() for breaker
                             in self.breakers.values()],
                "counters": TELEMETRY.snapshot().get("counters", {}),
            }

    # -- lifecycle -----------------------------------------------------------

    def start(self, interval=0.02):
        """Run the scheduling loop on a background thread."""
        if self._thread is not None:
            return self
        self._closing = False

        def _loop():
            while not self._closing:
                self.step()
                time.sleep(interval)

        self._thread = threading.Thread(target=_loop, daemon=True,
                                        name="campaign-dispatcher")
        self._thread.start()
        return self

    def stop(self):
        """Stop the loop; running shards are killed (the journal has
        everything needed to resume them on the next start)."""
        self._closing = True
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            for key in list(self.inflight):
                self.inflight.pop(key).kill()
                TELEMETRY.count("service.shard.killed")

    def drain(self, timeout=60.0, interval=0.01):
        """Step until every campaign is terminal (tests); True if so."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.step()
            with self._lock:
                if all(campaign.finished
                       for campaign in self.campaigns.values()):
                    return True
            time.sleep(interval)
        return False

    def __repr__(self):
        return "CampaignService(%s, %d campaigns, queue %r)" % (
            self.mode, len(self.campaigns), self.queue)
