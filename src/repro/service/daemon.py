"""The persistent analysis daemon: queue → warm pool → sqlite store.

``AnalysisDaemon`` is the orchestration core every frontend shares
(REST API, ``dtaint client``, tests driving it in-process).  One
dispatcher thread runs a single event-driven
:meth:`FleetScheduler.run <repro.pipeline.scheduler.FleetScheduler.run>`
loop — the same launch/poll loop a one-shot ``fleet-scan`` uses — fed
from the durable queue:

1. **wake** — ``submit``, ``retry_dead``, ``reset_quarantine``,
   start-up recovery and ``stop`` write a byte to a wake pipe the
   loop waits on beside the worker pipes, so new work starts at once
   (``poll_interval`` is only a safety net for rows another process
   writes into the queue);
2. **claim per free slot** — the loop claims at most as many pending
   rows as it has free worker slots (priority order), so a worker
   freed by a finished job takes the next row immediately; the warm
   pool survives between jobs, and :meth:`start` forks every slot
   after importing what jobs run on, so no submission waits for a
   process start-up or an import;
3. **publish per job** — each job that settles is recorded into the
   sqlite store and its queue row moved to ``done``/``failed`` in one
   transaction, while the other slots keep running.

Telemetry fans out into the store via a sink, so every scheduler
event (job_start, phase_times, cache_report, job_finish, ...) becomes
a per-job progress row the API can stream incrementally.

Crash-safe resume: on :meth:`start` the queue's ``running`` leftovers
from a dead daemon are swept back to ``pending`` and simply get
re-dispatched; a job's results are only published in the same
transaction that completes its queue row, so a job killed anywhere
before that commit re-runs without duplicating history.
"""

import os
import threading
import time

from repro import faultinject
from repro.errors import QueueFull
from repro.pipeline.results import canonical_digest
from repro.pipeline.scheduler import (
    FleetJob,
    FleetScheduler,
    import_job_modules,
)
from repro.pipeline.telemetry import Telemetry
from repro.service.queue import (
    DEFAULT_CRASH_THRESHOLD,
    DEFAULT_MAX_ATTEMPTS,
    DONE,
    FAILED,
    JobQueue,
)
from repro.service.store import ResultsDB


def fleet_job_from_spec(spec, job_id, default_shards=0):
    """Materialise a queue spec into the scheduler's job form."""
    return FleetJob(
        job_id=job_id,
        kind=spec["kind"],
        key=spec.get("key", ""),
        path=spec.get("path", ""),
        scale=spec.get("scale", 0.25),
        modules=tuple(spec.get("modules") or ()),
        shards=int(spec.get("shards") or default_shards or 0),
        member=spec.get("member", ""),
        alias_engine=spec.get("alias_engine") or "dtaint",
    )


def _queue_job_id(fleet_id):
    """The queue row id behind a daemon job id (``q<row id>``)."""
    if (isinstance(fleet_id, str) and fleet_id[:1] == "q"
            and fleet_id[1:].isdigit()):
        return int(fleet_id[1:])
    return None


class _WakePipe:
    """A self-pipe the dispatcher waits on beside its worker pipes.

    ``set`` writes one byte; ``drain`` consumes every pending byte and
    says whether there were any.  The feed drains before it claims,
    so a wake that lands after the drain is never lost.  Both ends are
    non-blocking: a full pipe already means "wake".
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)

    def fileno(self):
        return self._read

    def set(self):
        with self._lock:
            if self._write is None:
                return               # closed: the daemon has stopped
            try:
                os.write(self._write, b"\0")
            except BlockingIOError:
                pass

    def drain(self):
        woken = False
        while True:
            try:
                chunk = os.read(self._read, 4096)
            except BlockingIOError:
                return woken
            if not chunk:
                return woken
            woken = True

    def close(self):
        with self._lock:
            if self._write is not None:
                os.close(self._write)
                os.close(self._read)
                self._write = None


class _QueueFeed:
    """The scheduler's job source over the durable queue.

    ``take(slots)`` claims at most ``slots`` pending rows.  The
    continuous feed of the dispatcher thread goes to sqlite only when
    it was woken, when its last claim filled every slot it asked for
    (more rows may be waiting), or once ``poll_interval`` has passed;
    it claims nothing while the daemon drains and closes when it
    stops.  The one-shot feed of :meth:`AnalysisDaemon.run_once`
    closes as soon as a claim comes back empty.
    """

    def __init__(self, daemon, continuous):
        self.daemon = daemon
        self.continuous = continuous
        self.wake = daemon._wake if continuous else None
        self.poll_interval = daemon.poll_interval
        self.claimed = 0
        self._backlog = True
        self._next_poll = 0.0

    def take(self, slots):
        daemon = self.daemon
        if self.continuous:
            if daemon._stop.is_set():
                return None
            woken = daemon._wake.drain()
            if daemon.draining:
                return []
            now = time.monotonic()
            if not (woken or self._backlog or now >= self._next_poll):
                return []
            self._next_poll = now + self.poll_interval
        elif daemon.draining:
            return None
        rows = daemon.queue.claim_batch(limit=slots)
        self._backlog = len(rows) == slots
        if not rows:
            return [] if self.continuous else None
        self.claimed += len(rows)
        faultinject.check(
            "service.claim", ",".join(str(row["job_id"]) for row in rows)
        )
        return [
            fleet_job_from_spec(row["spec"], "q%d" % row["job_id"],
                                daemon.default_shards)
            for row in rows
        ]


class AnalysisDaemon:
    """Long-running analysis service over one sqlite store."""

    def __init__(self, db_path, cache_dir=None, workers=2, timeout=None,
                 retries=1, incremental=False, telemetry_path=None,
                 poll_interval=0.2, scale=None, rlimits=None,
                 heartbeat=0.0, max_queue_depth=0,
                 max_attempts=DEFAULT_MAX_ATTEMPTS,
                 crash_threshold=DEFAULT_CRASH_THRESHOLD,
                 retry_after=5.0, shards=0, alias_engine="dtaint"):
        self.db = ResultsDB(db_path)
        self.queue = JobQueue(self.db, max_attempts=max_attempts,
                              crash_threshold=crash_threshold)
        self.workers = max(int(workers), 1)
        self.poll_interval = poll_interval
        self.default_scale = scale
        # Default intra-image shard count applied to jobs whose spec
        # doesn't set one (0 = unsharded, -1 = auto).
        self.default_shards = int(shards or 0)
        # Alias engine applied to submissions that don't pick one.
        self.default_alias_engine = alias_engine or "dtaint"
        # Backpressure: pending + running jobs beyond this depth make
        # submit() raise QueueFull (HTTP 429 at the API).  0 = off.
        self.max_queue_depth = max(int(max_queue_depth or 0), 0)
        self.retry_after = retry_after
        self.telemetry = Telemetry(path=telemetry_path)
        self.telemetry.add_sink(self._event_sink)
        self.scheduler = FleetScheduler(
            jobs=self.workers,
            timeout=timeout or None,
            retries=retries,
            cache_dir=cache_dir,
            use_fleet_index=incremental,
            telemetry=self.telemetry,
            rlimits=rlimits,
            heartbeat=heartbeat,
        )
        self.started_ts = time.time()
        self.jobs_processed = 0
        self._stop = threading.Event()
        self._thread = None
        self.draining = False
        self._wake = _WakePipe()

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Warm the worker pool, recover stranded jobs and start the
        dispatcher thread."""
        # Workers forked after the imports start their first job warm.
        import_job_modules()
        self.scheduler.pool.prewarm(self.workers)
        resumed = self.queue.recover()
        if resumed:
            self.telemetry.emit("daemon_resume", requeued=resumed)
        self._stop.clear()
        self.draining = False
        self._wake.set()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="dtaint-dispatch", daemon=True,
        )
        self._thread.start()
        return resumed

    def stop(self, drain_timeout=60.0):
        """Graceful drain: finish the in-flight jobs, then shut down.

        The dispatcher stops claiming immediately; the jobs it has in
        flight run to completion (each published with its queue row
        finished in one transaction) up to ``drain_timeout`` seconds.
        Everything still ``pending`` is durable in sqlite and simply
        waits for the next daemon; a job abandoned by a drain timeout
        is swept back to pending by the next start-up's
        :meth:`JobQueue.recover`.
        """
        self.draining = True
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(drain_timeout)
            self._thread = None
        self.scheduler.close()
        self.telemetry.close()
        self.db.close()
        self._wake.close()

    def ready(self):
        """Readiness: accepting work and able to make progress."""
        if self.draining or self._stop.is_set():
            return False, "draining"
        if self._thread is not None and not self._thread.is_alive():
            return False, "dispatcher thread died"
        return True, "ok"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self):
        self.scheduler.run(source=_QueueFeed(self, continuous=True),
                           on_result=self._publish)

    def run_once(self):
        """Drain what is pending now; returns the number of jobs claimed.

        Runs the dispatcher's own loop on a one-shot feed that stops
        claiming once the queue has no pending row, and returns when
        every claimed job is published.  Public so tests (and
        synchronous embedders) can drive the daemon deterministically
        without the dispatcher thread; never call it while that thread
        runs, since both would share the scheduler.
        """
        feed = _QueueFeed(self, continuous=False)
        self.scheduler.run(source=feed, on_result=self._publish)
        return feed.claimed

    def _publish(self, result):
        """Publish one settled job and finish its queue row.

        Crash safety: the queue row's terminal state is written by
        ``record_run``'s finisher *inside the transaction that
        publishes the job's results*, so there is no instant at which
        results exist without their job being done (or vice versa).
        A daemon killed before that commit leaves the job in
        ``running``; the next start-up sweeps it back to pending and
        it re-runs without duplicating history.  The three
        ``service.*`` fault-injection probes mark the interesting kill
        points: just after a claim commits, after a job computed, and
        inside its publish transaction.
        """
        fleet_id = result.job.job_id
        queue_job_id = _queue_job_id(fleet_id)
        label = str(queue_job_id)
        faultinject.check("service.dispatch", label)

        def finish_queue_row(conn, run_id, image_ids):
            if result.ok:
                self.queue.finish_in(conn, queue_job_id, DONE,
                                     image_id=image_ids.get(fleet_id))
            else:
                self.queue.finish_in(conn, queue_job_id, FAILED,
                                     error=result.error,
                                     error_type=result.error_type)
            faultinject.check("service.publish", label)

        self.db.record_run(
            [result], result.elapsed, kind="service",
            queue_job_ids={fleet_id: queue_job_id},
            finisher=finish_queue_row,
        )
        self.jobs_processed += 1

    def _event_sink(self, record):
        self.db.append_event(_queue_job_id(record.get("job")), record)

    # -- frontends ---------------------------------------------------------

    def submit(self, spec, priority=0):
        """Idempotent submission; returns the queue job row.

        Raises :class:`~repro.errors.QueueFull` when the backlog
        (pending + running) is at ``max_queue_depth`` — the REST layer
        maps this to HTTP 429 with a ``Retry-After`` hint.
        """
        if self.max_queue_depth:
            depth = self.queue.depth()
            if depth >= self.max_queue_depth:
                raise QueueFull(depth, self.max_queue_depth,
                                retry_after=self.retry_after)
        job_id, outcome = self.queue.submit(spec, priority=priority)
        self._wake.set()
        self.telemetry.emit(
            "job_submitted", queue_job_id=job_id, outcome=outcome,
            kind=spec.get("kind", ""),
            target=spec.get("key") or spec.get("path") or "",
        )
        job = self.queue.get(job_id)
        job["outcome"] = outcome
        return job

    def retry_dead(self, job_id):
        """Requeue a dead-lettered job (:meth:`JobQueue.retry_dead`)."""
        outcome = self.queue.retry_dead(job_id)
        self._wake.set()
        return outcome

    def reset_quarantine(self, dedup_key):
        """Clear an image's circuit breaker, making its pending rows
        claimable again (:meth:`JobQueue.reset_quarantine`)."""
        removed = self.queue.reset_quarantine(dedup_key)
        self._wake.set()
        return removed

    def job_status(self, job_id):
        return self.queue.get(job_id)

    def job_findings(self, job_id):
        """The canonical findings document for a finished job."""
        job = self.queue.get(job_id)
        if job is None:
            return None
        response = {"job_id": job_id, "state": job["state"]}
        if job.get("image_id"):
            document = self.db.image_document(job["image_id"])
            if document is not None:
                response["findings"] = document.get("findings")
                response["findings_sha256"] = document.get(
                    "findings_sha256", ""
                )
                response["target"] = document.get("target", "")
                response["document"] = document
        return response

    def job_events(self, job_id, after=0, limit=1000):
        return self.db.events(queue_job_id=job_id, after=after,
                              limit=limit)

    def stats(self):
        stats = self.db.stats()
        stats.update({
            "uptime_seconds": round(time.time() - self.started_ts, 3),
            "workers": self.workers,
            "warm_workers": (
                self.scheduler.pool.warm_count
                if self.scheduler._pool is not None else 0
            ),
            "workers_spawned": (
                self.scheduler.pool.spawned_total
                if self.scheduler._pool is not None else 0
            ),
            "jobs_processed": self.jobs_processed,
            "draining": self.draining,
            "queue_depth": self.queue.depth(),
            "max_queue_depth": self.max_queue_depth,
            "quarantined_images": sum(
                1 for row in self.queue.quarantined_images()
                if row["quarantined"]
            ),
        })
        return stats


def verify_roundtrip(document):
    """Re-derive the fingerprint of a stored findings document.

    Sanity helper for clients: the stored ``findings`` section *is*
    the canonical document :func:`~repro.pipeline.results.
    findings_fingerprint` hashes, so hashing it again must reproduce
    the stored ``findings_sha256`` exactly.  Returns ``True`` when it
    does.
    """
    findings = document.get("findings")
    if findings is None:
        return False
    return canonical_digest(findings) == document.get("findings_sha256")
