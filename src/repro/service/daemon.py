"""The persistent analysis daemon: queue → warm pool → sqlite store.

``AnalysisDaemon`` is the orchestration core every frontend shares
(REST API, ``dtaint client``, tests driving it in-process).  One
dispatcher thread loops:

1. claim up to ``workers`` pending jobs from the durable queue
   (priority order);
2. run them as one batch on the **persistent** scheduler — the warm
   worker pool survives between batches, so steady-state submissions
   skip process start-up entirely;
3. record the batch into the sqlite store (one transaction) and move
   each queue job to ``done``/``failed``.

Telemetry fans out into the store via a sink, so every scheduler
event (job_start, phase_times, cache_report, job_finish, ...) becomes
a per-job progress row the API can stream incrementally.

Crash-safe resume: on :meth:`start` the queue's ``running`` leftovers
from a dead daemon are swept back to ``pending`` and simply get
re-dispatched; results are only published in the same transaction
that completes the queue row, so a half-processed batch re-runs
without duplicating history.
"""

import threading
import time

from repro import faultinject
from repro.errors import QueueFull
from repro.pipeline.results import canonical_digest
from repro.pipeline.scheduler import FleetJob, FleetScheduler
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
        self.batches = 0
        self.jobs_processed = 0
        self._queue_ids = {}         # fleet job_id -> queue job_id
        self._stop = threading.Event()
        self._thread = None
        self.draining = False

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Recover stranded jobs and start the dispatcher thread."""
        resumed = self.queue.recover()
        if resumed:
            self.telemetry.emit("daemon_resume", requeued=resumed)
        self._stop.clear()
        self.draining = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="dtaint-dispatch", daemon=True,
        )
        self._thread.start()
        return resumed

    def stop(self, drain_timeout=60.0):
        """Graceful drain: finish the in-flight batch, then shut down.

        The dispatcher thread stops claiming immediately; the batch it
        is mid-way through runs to completion (results published +
        queue rows finished in their one transaction) up to
        ``drain_timeout`` seconds.  Everything still ``pending`` is
        durable in sqlite and simply waits for the next daemon; a
        batch abandoned by a drain timeout is swept back to pending by
        the next start-up's :meth:`JobQueue.recover`.
        """
        self.draining = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(drain_timeout)
            self._thread = None
        self.scheduler.close()
        self.telemetry.close()
        self.db.close()

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
        while not self._stop.is_set():
            if not self.run_once():
                self._stop.wait(self.poll_interval)

    def run_once(self):
        """Claim and process one batch; returns the number of jobs.

        Public so tests (and synchronous embedders) can drive the
        daemon deterministically without the dispatcher thread.

        Crash safety: the queue rows' terminal states are written by
        ``record_run``'s finisher *inside the transaction that
        publishes the results*, so there is no instant at which
        results exist without their jobs being done (or vice versa).
        A daemon killed anywhere in this method leaves the jobs in
        ``running``; the next start-up sweeps them back to pending and
        the batch re-runs without duplicating history.  The three
        ``service.*`` fault-injection probes mark the interesting kill
        points: just after the claim commits, after compute finishes,
        and inside the publish transaction.
        """
        rows = self.queue.claim_batch(limit=self.workers)
        if not rows:
            return 0
        batch_label = ",".join(str(row["job_id"]) for row in rows)
        faultinject.check("service.claim", batch_label)
        fleet_jobs = []
        self._queue_ids = {}
        for row in rows:
            fleet_id = "q%d" % row["job_id"]
            self._queue_ids[fleet_id] = row["job_id"]
            fleet_jobs.append(
                fleet_job_from_spec(row["spec"], fleet_id,
                                    self.default_shards)
            )
        start = time.perf_counter()
        results = self.scheduler.run(fleet_jobs)
        wall = time.perf_counter() - start
        faultinject.check("service.dispatch", batch_label)

        def finish_queue_rows(conn, run_id, image_ids):
            for row, result in zip(rows, results):
                if result.ok:
                    self.queue.finish_in(
                        conn, row["job_id"], DONE,
                        image_id=image_ids.get(result.job.job_id),
                    )
                else:
                    self.queue.finish_in(
                        conn, row["job_id"], FAILED,
                        error=result.error,
                        error_type=result.error_type,
                    )
            faultinject.check("service.publish", batch_label)

        run_id, image_ids = self.db.record_run(
            results, wall, kind="service",
            queue_job_ids=self._queue_ids,
            finisher=finish_queue_rows,
        )
        self.batches += 1
        self.jobs_processed += len(rows)
        self.telemetry.emit(
            "batch_finish", run_id=run_id, jobs=len(rows),
            wall_seconds=round(wall, 4),
            warm_workers=self.scheduler.pool.warm_count,
        )
        return len(rows)

    def _event_sink(self, record):
        queue_job_id = self._queue_ids.get(record.get("job"))
        self.db.append_event(queue_job_id, record)

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
        self.telemetry.emit(
            "job_submitted", queue_job_id=job_id, outcome=outcome,
            kind=spec.get("kind", ""),
            target=spec.get("key") or spec.get("path") or "",
        )
        job = self.queue.get(job_id)
        job["outcome"] = outcome
        return job

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
            "batches": self.batches,
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
