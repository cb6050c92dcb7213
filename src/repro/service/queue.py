"""The durable job queue over the sqlite results store.

Jobs move ``pending → running → done | failed``, with ``cancelled``
reachable from ``pending`` (and *requested* on a running job, which
the daemon honours at the next safe point) and ``dead`` — the
**dead-letter** state — reachable from any failure path.  Everything
is one table (``queue_jobs`` in :mod:`repro.service.store`), so the
queue survives daemon restarts for free: on start-up
:meth:`JobQueue.recover` sweeps jobs stranded in ``running`` by a
crash back to ``pending``.

Submission is **idempotent**: every job carries a ``dedup_key``
derived from the image fingerprint (file content hash for on-disk
ELFs, build recipe for synthetic profiles) plus the analysis-config
fingerprint.  Submitting the same work twice returns the first job —
live or already finished — instead of scanning again; a *failed* or
*cancelled* job is revived to ``pending`` so resubmission is also the
retry knob.

Poison-job containment is two independent, both persistent, layers:

* **retry budget** — ``attempts`` lives in the job row, so it counts
  across daemon restarts; a job that has burned ``max_attempts``
  moves to ``dead`` instead of ``failed`` and resubmission does *not*
  revive it (only an explicit :meth:`retry_dead` does).
* **per-image circuit breaker** — process-killing failure modes
  (worker crash / stall / timeout, or a daemon death with the job in
  flight) increment a crash counter keyed by the image's
  ``dedup_key`` in the ``image_quarantine`` table.  At
  ``crash_threshold`` the fingerprint is quarantined: its jobs go to
  ``dead``, :meth:`claim_batch` refuses to dispatch it, and
  resubmission reports ``'quarantined'`` until an operator calls
  :meth:`reset_quarantine`.

Claiming is priority-ordered (higher first, FIFO within a priority)
and transactional, so concurrent dispatchers can never double-claim.
"""

import hashlib
import json
import time

from repro.errors import PipelineError

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
DEAD = "dead"

STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED, DEAD)
TERMINAL_STATES = (DONE, FAILED, CANCELLED, DEAD)

# Failure modes that indicate the *image* kills processes (rather
# than merely failing analysis): these feed the circuit breaker.
POISON_ERROR_TYPES = (
    "WorkerCrash", "WorkerStalled", "AnalysisTimeout", "DaemonCrash",
)

DEFAULT_MAX_ATTEMPTS = 5
DEFAULT_CRASH_THRESHOLD = 3

_SPEC_FIELDS = ("kind", "key", "path", "scale", "modules", "member",
                "alias_engine")


def job_spec(kind, key="", path="", scale=0.25, modules=(), shards=0,
             member="", alias_engine="dtaint"):
    """A normalised job-submission spec (the queue's unit of work).

    ``shards`` requests intra-image shard scheduling (0 = unsharded,
    -1 = auto, N>1 = at most N shards).  It is deliberately *not* part
    of the dedup identity (``_SPEC_FIELDS``): sharding changes how an
    image is scheduled, never what its findings are.  ``member`` (for
    ``kind='firmware'``) names one extracted ELF inside the image and
    *is* identity: two members of one image are two units of work.
    ``alias_engine`` *is* identity — the engines produce different
    findings, so one image under two engines is two units of work.
    """
    from repro.alias.base import ENGINE_NAMES

    if kind not in ("profile", "elf", "firmware"):
        raise PipelineError("unknown job kind %r" % kind)
    if kind == "profile" and not key:
        raise PipelineError("profile jobs need a profile key")
    if kind in ("elf", "firmware") and not path:
        raise PipelineError("%s jobs need a file path" % kind)
    if member and kind != "firmware":
        raise PipelineError("member selection needs kind='firmware'")
    alias_engine = alias_engine or "dtaint"
    if alias_engine not in ENGINE_NAMES:
        raise PipelineError(
            "unknown alias engine %r (expected one of %s)"
            % (alias_engine, ", ".join(ENGINE_NAMES))
        )
    return {
        "kind": kind,
        "key": key,
        "path": path,
        "scale": float(scale),
        "modules": sorted(modules or ()),
        "shards": int(shards or 0),
        "member": member,
        "alias_engine": alias_engine,
    }


def dedup_key(spec, config_fingerprint=""):
    """Image fingerprint + config fingerprint → idempotency key.

    For on-disk ELF jobs the image fingerprint is the file's content
    hash, so resubmitting an unchanged file dedups while a rebuilt
    binary at the same path queues fresh work.  Synthetic profile
    builds are deterministic in ``(key, scale)``, which therefore *is*
    their image fingerprint.
    """
    fields = {name: spec.get(name) for name in _SPEC_FIELDS}
    # Specs persisted before the engine field existed ran the default.
    fields["alias_engine"] = spec.get("alias_engine") or "dtaint"
    if spec.get("kind") in ("elf", "firmware"):
        # Firmware members hash the whole image: a re-packed image at
        # the same path queues fresh work for every member.
        try:
            with open(spec["path"], "rb") as handle:
                fields["content_sha256"] = hashlib.sha256(
                    handle.read()
                ).hexdigest()
        except OSError:
            pass                     # missing file fails at run time
    if not config_fingerprint:
        from repro.core import DTaintConfig
        from repro.pipeline.cache import report_fingerprint

        config_fingerprint = report_fingerprint(
            DTaintConfig(
                modules=tuple(spec.get("modules") or ()),
                alias_engine=spec.get("alias_engine") or "dtaint",
            )
        )
    fields["config"] = config_fingerprint
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class JobQueue:
    """Durable, priority-ordered, idempotent job queue with poison
    containment (dead-letter state + per-image circuit breaker)."""

    def __init__(self, db, max_attempts=DEFAULT_MAX_ATTEMPTS,
                 crash_threshold=DEFAULT_CRASH_THRESHOLD):
        self.db = db
        self.max_attempts = max(int(max_attempts), 1)
        self.crash_threshold = max(int(crash_threshold), 1)

    # -- submission --------------------------------------------------------

    def submit(self, spec, priority=0, key=None):
        """Enqueue a job; returns ``(job_id, outcome)``.

        ``outcome`` is ``'created'`` for new work, ``'deduplicated'``
        when an equivalent job is pending/running/done, ``'revived'``
        when a failed/cancelled job went back to pending, and
        ``'quarantined'`` when the image is dead-lettered — the job is
        *not* requeued until an operator intervenes
        (:meth:`retry_dead` / :meth:`reset_quarantine`).
        """
        key = key or dedup_key(spec)
        with self.db._transaction() as conn:
            row = conn.execute(
                "SELECT job_id, state FROM queue_jobs WHERE dedup_key = ?",
                (key,),
            ).fetchone()
            if row is None:
                if self._is_quarantined(conn, key):
                    raise PipelineError(
                        "image fingerprint %s is quarantined" % key[:16]
                    )
                cursor = conn.execute(
                    "INSERT INTO queue_jobs(dedup_key, spec_json, "
                    "priority, state, submitted_ts) VALUES (?, ?, ?, ?, ?)",
                    (key, json.dumps(spec, sort_keys=True), int(priority),
                     PENDING, time.time()),
                )
                return cursor.lastrowid, "created"
            if row["state"] == DEAD:
                return row["job_id"], "quarantined"
            if row["state"] in (FAILED, CANCELLED):
                conn.execute(
                    "UPDATE queue_jobs SET state = ?, priority = ?, "
                    "cancel_requested = 0, submitted_ts = ?, "
                    "started_ts = NULL, finished_ts = NULL, error = '', "
                    "error_type = '', attempts = 0 WHERE job_id = ?",
                    (PENDING, int(priority), time.time(), row["job_id"]),
                )
                return row["job_id"], "revived"
            return row["job_id"], "deduplicated"

    # -- dispatch ----------------------------------------------------------

    def claim_batch(self, limit=1):
        """Atomically move up to ``limit`` pending jobs to running.

        Quarantined image fingerprints are never dispatched, even if a
        pending row slipped in before the breaker tripped.
        """
        with self.db._transaction() as conn:
            rows = conn.execute(
                "SELECT q.* FROM queue_jobs q "
                "LEFT JOIN image_quarantine iq ON iq.dedup_key = "
                "q.dedup_key AND iq.quarantined = 1 "
                "WHERE q.state = ? AND q.cancel_requested = 0 "
                "AND iq.dedup_key IS NULL "
                "ORDER BY q.priority DESC, q.job_id LIMIT ?",
                (PENDING, int(limit)),
            ).fetchall()
            now = time.time()
            claimed = []
            for row in rows:
                conn.execute(
                    "UPDATE queue_jobs SET state = ?, started_ts = ?, "
                    "attempts = attempts + 1 WHERE job_id = ?",
                    (RUNNING, now, row["job_id"]),
                )
                claimed.append(self._as_dict(row, state=RUNNING))
        return claimed

    def complete(self, job_id, image_id=None):
        with self.db._transaction() as conn:
            self.finish_in(conn, job_id, DONE, image_id=image_id)

    def fail(self, job_id, error="", error_type=""):
        with self.db._transaction() as conn:
            self.finish_in(conn, job_id, FAILED, error=error,
                           error_type=error_type)

    def finish_in(self, conn, job_id, state, image_id=None, error="",
                  error_type=""):
        """Apply one job's terminal disposition inside an open
        transaction (the daemon folds this into the same transaction
        that publishes the job's results); returns the state the job
        actually landed in (a failure may escalate to ``dead``).
        """
        if state == FAILED:
            row = conn.execute(
                "SELECT dedup_key, attempts FROM queue_jobs "
                "WHERE job_id = ?", (int(job_id),),
            ).fetchone()
            if row is not None:
                tripped = False
                if error_type in POISON_ERROR_TYPES:
                    tripped = self._record_crash(
                        conn, row["dedup_key"], error_type
                    )
                if tripped or row["attempts"] >= self.max_attempts:
                    state = DEAD
        conn.execute(
            "UPDATE queue_jobs SET state = ?, finished_ts = ?, "
            "image_id = COALESCE(?, image_id), error = ?, "
            "error_type = ? WHERE job_id = ?",
            (state, time.time(), image_id, error, error_type,
             int(job_id)),
        )
        return state

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id):
        """Cancel a job; returns the resulting disposition.

        ``'cancelled'`` — it was pending and will never run;
        ``'cancel_requested'`` — it is running, the daemon will not
        re-dispatch it but the in-flight attempt completes;
        ``'already_terminal'`` / ``'missing'`` otherwise.
        """
        with self.db._transaction() as conn:
            row = conn.execute(
                "SELECT state FROM queue_jobs WHERE job_id = ?",
                (int(job_id),),
            ).fetchone()
            if row is None:
                return "missing"
            if row["state"] == PENDING:
                conn.execute(
                    "UPDATE queue_jobs SET state = ?, finished_ts = ?, "
                    "cancel_requested = 1 WHERE job_id = ?",
                    (CANCELLED, time.time(), int(job_id)),
                )
                return "cancelled"
            if row["state"] == RUNNING:
                conn.execute(
                    "UPDATE queue_jobs SET cancel_requested = 1 "
                    "WHERE job_id = ?", (int(job_id),),
                )
                return "cancel_requested"
            return "already_terminal"

    # -- recovery ----------------------------------------------------------

    def recover(self):
        """Requeue jobs a dead daemon left in ``running``; returns n.

        A job found ``running`` at start-up was in flight when the
        previous daemon died — that counts as one crash signal against
        its image fingerprint (the breaker is how a reliably
        daemon-killing image eventually stops being retried), and the
        cross-restart attempt budget applies: over budget or over the
        crash threshold, the job dead-letters instead of requeueing.
        """
        with self.db._transaction() as conn:
            rows = conn.execute(
                "SELECT job_id, dedup_key, attempts FROM queue_jobs "
                "WHERE state = ?", (RUNNING,),
            ).fetchall()
            requeued = 0
            for row in rows:
                tripped = self._record_crash(
                    conn, row["dedup_key"], "DaemonCrash"
                )
                if tripped or row["attempts"] >= self.max_attempts:
                    conn.execute(
                        "UPDATE queue_jobs SET state = ?, finished_ts = ?,"
                        " error = ?, error_type = ? WHERE job_id = ?",
                        (DEAD, time.time(),
                         "daemon died while job was in flight",
                         "DaemonCrash", row["job_id"]),
                    )
                else:
                    conn.execute(
                        "UPDATE queue_jobs SET state = ?, "
                        "started_ts = NULL WHERE job_id = ?",
                        (PENDING, row["job_id"]),
                    )
                    requeued += 1
            return requeued

    # -- dead-letter / quarantine operations -------------------------------

    def dead_letter(self, limit=200):
        """The dead-letter queue: jobs needing operator attention."""
        jobs = self.list_jobs(state=DEAD, limit=limit)
        breaker = {
            row["dedup_key"]: row for row in self.quarantined_images()
        }
        for job in jobs:
            info = breaker.get(job["dedup_key"])
            job["crash_count"] = info["crash_count"] if info else 0
            job["quarantined"] = bool(info and info["quarantined"])
        return jobs

    def retry_dead(self, job_id):
        """Give one dead-lettered job a fresh budget; returns outcome.

        Resets the attempt counter *and* the image's circuit breaker —
        an operator retrying a dead job has decided the image deserves
        another chance (say, after a daemon bug was fixed).
        """
        with self.db._transaction() as conn:
            row = conn.execute(
                "SELECT state, dedup_key FROM queue_jobs WHERE job_id = ?",
                (int(job_id),),
            ).fetchone()
            if row is None:
                return "missing"
            if row["state"] != DEAD:
                return "not_dead"
            conn.execute(
                "UPDATE queue_jobs SET state = ?, attempts = 0, "
                "cancel_requested = 0, submitted_ts = ?, "
                "started_ts = NULL, finished_ts = NULL, error = '', "
                "error_type = '' WHERE job_id = ?",
                (PENDING, time.time(), int(job_id)),
            )
            conn.execute(
                "DELETE FROM image_quarantine WHERE dedup_key = ?",
                (row["dedup_key"],),
            )
            return "requeued"

    def reset_quarantine(self, dedup_key):
        """Clear one image fingerprint's circuit breaker; returns n."""
        with self.db._transaction() as conn:
            cursor = conn.execute(
                "DELETE FROM image_quarantine WHERE dedup_key = ?",
                (dedup_key,),
            )
            return cursor.rowcount

    def quarantined_images(self):
        """Every fingerprint the breaker is tracking (crashes ≥ 1)."""
        with self.db._lock:
            rows = self.db._conn.execute(
                "SELECT * FROM image_quarantine ORDER BY updated_ts DESC"
            ).fetchall()
        return [{key: row[key] for key in row.keys()} for row in rows]

    def _record_crash(self, conn, dedup_key, error_type):
        """Count one crash against an image; True if the breaker trips."""
        now = time.time()
        conn.execute(
            "INSERT INTO image_quarantine(dedup_key, crash_count, "
            "last_error_type, updated_ts) VALUES (?, 1, ?, ?) "
            "ON CONFLICT(dedup_key) DO UPDATE SET "
            "crash_count = crash_count + 1, "
            "last_error_type = excluded.last_error_type, "
            "updated_ts = excluded.updated_ts",
            (dedup_key, error_type, now),
        )
        row = conn.execute(
            "SELECT crash_count FROM image_quarantine WHERE dedup_key = ?",
            (dedup_key,),
        ).fetchone()
        if row["crash_count"] >= self.crash_threshold:
            conn.execute(
                "UPDATE image_quarantine SET quarantined = 1 "
                "WHERE dedup_key = ?", (dedup_key,),
            )
            return True
        return False

    @staticmethod
    def _is_quarantined(conn, dedup_key):
        row = conn.execute(
            "SELECT quarantined FROM image_quarantine WHERE dedup_key = ?",
            (dedup_key,),
        ).fetchone()
        return bool(row and row["quarantined"])

    # -- introspection -----------------------------------------------------

    def get(self, job_id):
        with self.db._lock:
            row = self.db._conn.execute(
                "SELECT * FROM queue_jobs WHERE job_id = ?",
                (int(job_id),),
            ).fetchone()
        return self._as_dict(row) if row is not None else None

    def list_jobs(self, state=None, limit=200):
        clauses, params = [], []
        if state:
            clauses.append("state = ?")
            params.append(state)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        params.append(int(limit))
        with self.db._lock:
            rows = self.db._conn.execute(
                "SELECT * FROM queue_jobs" + where
                + " ORDER BY job_id DESC LIMIT ?", params,
            ).fetchall()
        return [self._as_dict(row) for row in rows]

    def counts(self):
        with self.db._lock:
            rows = self.db._conn.execute(
                "SELECT state, COUNT(*) AS n FROM queue_jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in STATES}
        counts.update({row["state"]: row["n"] for row in rows})
        return counts

    def depth(self):
        """Jobs waiting or in flight: the backpressure signal."""
        with self.db._lock:
            row = self.db._conn.execute(
                "SELECT COUNT(*) AS n FROM queue_jobs WHERE state IN "
                "(?, ?)", (PENDING, RUNNING),
            ).fetchone()
        return row["n"]

    @staticmethod
    def _as_dict(row, **overrides):
        job = {key: row[key] for key in row.keys()}
        job["spec"] = json.loads(job.pop("spec_json"))
        job["cancel_requested"] = bool(job["cancel_requested"])
        job.update(overrides)
        return job
