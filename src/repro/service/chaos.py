"""Service chaos harness: kill the daemon at every interesting point.

The chaos contract the service stack promises (and the acceptance
criterion this module verifies) is:

* **zero loss** — every accepted job eventually reaches ``done``, no
  matter where the daemon was killed;
* **zero duplication** — recovery never publishes a job twice: each
  queue job owns at most one ``images`` row;
* **byte-identical results** — the canonical ``findings_sha256`` of
  every job after a kill + recovery equals the fingerprint of an
  uninterrupted run.

The harness drives a real :class:`~repro.service.daemon.
AnalysisDaemon` — its continuous dispatcher thread, with every job
submitted up front so each worker slot has one in flight — in a
**forked child process** with a ``kill9`` fault armed at one of the
``service.*`` probe sites (:mod:`repro.faultinject`), delivering an
un-catchable ``SIGKILL`` at that exact point:

======================  ==============================================
``service.claim``       just after the claim transaction committed —
                        jobs are ``running``, nothing computed
``service.dispatch``    after the first job computed, before its
                        publication — its result exists only in the
                        dispatcher's memory, the others are mid-run
``service.publish``     inside the first job's publish transaction,
                        after its queue row was marked done but before
                        COMMIT — the WAL journal must roll it back
======================  ==============================================

After the child dies the parent reopens the store, runs recovery
(:meth:`JobQueue.recover`, then a fresh continuous daemon until the
queue is empty) and audits the three guarantees.  :func:`chaos_sweep`
walks every point and returns the triage document the CI
``service-chaos`` job uploads.

Two more injection points ride along for the client/store layers:

* :class:`lock_contender` — a child process holding ``BEGIN
  IMMEDIATE`` on the same database file, exercising ``busy_timeout``
  + bounded lock-retry in every parent transaction;
* ``disconnect@service.api`` — armed inside a live API server, tears
  client connections mid-request to exercise ``ServiceClient``'s
  retry and stream-resume machinery (used by the tests directly).
"""

import json
import multiprocessing
import os
import signal
import sqlite3
import time
from dataclasses import dataclass, field

from repro.errors import PipelineError
from repro.service.daemon import AnalysisDaemon
from repro.service.queue import DONE, JobQueue, job_spec
from repro.service.store import ResultsDB

CHAOS_POINTS = ("service.claim", "service.dispatch", "service.publish")

# Conservative defaults for the smoke sweep: tiny profiles, small pool.
DEFAULT_PROFILES = ("dir645", "dgn1000")
DEFAULT_SCALE = 0.1


@dataclass
class ChaosOutcome:
    """The audit of one kill point (or the uninterrupted baseline)."""

    point: str
    killed: bool = False
    exit_detail: str = ""
    submitted: int = 0
    recovered: int = 0           # jobs requeued by recovery
    done: int = 0
    lost: list = field(default_factory=list)
    duplicated: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)  # target -> sha256
    mismatched: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.lost and not self.duplicated and not self.mismatched

    def to_dict(self):
        return {
            "point": self.point,
            "ok": self.ok,
            "killed": self.killed,
            "exit_detail": self.exit_detail,
            "submitted": self.submitted,
            "recovered": self.recovered,
            "done": self.done,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "fingerprints": self.fingerprints,
            "mismatched": self.mismatched,
        }


def _daemon(db_path, workers, scale):
    return AnalysisDaemon(
        db_path, workers=workers, scale=scale, retries=1,
        heartbeat=0.2,
    )


def _submit_jobs(db_path, profiles, scale):
    """Seed the queue; returns ``{queue_job_id: profile_key}``."""
    with ResultsDB(db_path) as db:
        queue = JobQueue(db)
        jobs = {}
        for key in profiles:
            job_id, outcome = queue.submit(
                job_spec("profile", key=key, scale=scale)
            )
            if outcome != "created":
                raise PipelineError(
                    "chaos run needs a fresh database (job %s was %s)"
                    % (key, outcome)
                )
            jobs[job_id] = key
    return jobs


def _chaos_child(db_path, specs, workers, scale):
    """Child body: arm the fault, run the dispatcher until the queue
    is empty, exit clean.

    With a ``kill9`` spec armed the dispatcher dies by SIGKILL at the
    probe; without (baseline) it processes everything and exits 0.
    """
    from repro import faultinject

    if specs:
        faultinject.install(faultinject.FaultInjector(specs))
    daemon = _daemon(db_path, workers, scale)
    try:
        daemon.start()
        while daemon.queue.depth() and daemon.ready()[0]:
            time.sleep(0.05)
    finally:
        daemon.stop()
    os._exit(0)


def _run_child(db_path, specs, workers, scale, timeout=600.0):
    """Fork the drain child; returns (killed_by_sigkill, detail)."""
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_chaos_child, args=(db_path, specs, workers, scale),
        name="dtaint-chaos-child",
    )
    child.start()
    child.join(timeout)
    if child.is_alive():
        child.kill()
        child.join(10)
        return False, "hung (killed after %.0fs)" % timeout
    code = child.exitcode
    if code == -signal.SIGKILL:
        return True, "SIGKILL at probe"
    return False, "exit %s" % code


def _audit(db_path, jobs, baseline, outcome):
    """Check zero-loss / zero-dup / fingerprint equality post-recovery."""
    with ResultsDB(db_path) as db:
        queue = JobQueue(db)
        for job_id, key in sorted(jobs.items()):
            row = queue.get(job_id)
            if row is None or row["state"] != DONE:
                outcome.lost.append({
                    "job_id": job_id, "target": key,
                    "state": row["state"] if row else "missing",
                })
                continue
            outcome.done += 1
        with db._lock:
            dup_rows = db._conn.execute(
                "SELECT queue_job_id, COUNT(*) AS n FROM images "
                "WHERE queue_job_id IS NOT NULL "
                "GROUP BY queue_job_id HAVING n > 1"
            ).fetchall()
            sha_rows = db._conn.execute(
                "SELECT queue_job_id, findings_sha256 FROM images "
                "WHERE queue_job_id IS NOT NULL"
            ).fetchall()
        outcome.duplicated = [
            {"job_id": row["queue_job_id"], "published_runs": row["n"]}
            for row in dup_rows
        ]
        shas = {row["queue_job_id"]: row["findings_sha256"]
                for row in sha_rows}
    for job_id, key in sorted(jobs.items()):
        sha = shas.get(job_id, "")
        outcome.fingerprints[key] = sha
        expected = (baseline or {}).get(key)
        if expected is not None and sha != expected:
            outcome.mismatched.append({
                "target": key, "expected": expected, "got": sha,
            })
    return outcome


def baseline_fingerprints(work_dir, profiles=DEFAULT_PROFILES,
                          scale=DEFAULT_SCALE, workers=2):
    """Uninterrupted run on a fresh store: target -> findings_sha256."""
    db_path = os.path.join(work_dir, "baseline.sqlite")
    jobs = _submit_jobs(db_path, profiles, scale)
    killed, detail = _run_child(db_path, (), workers, scale)
    if killed:
        raise PipelineError("baseline run died: %s" % detail)
    outcome = _audit(db_path, jobs, None, ChaosOutcome(point="baseline"))
    outcome.submitted = len(jobs)
    outcome.exit_detail = detail
    if len([s for s in outcome.fingerprints.values() if s]) != len(jobs):
        raise PipelineError(
            "baseline run incomplete: %s" % outcome.to_dict()
        )
    return outcome.fingerprints


def chaos_run(point, work_dir, baseline, profiles=DEFAULT_PROFILES,
              scale=DEFAULT_SCALE, workers=2):
    """Kill at ``point``, recover, audit; returns a ChaosOutcome.

    Each point gets its own fresh database: exactly one kill per
    history, so the per-image circuit breaker (threshold 3) never
    conflates injected daemon deaths with a genuinely poisonous image.
    """
    db_path = os.path.join(
        work_dir, "chaos-%s.sqlite" % point.replace(".", "-")
    )
    jobs = _submit_jobs(db_path, profiles, scale)
    outcome = ChaosOutcome(point=point, submitted=len(jobs))
    spec = "kill9@%s:*" % point
    outcome.killed, outcome.exit_detail = _run_child(
        db_path, (spec,), workers, scale
    )
    # Recovery pass: a fresh "daemon" (no faults) sweeps running →
    # pending and drains the queue to empty.
    with ResultsDB(db_path) as db:
        outcome.recovered = JobQueue(db).recover()
    killed, detail = _run_child(db_path, (), workers, scale)
    if killed:
        outcome.exit_detail += "; recovery died: %s" % detail
    return _audit(db_path, jobs, baseline, outcome)


def chaos_sweep(work_dir, points=CHAOS_POINTS, profiles=DEFAULT_PROFILES,
                scale=DEFAULT_SCALE, workers=2):
    """The full kill sweep; returns the triage document (CI artifact)."""
    os.makedirs(work_dir, exist_ok=True)
    started = time.time()
    baseline = baseline_fingerprints(
        work_dir, profiles=profiles, scale=scale, workers=workers
    )
    outcomes = [
        chaos_run(point, work_dir, baseline, profiles=profiles,
                  scale=scale, workers=workers)
        for point in points
    ]
    document = {
        "kind": "service-chaos",
        "profiles": list(profiles),
        "scale": scale,
        "workers": workers,
        "wall_seconds": round(time.time() - started, 3),
        "baseline_fingerprints": baseline,
        "points": [outcome.to_dict() for outcome in outcomes],
        "ok": all(outcome.ok for outcome in outcomes),
    }
    path = os.path.join(work_dir, "chaos-triage.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    document["triage_path"] = path
    return document


class lock_contender:
    """``with lock_contender(db_path, hold=1.0):`` — a child process
    holding ``BEGIN IMMEDIATE`` on the database for ``hold`` seconds.

    Exercises the cross-process lock discipline: while the contender
    holds the write lock, every parent transaction must wait it out
    via ``busy_timeout`` / bounded retry instead of surfacing a raw
    ``database is locked``.
    """

    def __init__(self, db_path, hold=1.0):
        self.db_path = db_path
        self.hold = hold
        self.child = None

    @staticmethod
    def _hold_lock(db_path, hold):
        conn = sqlite3.connect(db_path, timeout=30.0,
                               isolation_level=None)
        conn.execute("PRAGMA busy_timeout=10000")
        conn.execute("BEGIN IMMEDIATE")
        time.sleep(hold)
        conn.execute("COMMIT")
        conn.close()
        os._exit(0)

    def __enter__(self):
        ctx = multiprocessing.get_context("fork")
        self.child = ctx.Process(
            target=self._hold_lock, args=(self.db_path, self.hold),
            name="dtaint-lock-contender",
        )
        self.child.start()
        # Don't return until the lock is actually held, or the test
        # would race the child to the first transaction.
        deadline = time.monotonic() + 10.0
        probe = sqlite3.connect(self.db_path, timeout=0.05,
                                isolation_level=None)
        try:
            while time.monotonic() < deadline:
                try:
                    probe.execute("BEGIN IMMEDIATE")
                    probe.execute("ROLLBACK")
                    time.sleep(0.02)
                except sqlite3.OperationalError:
                    return self        # contender holds the write lock
        finally:
            probe.close()
        raise PipelineError("lock contender never acquired the lock")

    def __exit__(self, *exc):
        if self.child is not None:
            self.child.join(max(self.hold * 4, 10.0))
            if self.child.is_alive():
                self.child.kill()
                self.child.join(5)
        return False
