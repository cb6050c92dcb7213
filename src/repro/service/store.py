"""The results store: indexed sqlite results + the job queue.

One WAL-mode sqlite file (``dtaint.sqlite``) holds the documents of
the results codec (:mod:`repro.pipeline.results`) verbatim, with
queryable history; the codec's JSON run directory is their export
format, bridged by :func:`migrate_output_dir`/:func:`export_run_dir`:

* ``runs`` — one row per fleet run or published service job (rollup
  document verbatim);
* ``images`` — one row per analysed image, carrying the **exact**
  per-image document :func:`repro.pipeline.results.image_document`
  builds, plus indexed columns (status, findings_sha256, target);
* ``findings`` — one row per canonical finding, indexed by function /
  kind / sink for fleet-wide queries;
* ``coverage`` — the per-image coverage counters, queryable without
  parsing JSON;
* ``documents`` — auxiliary run artefacts (``delta.json``,
  ``diffcheck.json``) so a whole output directory migrates losslessly;
* ``queue_jobs`` + ``events`` — the durable job queue
  (:mod:`repro.service.queue`) and the mirrored telemetry stream the
  REST API serves as per-job progress.

Two guarantees hold for every run:

* **canonical-findings fingerprint** — the stored per-image document
  embeds the same canonical findings section and ``findings_sha256``
  a JSON export carries; migrating a directory into the DB and
  exporting it back reproduces the files byte for byte;
* **crash safety** — every run publishes in one sqlite transaction
  (:meth:`ResultsDB.import_run`, WAL journal), so a worker killed
  mid-write rolls back to the previous consistent state; the
  ``results`` fault-injection probe fires inside the transaction to
  prove it.  A database file that cannot even be opened (torn beyond
  journal recovery, or not sqlite at all) is quarantined to
  ``<name>.corrupt`` exactly like a corrupt summary bundle, and a
  fresh store is started in its place.
"""

import json
import os
import sqlite3
import threading
import time
import zlib

from repro import faultinject
from repro.errors import PipelineError
from repro.pipeline.results import (
    image_document,
    read_run_dir,
    rollup_document,
    write_run_dir,
)

# v2: adds the image_quarantine table (per-image crash circuit
# breaker).  Additive only — a v1 file upgrades in place via the
# idempotent schema below.
SCHEMA_VERSION = 2
DB_FILENAME = "dtaint.sqlite"

# Cross-process lock discipline: sqlite blocks up to busy_timeout for
# a competing writer, and on top of that every BEGIN/COMMIT retries a
# bounded number of times with deterministic-jitter backoff before a
# raw "database is locked" is allowed to surface.
BUSY_TIMEOUT_MS = 10_000
LOCK_RETRIES = 5
LOCK_RETRY_BASE = 0.05

# Indexed columns extracted from each canonical finding (the rest of
# the finding rides along verbatim in finding_json).
_FINDING_COLUMNS = (
    "function", "kind", "sink_name", "source_name", "sink_addr",
    "source_addr",
)

_COVERAGE_COLUMNS = (
    "analyzed", "selected", "total", "degraded", "truncated",
    "deadline_truncated", "degraded_callee_sites",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL DEFAULT 'fleet',
    source TEXT NOT NULL DEFAULT '',
    started_ts REAL NOT NULL DEFAULT 0,
    wall_seconds REAL NOT NULL DEFAULT 0,
    rollup_json TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS images (
    image_id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    job_id TEXT NOT NULL,
    queue_job_id INTEGER,
    target TEXT NOT NULL DEFAULT '',
    status TEXT NOT NULL DEFAULT '',
    attempts INTEGER NOT NULL DEFAULT 0,
    elapsed_seconds REAL NOT NULL DEFAULT 0,
    error_type TEXT NOT NULL DEFAULT '',
    findings_sha256 TEXT NOT NULL DEFAULT '',
    document_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_images_run ON images(run_id);
CREATE INDEX IF NOT EXISTS idx_images_job ON images(job_id);
CREATE INDEX IF NOT EXISTS idx_images_sha ON images(findings_sha256);
CREATE TABLE IF NOT EXISTS findings (
    finding_id INTEGER PRIMARY KEY AUTOINCREMENT,
    image_id INTEGER NOT NULL
        REFERENCES images(image_id) ON DELETE CASCADE,
    section TEXT NOT NULL,
    function TEXT NOT NULL DEFAULT '',
    kind TEXT NOT NULL DEFAULT '',
    sink_name TEXT NOT NULL DEFAULT '',
    source_name TEXT NOT NULL DEFAULT '',
    sink_addr INTEGER NOT NULL DEFAULT 0,
    source_addr INTEGER NOT NULL DEFAULT 0,
    finding_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_findings_image ON findings(image_id);
CREATE INDEX IF NOT EXISTS idx_findings_function ON findings(function);
CREATE INDEX IF NOT EXISTS idx_findings_kind ON findings(kind);
CREATE TABLE IF NOT EXISTS coverage (
    image_id INTEGER PRIMARY KEY
        REFERENCES images(image_id) ON DELETE CASCADE,
    analyzed INTEGER NOT NULL DEFAULT 0,
    selected INTEGER NOT NULL DEFAULT 0,
    total INTEGER NOT NULL DEFAULT 0,
    degraded INTEGER NOT NULL DEFAULT 0,
    truncated INTEGER NOT NULL DEFAULT 0,
    deadline_truncated INTEGER NOT NULL DEFAULT 0,
    degraded_callee_sites INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS documents (
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    document_json TEXT NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE TABLE IF NOT EXISTS queue_jobs (
    job_id INTEGER PRIMARY KEY AUTOINCREMENT,
    dedup_key TEXT NOT NULL UNIQUE,
    spec_json TEXT NOT NULL,
    priority INTEGER NOT NULL DEFAULT 0,
    state TEXT NOT NULL DEFAULT 'pending',
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    submitted_ts REAL NOT NULL DEFAULT 0,
    started_ts REAL,
    finished_ts REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    error TEXT NOT NULL DEFAULT '',
    error_type TEXT NOT NULL DEFAULT '',
    image_id INTEGER
);
CREATE INDEX IF NOT EXISTS idx_queue_state
    ON queue_jobs(state, priority DESC, job_id);
CREATE TABLE IF NOT EXISTS events (
    event_id INTEGER PRIMARY KEY AUTOINCREMENT,
    queue_job_id INTEGER,
    seq INTEGER NOT NULL DEFAULT 0,
    ts REAL NOT NULL DEFAULT 0,
    event TEXT NOT NULL,
    payload_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_events_job ON events(queue_job_id, event_id);
CREATE TABLE IF NOT EXISTS image_quarantine (
    dedup_key TEXT PRIMARY KEY,
    crash_count INTEGER NOT NULL DEFAULT 0,
    quarantined INTEGER NOT NULL DEFAULT 0,
    last_error_type TEXT NOT NULL DEFAULT '',
    updated_ts REAL NOT NULL DEFAULT 0
);
"""


def _quarantine(path):
    """Move an unreadable database aside to ``<path>.corrupt``."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        pass
    # WAL side-car files belong to the dead database; a fresh store
    # must not inherit them.
    for suffix in ("-wal", "-shm"):
        try:
            os.unlink(path + suffix)
        except OSError:
            pass


def default_db_path(out_dir):
    """The conventional database location inside an output directory."""
    return os.path.join(out_dir, DB_FILENAME)


class ResultsDB:
    """The sqlite-backed results + queue store (WAL mode, thread-safe).

    One connection is shared across threads behind an ``RLock``; WAL
    mode keeps readers from blocking the writer.  Every public write
    method is one transaction — killed mid-write, the journal rolls
    the file back to the previous consistent state.
    """

    def __init__(self, path):
        self.path = path
        self.basename = os.path.basename(path)
        self.quarantined = 0
        self._lock = threading.RLock()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = self._open_with_quarantine()

    def _open_with_quarantine(self):
        try:
            return self._connect()
        except sqlite3.DatabaseError:
            # Not a database / corrupt beyond journal recovery: move
            # the evidence aside and start clean, like the summary
            # cache does for torn bundles.
            self.quarantined += 1
            _quarantine(self.path)
            return self._connect()

    def _connect(self):
        conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None,
            timeout=30.0,
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        conn.execute("PRAGMA busy_timeout=%d" % BUSY_TIMEOUT_MS)
        with self._lock:
            _locked_retry(conn, "BEGIN IMMEDIATE")
            try:
                for statement in _SCHEMA.split(";"):
                    if statement.strip():
                        conn.execute(statement)
                conn.execute(
                    "INSERT OR IGNORE INTO meta(key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                # Additive upgrades (v1 -> v2 only adds a table): the
                # idempotent DDL above already ran, so just advance
                # the recorded version; never regress it.
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'"
                    " AND CAST(value AS INTEGER) < ?",
                    (str(SCHEMA_VERSION), SCHEMA_VERSION),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        return conn

    def close(self):
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- transactions ------------------------------------------------------

    def _transaction(self):
        return _Transaction(self)

    # -- write paths -------------------------------------------------------

    def record_run(self, results, wall_seconds, kind="fleet", source="",
                   queue_job_ids=None, finisher=None):
        """Build one run's documents and :meth:`import_run` them."""
        return self.import_run(
            rollup_document(results, wall_seconds),
            [image_document(result) for result in results],
            kind=kind, source=source, queue_job_ids=queue_job_ids,
            finisher=finisher,
        )

    def import_run(self, rollup, images=(), documents=None,
                   kind="migrated", source="", queue_job_ids=None,
                   finisher=None):
        """Publish one run's documents; returns ``(run_id, job->image map)``.

        The one publish path.  The whole run is one transaction: the
        ``results`` fault-injection probe fires between the inserts
        and the commit, modelling a daemon killed mid-publication —
        the journal rolls everything back and the previous history
        stays intact.

        ``finisher(conn, run_id, image_ids)``, when given, runs inside
        the *same* transaction — the daemon uses it to mark queue rows
        done/failed atomically with the results they describe, so no
        crash point can separate "results published" from "job
        completed" (the pair either both commit or both roll back).
        """
        rollup = rollup or {}
        queue_job_ids = queue_job_ids or {}
        with self._transaction() as conn:
            run_id = conn.execute(
                "INSERT INTO runs(kind, source, started_ts, wall_seconds, "
                "rollup_json) VALUES (?, ?, ?, ?, ?)",
                (kind, source, time.time(), rollup.get("wall_seconds", 0.0),
                 _dumps(rollup)),
            ).lastrowid
            image_ids = {}
            for document in images:
                job_id = document.get("job_id", "")
                image_ids[job_id] = self._insert_image(
                    conn, run_id, document, queue_job_ids.get(job_id),
                )
            for name, document in sorted((documents or {}).items()):
                conn.execute(
                    "INSERT OR REPLACE INTO documents"
                    "(run_id, name, document_json) VALUES (?, ?, ?)",
                    (run_id, name, _dumps(document)),
                )
            if finisher is not None:
                finisher(conn, run_id, image_ids)
            faultinject.check("results", self.basename)
        return run_id, image_ids

    def _insert_image(self, conn, run_id, document, queue_job_id):
        cursor = conn.execute(
            "INSERT INTO images(run_id, job_id, queue_job_id, target, "
            "status, attempts, elapsed_seconds, error_type, "
            "findings_sha256, document_json) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                document.get("job_id", ""),
                queue_job_id,
                document.get("target", ""),
                document.get("status", ""),
                document.get("attempts", 0),
                document.get("elapsed_seconds", 0.0),
                document.get("error_type", ""),
                document.get("findings_sha256", ""),
                _dumps(document),
            ),
        )
        image_id = cursor.lastrowid
        findings = document.get("findings") or {}
        for section in ("vulnerable_paths", "vulnerabilities",
                        "sanitized_paths"):
            for finding in findings.get(section, []) or []:
                conn.execute(
                    "INSERT INTO findings(image_id, section, function, "
                    "kind, sink_name, source_name, sink_addr, "
                    "source_addr, finding_json) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (image_id, section)
                    + tuple(
                        finding.get(column) or (
                            0 if column.endswith("_addr") else ""
                        )
                        for column in _FINDING_COLUMNS
                    )
                    + (_dumps(finding),),
                )
        coverage = findings.get("coverage") or {}
        if coverage:
            conn.execute(
                "INSERT OR REPLACE INTO coverage(image_id, %s) "
                "VALUES (?, %s)" % (
                    ", ".join(_COVERAGE_COLUMNS),
                    ", ".join("?" for _ in _COVERAGE_COLUMNS),
                ),
                (image_id,) + tuple(
                    coverage.get(column, 0) for column in _COVERAGE_COLUMNS
                ),
            )
        return image_id

    def append_event(self, queue_job_id, record):
        """Mirror one telemetry record into the per-job progress feed."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO events(queue_job_id, seq, ts, event, "
                "payload_json) VALUES (?, ?, ?, ?, ?)",
                (queue_job_id, record.get("seq", 0), record.get("ts", 0.0),
                 record.get("event", ""), _dumps(record)),
            )

    # -- read paths --------------------------------------------------------

    def run_ids(self):
        with self._lock:
            rows = self._conn.execute(
                "SELECT run_id FROM runs ORDER BY run_id"
            ).fetchall()
        return [row["run_id"] for row in rows]

    def latest_run_id(self):
        with self._lock:
            row = self._conn.execute(
                "SELECT MAX(run_id) AS run_id FROM runs"
            ).fetchone()
        return row["run_id"]

    def rollup(self, run_id):
        with self._lock:
            row = self._conn.execute(
                "SELECT rollup_json FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise PipelineError("no run %r in %s" % (run_id, self.path))
        return json.loads(row["rollup_json"])

    def image_documents(self, run_id):
        """``{job_id: per-image document}`` for one run."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, document_json FROM images "
                "WHERE run_id = ? ORDER BY image_id", (run_id,)
            ).fetchall()
        return {
            row["job_id"]: json.loads(row["document_json"]) for row in rows
        }

    def image_document(self, image_id):
        with self._lock:
            row = self._conn.execute(
                "SELECT document_json FROM images WHERE image_id = ?",
                (image_id,),
            ).fetchone()
        return json.loads(row["document_json"]) if row else None

    def export_run(self, run_id):
        """One run's documents, as ``write_run_dir`` keyword arguments."""
        with self._lock:
            documents = {
                row["name"]: json.loads(row["document_json"])
                for row in self._conn.execute(
                    "SELECT name, document_json FROM documents "
                    "WHERE run_id = ? ORDER BY name", (run_id,)
                )
            }
        return {
            "rollup": self.rollup(run_id),
            "images": list(self.image_documents(run_id).values()),
            "documents": documents,
        }

    def query_findings(self, function=None, kind=None, section=None,
                       run_id=None, limit=200):
        """Fleet-wide canonical-finding query over the indexed columns."""
        clauses, params = [], []
        if function:
            clauses.append("f.function = ?")
            params.append(function)
        if kind:
            clauses.append("f.kind = ?")
            params.append(kind)
        if section:
            clauses.append("f.section = ?")
            params.append(section)
        if run_id is not None:
            clauses.append("i.run_id = ?")
            params.append(run_id)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(
                "SELECT f.section, f.finding_json, i.job_id, i.run_id, "
                "i.target FROM findings f JOIN images i "
                "ON f.image_id = i.image_id"
                + where + " ORDER BY f.finding_id LIMIT ?",
                params,
            ).fetchall()
        return [
            {
                "run_id": row["run_id"],
                "job_id": row["job_id"],
                "target": row["target"],
                "section": row["section"],
                "finding": json.loads(row["finding_json"]),
            }
            for row in rows
        ]

    def events(self, queue_job_id=None, after=0, limit=1000):
        """Progress events (``event_id`` is the resume cursor)."""
        clauses, params = ["event_id > ?"], [int(after)]
        if queue_job_id is not None:
            clauses.append("queue_job_id = ?")
            params.append(int(queue_job_id))
        params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(
                "SELECT event_id, payload_json FROM events WHERE "
                + " AND ".join(clauses) + " ORDER BY event_id LIMIT ?",
                params,
            ).fetchall()
        events = []
        for row in rows:
            record = json.loads(row["payload_json"])
            record["event_id"] = row["event_id"]
            events.append(record)
        return events

    def stats(self):
        """Queue/state counts plus fleet-wide aggregates."""
        with self._lock:
            queue = {
                row["state"]: row["n"] for row in self._conn.execute(
                    "SELECT state, COUNT(*) AS n FROM queue_jobs "
                    "GROUP BY state"
                )
            }
            runs = self._conn.execute(
                "SELECT COUNT(*) AS n FROM runs").fetchone()["n"]
            images = self._conn.execute(
                "SELECT COUNT(*) AS n FROM images").fetchone()["n"]
            findings = {
                row["section"]: row["n"] for row in self._conn.execute(
                    "SELECT section, COUNT(*) AS n FROM findings "
                    "GROUP BY section"
                )
            }
            coverage = self._conn.execute(
                "SELECT COALESCE(SUM(analyzed), 0) AS analyzed, "
                "COALESCE(SUM(degraded), 0) AS degraded FROM coverage"
            ).fetchone()
        return {
            "schema_version": SCHEMA_VERSION,
            "db_path": self.path,
            "db_bytes": _file_size(self.path),
            "queue": queue,
            "runs": runs,
            "images": images,
            "findings": findings,
            "analyzed_functions": coverage["analyzed"],
            "degraded_functions": coverage["degraded"],
        }

    # -- maintenance -------------------------------------------------------

    def gc(self, retain_runs=None, retain_jobs=None, dry_run=False):
        """Retention: keep the newest N runs / terminal queue jobs.

        Deleting a run cascades to its images, findings, coverage and
        documents; pruned queue jobs drop their event feed too.
        Returns the would-be/actual removal counts either way.
        """
        stats = {"runs_removed": 0, "images_removed": 0,
                 "jobs_removed": 0, "events_removed": 0}
        with self._lock:
            old_runs = []
            if retain_runs is not None:
                old_runs = [
                    row["run_id"] for row in self._conn.execute(
                        "SELECT run_id FROM runs ORDER BY run_id DESC "
                        "LIMIT -1 OFFSET ?", (max(int(retain_runs), 0),)
                    )
                ]
            old_jobs = []
            if retain_jobs is not None:
                old_jobs = [
                    row["job_id"] for row in self._conn.execute(
                        "SELECT job_id FROM queue_jobs WHERE state IN "
                        "('done', 'failed', 'cancelled') "
                        "ORDER BY job_id DESC LIMIT -1 OFFSET ?",
                        (max(int(retain_jobs), 0),),
                    )
                ]
            stats["runs_removed"] = len(old_runs)
            stats["jobs_removed"] = len(old_jobs)
            if old_runs:
                marks = ",".join("?" for _ in old_runs)
                stats["images_removed"] = self._conn.execute(
                    "SELECT COUNT(*) AS n FROM images WHERE run_id IN "
                    "(%s)" % marks, old_runs,
                ).fetchone()["n"]
            if old_jobs:
                marks = ",".join("?" for _ in old_jobs)
                stats["events_removed"] = self._conn.execute(
                    "SELECT COUNT(*) AS n FROM events WHERE queue_job_id "
                    "IN (%s)" % marks, old_jobs,
                ).fetchone()["n"]
            if dry_run or not (old_runs or old_jobs):
                return stats
            _locked_retry(self._conn, "BEGIN IMMEDIATE")
            try:
                if old_runs:
                    marks = ",".join("?" for _ in old_runs)
                    self._conn.execute(
                        "DELETE FROM runs WHERE run_id IN (%s)" % marks,
                        old_runs,
                    )
                if old_jobs:
                    marks = ",".join("?" for _ in old_jobs)
                    self._conn.execute(
                        "DELETE FROM events WHERE queue_job_id IN (%s)"
                        % marks, old_jobs,
                    )
                    self._conn.execute(
                        "DELETE FROM queue_jobs WHERE job_id IN (%s)"
                        % marks, old_jobs,
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("VACUUM")
        return stats


def _locked_retry(conn, sql):
    """Run ``sql`` with bounded retry on ``database is locked``.

    ``busy_timeout`` already makes sqlite wait for a competing writer;
    this adds a second, bounded line of defence (deadline expiry under
    heavy cross-process contention) with exponential backoff and
    deterministic jitter, so concurrent daemons/CLIs never surface a
    raw :class:`sqlite3.OperationalError` on the first collision.
    """
    for attempt in range(LOCK_RETRIES):
        try:
            conn.execute(sql)
            return
        except sqlite3.OperationalError as exc:
            text = str(exc)
            if "locked" not in text and "busy" not in text:
                raise
            if attempt == LOCK_RETRIES - 1:
                raise
            key = ("%s:%d" % (sql, attempt)).encode("utf-8")
            jitter = (zlib.crc32(key) % 1000) / 1000.0
            time.sleep(LOCK_RETRY_BASE * (2 ** attempt) * (1.0 + jitter))


class _Transaction:
    """``BEGIN IMMEDIATE`` ... ``COMMIT``/``ROLLBACK`` under the lock,
    with bounded lock-retry on both boundary statements."""

    def __init__(self, db):
        self.db = db

    def __enter__(self):
        self.db._lock.acquire()
        try:
            _locked_retry(self.db._conn, "BEGIN IMMEDIATE")
        except BaseException:
            self.db._lock.release()
            raise
        return self.db._conn

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                try:
                    _locked_retry(self.db._conn, "COMMIT")
                except sqlite3.OperationalError:
                    # Leave the connection clean before surfacing.
                    self.db._conn.execute("ROLLBACK")
                    raise
            else:
                self.db._conn.execute("ROLLBACK")
        finally:
            self.db._lock.release()
        return False


def _dumps(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# ---------------------------------------------------------------------------
# Migration (``dtaint results migrate`` / ``export``): bridges to the
# JSON run directory of :mod:`repro.pipeline.results`.


def migrate_output_dir(db, out_dir):
    """Import a JSON ``--out`` directory into the sqlite store.

    Inserts the directory's documents verbatim as one run and returns
    ``(run_id, counts)``.  The import is lossless:
    :func:`export_run_dir` reproduces every file byte for byte.
    """
    rollup, images, documents = read_run_dir(out_dir)
    run_id, _image_ids = db.import_run(
        rollup, images.values(), documents,
        kind="migrated", source=os.path.abspath(out_dir),
    )
    return run_id, {
        "images": len(images),
        "documents": len(documents),
        "rollup": int(rollup is not None),
    }


def export_run_dir(db, run_id, out_dir):
    """Write one stored run back out as a JSON run directory."""
    return write_run_dir(out_dir, **db.export_run(run_id))
