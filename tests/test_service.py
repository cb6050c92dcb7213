"""The service subsystem: warm pool, durable queue, sqlite store, REST.

Covers the acceptance properties of DTaint-as-a-service:

* the worker pool stays warm across scheduler runs and replaces
  crashed workers without losing isolation;
* queue lifecycle: idempotent submission, priority ordering,
  submit → cancel, crash-safe resume on daemon restart;
* the sqlite results store: record/export round trips, lossless migration of a
  JSON output directory, fault-injected mid-write rollback, corrupt
  database quarantine, retention GC;
* end-to-end REST: submit over HTTP, poll to completion, query
  findings — with the same ``findings_sha256`` an in-process run
  produces.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.alias import ENGINE_NAMES
from repro.errors import MalformedInput
from repro.faultinject import injected
from repro.loader.link import build_executable
from repro.pipeline import (
    FleetJob,
    FleetScheduler,
    JobResult,
    WorkerPool,
    execute_job,
    findings_fingerprint,
    image_document,
    rollup_document,
    write_run_dir,
)
from repro.service import (
    AnalysisDaemon,
    JobQueue,
    ResultsDB,
    ServiceClient,
    ServiceError,
    dedup_key,
    export_run_dir,
    job_spec,
    migrate_output_dir,
    serve,
    verify_roundtrip,
)

_VULN_ASM = (
    ".globl main\nmain:\n    push {lr}\n    ldr r0, =n\n"
    "    bl getenv\n    bl system\n    pop {pc}\n.ltorg\n"
    ".rodata\nn: .asciz \"CMD\"\n"
)


def _small_elf(env="CMD"):
    elf_bytes, _ = build_executable(
        "arm", _VULN_ASM.replace('"CMD"', '"%s"' % env),
        imports=["getenv", "system"],
    )
    return elf_bytes


@pytest.fixture
def elf_path(tmp_path):
    path = tmp_path / "handler.elf"
    path.write_bytes(_small_elf())
    return str(path)


def _wait_state(daemon, job_id, state, timeout=60.0):
    """Poll a queue row until it reaches ``state``; returns the row."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        row = daemon.job_status(job_id)
        if row["state"] == state:
            return row
        time.sleep(0.02)
    raise AssertionError("job %d stuck in %r after %.0fs"
                         % (job_id, row["state"], timeout))


def _in_process_sha(path, alias_engine="dtaint"):
    """The findings fingerprint of a plain in-process run."""
    payload = execute_job(FleetJob(job_id="ref", kind="elf", path=path,
                                   alias_engine=alias_engine))
    return findings_fingerprint(payload["report"])


def _job_result(elf_path, job_id="img"):
    """A terminal JobResult by running the job in-process."""
    job = FleetJob(job_id=job_id, kind="elf", path=elf_path)
    payload = execute_job(job)
    return JobResult(
        job=job, status="ok", attempts=1, report=payload["report"],
        sha256=payload["sha256"], cache=payload["cache"],
        resources=payload["resources"], elapsed=0.5,
    )


# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_scheduler_reuses_warm_workers_across_runs(self, elf_path):
        scheduler = FleetScheduler(jobs=1, backoff=0.0)
        with scheduler:
            for round_no in range(3):
                job = FleetJob(job_id="r%d" % round_no, kind="elf",
                               path=elf_path)
                results = scheduler.run([job])
                assert results[0].ok
            # Three batches, one worker: the pool forked exactly once.
            assert scheduler.pool.spawned_total == 1
            assert scheduler.pool.warm_count == 1
        assert scheduler._pool is None

    def test_crashed_worker_is_discarded_and_replaced(self, elf_path):
        scheduler = FleetScheduler(jobs=1, retries=1, backoff=0.0)
        with scheduler:
            crash = FleetJob(job_id="boom", kind="elf", path=elf_path,
                             fault="crash", fault_attempts=1)
            results = scheduler.run([crash])
            assert results[0].ok and results[0].attempts == 2
            assert scheduler.pool.discarded_total == 1
            assert scheduler.pool.spawned_total == 2

    def test_shared_pool_is_not_closed_by_scheduler(self, elf_path):
        pool = WorkerPool()
        scheduler = FleetScheduler(jobs=1, pool=pool, backoff=0.0)
        job = FleetJob(job_id="shared", kind="elf", path=elf_path)
        assert scheduler.run([job])[0].ok
        scheduler.close()
        # The pool still holds its warm worker and takes more work.
        assert pool.warm_count == 1
        assert FleetScheduler(jobs=1, pool=pool).run([job])[0].ok
        assert pool.spawned_total == 1
        pool.close()

    def test_parallel_batches_share_results_with_serial(self, elf_path):
        serial = FleetScheduler(jobs=1, backoff=0.0)
        parallel = FleetScheduler(jobs=2, backoff=0.0)
        jobs = [
            FleetJob(job_id="a", kind="elf", path=elf_path),
            FleetJob(job_id="b", kind="elf", path=elf_path),
        ]
        with serial, parallel:
            fps_serial = [
                findings_fingerprint(r.report) for r in serial.run(jobs)
            ]
            fps_parallel = [
                findings_fingerprint(r.report) for r in parallel.run(jobs)
            ]
        assert fps_serial == fps_parallel


# ---------------------------------------------------------------------------


def test_import_job_modules_leaves_jobs_nothing_to_import(tmp_path):
    """After ``import_job_modules`` a fresh process runs ARM and MIPS
    firmware jobs in every container format without importing another
    program module, so a worker forked after it starts warm."""
    from repro.corpus.fleet import generate_fleet
    from repro.corpus.matryoshka import build_image_blob

    paths = []
    for record in generate_fleet(size=8, seed=1):
        path = tmp_path / ("%s.bin" % record.image_id)
        path.write_bytes(build_image_blob(record))
        paths.append(str(path))
    code = (
        "import json, sys\n"
        "from repro.pipeline.scheduler import (\n"
        "    FleetJob, execute_job, import_job_modules)\n"
        "import_job_modules()\n"
        "before = set(sys.modules)\n"
        "for path in json.loads(sys.argv[1]):\n"
        "    payload = execute_job(FleetJob(job_id=path, kind='firmware',\n"
        "                                   path=path))\n"
        "    assert payload['status'] == 'ok', payload\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name not in before\n"
        "                        and name.startswith('repro'))))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(paths)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert json.loads(done.stdout) == []


def test_importing_the_analysis_imports_every_arch_layer():
    """``repro.core`` brings both architectures' disassembler and
    lifter with it, so no job imports them on its first image."""
    code = (
        "import json, sys\n"
        "import repro.core\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.startswith('repro.arch.'))))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    imported = set(json.loads(done.stdout))
    for arch in ("arm", "mips"):
        for layer in ("disassembler", "lifter"):
            assert "repro.arch.%s.%s" % (arch, layer) in imported


class TestJobQueue:
    def _queue(self, tmp_path):
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        return db, JobQueue(db)

    def test_submit_is_idempotent(self, tmp_path, elf_path):
        db, queue = self._queue(tmp_path)
        spec = job_spec("elf", path=elf_path)
        job_id, outcome = queue.submit(spec)
        assert outcome == "created"
        again, outcome2 = queue.submit(spec)
        assert (again, outcome2) == (job_id, "deduplicated")
        assert queue.counts()["pending"] == 1
        db.close()

    def test_dedup_key_tracks_file_content(self, tmp_path, elf_path):
        spec = job_spec("elf", path=elf_path)
        before = dedup_key(spec)
        with open(elf_path, "ab") as handle:
            handle.write(b"\x00")
        assert dedup_key(spec) != before

    def test_priority_order_and_fifo_within_priority(self, tmp_path):
        db, queue = self._queue(tmp_path)
        low, _ = queue.submit(job_spec("profile", key="dir645"))
        high, _ = queue.submit(
            job_spec("profile", key="dgn1000"), priority=10
        )
        mid, _ = queue.submit(
            job_spec("profile", key="uniview"), priority=5
        )
        claimed = queue.claim_batch(limit=3)
        assert [job["job_id"] for job in claimed] == [high, mid, low]
        db.close()

    def test_submit_then_cancel(self, tmp_path):
        db, queue = self._queue(tmp_path)
        job_id, _ = queue.submit(job_spec("profile", key="dir645"))
        assert queue.cancel(job_id) == "cancelled"
        assert queue.get(job_id)["state"] == "cancelled"
        # Cancelled jobs are never claimed.
        assert queue.claim_batch(limit=10) == []
        # A second cancel is a no-op.
        assert queue.cancel(job_id) == "already_terminal"
        assert queue.cancel(987654) == "missing"
        db.close()

    def test_cancel_running_is_flagged_not_killed(self, tmp_path):
        db, queue = self._queue(tmp_path)
        job_id, _ = queue.submit(job_spec("profile", key="dir645"))
        assert queue.claim_batch(limit=1)[0]["job_id"] == job_id
        assert queue.cancel(job_id) == "cancel_requested"
        assert queue.get(job_id)["state"] == "running"
        assert queue.get(job_id)["cancel_requested"]
        db.close()

    def test_failed_job_is_revived_on_resubmit(self, tmp_path):
        db, queue = self._queue(tmp_path)
        spec = job_spec("profile", key="dir645")
        job_id, _ = queue.submit(spec)
        queue.claim_batch(limit=1)
        queue.fail(job_id, error="boom", error_type="WorkerCrash")
        assert queue.get(job_id)["state"] == "failed"
        same_id, outcome = queue.submit(spec)
        assert (same_id, outcome) == (job_id, "revived")
        job = queue.get(job_id)
        assert job["state"] == "pending" and job["error"] == ""
        db.close()

    def test_restart_resumes_running_jobs(self, tmp_path):
        path = str(tmp_path / "dtaint.sqlite")
        db = ResultsDB(path)
        queue = JobQueue(db)
        job_id, _ = queue.submit(job_spec("profile", key="dir645"))
        queue.claim_batch(limit=1)
        assert queue.get(job_id)["state"] == "running"
        db.close()                    # daemon dies mid-job
        db2 = ResultsDB(path)         # next daemon start
        queue2 = JobQueue(db2)
        assert queue2.recover() == 1
        job = queue2.get(job_id)
        assert job["state"] == "pending" and job["started_ts"] is None
        db2.close()


# ---------------------------------------------------------------------------


class TestResultsDB:
    def test_record_run_round_trips_image_documents(self, tmp_path,
                                                    elf_path):
        result = _job_result(elf_path)
        json_path, = write_run_dir(str(tmp_path / "out"),
                                   images=[image_document(result)])
        with open(json_path) as handle:
            json_doc = json.load(handle)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        run_id, image_ids = db.record_run([result], 1.25)
        stored = db.image_documents(run_id)[result.job.job_id]
        assert stored == json_doc
        assert verify_roundtrip(stored)
        assert db.image_document(image_ids["img"]) == json_doc
        db.close()

    def test_findings_are_indexed_and_queryable(self, tmp_path, elf_path):
        result = _job_result(elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        db.record_run([result], 1.0)
        rows = db.query_findings(kind="command-injection")
        assert rows
        assert all(
            row["finding"]["kind"] == "command-injection" for row in rows
        )
        assert db.query_findings(function="no_such_function") == []
        db.close()

    def test_mid_write_fault_rolls_back_to_previous_state(self, tmp_path,
                                                          elf_path):
        result = _job_result(elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        db.record_run([result], 1.0)
        before_runs = db.run_ids()
        before_stats = db.stats()
        with injected(["malformed@results:dtaint.sqlite"]):
            with pytest.raises(MalformedInput):
                db.record_run([result], 2.0)
        # The failed batch left no partial rows behind.
        assert db.run_ids() == before_runs
        assert db.stats()["images"] == before_stats["images"]
        assert db.stats()["findings"] == before_stats["findings"]
        # And the store recovers once the fault is gone.
        run_id, _ = db.record_run([result], 3.0)
        assert db.rollup(run_id)["wall_seconds"] == 3.0
        db.close()

    def test_unreadable_db_is_quarantined(self, tmp_path):
        path = str(tmp_path / "dtaint.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this is definitely not a sqlite database")
        db = ResultsDB(path)
        assert db.quarantined == 1
        assert os.path.exists(path + ".corrupt")
        # The fresh store works.
        assert db.run_ids() == []
        db.close()

    def test_gc_retention(self, tmp_path, elf_path):
        result = _job_result(elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        for _ in range(4):
            db.record_run([result], 1.0)
        queue = JobQueue(db)
        for key in ("dir645", "dgn1000", "uniview"):
            job_id, _ = queue.submit(job_spec("profile", key=key))
            queue.claim_batch(limit=1)
            queue.fail(job_id, error="x")
            db.append_event(job_id, {"seq": 0, "ts": 0.0, "event": "e"})
        dry = db.gc(retain_runs=2, retain_jobs=1, dry_run=True)
        assert dry["runs_removed"] == 2 and dry["jobs_removed"] == 2
        assert len(db.run_ids()) == 4          # dry run touched nothing
        stats = db.gc(retain_runs=2, retain_jobs=1)
        assert stats["runs_removed"] == 2
        assert stats["jobs_removed"] == 2
        assert stats["events_removed"] == 2
        assert len(db.run_ids()) == 2
        assert queue.counts()["failed"] == 1
        # Cascades removed the dropped runs' images and findings.
        remaining = db.stats()
        assert remaining["images"] == 2
        db.close()


class TestMigration:
    def _populated_out_dir(self, tmp_path, elf_path):
        out_dir = str(tmp_path / "out")
        results = [_job_result(elf_path, job_id="img-a"),
                   _job_result(elf_path, job_id="img-b")]
        write_run_dir(
            out_dir, rollup_document(results, 2.5),
            [image_document(result) for result in results],
            {"delta.json": {"baseline": "x", "images": {}}},
        )
        return out_dir

    def test_migrate_is_lossless(self, tmp_path, elf_path):
        out_dir = self._populated_out_dir(tmp_path, elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        run_id, counts = migrate_output_dir(db, out_dir)
        assert counts == {"images": 2, "documents": 1, "rollup": 1}
        exported = db.export_run(run_id)
        with open(os.path.join(out_dir, "fleet.json")) as handle:
            assert exported["rollup"] == json.load(handle)
        images = {doc["job_id"]: doc for doc in exported["images"]}
        for job_id in ("img-a", "img-b"):
            with open(os.path.join(
                    out_dir, "images", "%s.json" % job_id)) as handle:
                assert images[job_id] == json.load(handle)
        with open(os.path.join(out_dir, "delta.json")) as handle:
            assert exported["documents"]["delta.json"] == json.load(handle)
        db.close()

    def test_migrate_export_round_trip_is_byte_identical(self, tmp_path,
                                                         elf_path):
        out_dir = self._populated_out_dir(tmp_path, elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        run_id, _ = migrate_output_dir(db, out_dir)
        export_dir = str(tmp_path / "export")
        export_run_dir(db, run_id, export_dir)
        for relative in ("fleet.json", "delta.json",
                         os.path.join("images", "img-a.json"),
                         os.path.join("images", "img-b.json")):
            with open(os.path.join(out_dir, relative), "rb") as handle:
                original = handle.read()
            with open(os.path.join(export_dir, relative), "rb") as handle:
                assert handle.read() == original, relative
        db.close()

    def test_export_under_results_fault_leaves_no_torn_file(
            self, tmp_path, elf_path):
        out_dir = self._populated_out_dir(tmp_path, elf_path)
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        run_id, _ = migrate_output_dir(db, out_dir)
        export_dir = str(tmp_path / "export")
        with injected(["malformed@results:img-a.json"]):
            with pytest.raises(MalformedInput):
                export_run_dir(db, run_id, export_dir)
        images = os.listdir(os.path.join(export_dir, "images"))
        assert "img-a.json" not in images
        assert [name for name in images if ".tmp." in name] == []
        # Once the fault is gone the export completes byte-identically.
        export_run_dir(db, run_id, export_dir)
        relative = os.path.join("images", "img-a.json")
        with open(os.path.join(out_dir, relative), "rb") as handle:
            original = handle.read()
        with open(os.path.join(export_dir, relative), "rb") as handle:
            assert handle.read() == original
        db.close()

    def test_migrate_cli(self, tmp_path, elf_path, capsys):
        from repro.cli import main as cli_main

        out_dir = self._populated_out_dir(tmp_path, elf_path)
        db_path = str(tmp_path / "dtaint.sqlite")
        assert cli_main(["results", "migrate", out_dir,
                         "--db", db_path]) == 0
        assert "2 images" in capsys.readouterr().out
        export_dir = str(tmp_path / "export")
        assert cli_main(["results", "export", export_dir,
                         "--db", db_path]) == 0
        assert os.path.exists(
            os.path.join(export_dir, "images", "img-a.json")
        )

    def test_export_keeps_job_ids_inside_images_dir(self, tmp_path):
        # Stored job ids are data, not paths: an absolute id or a
        # parent reference must not write outside out_dir/images/.
        escaped = str(tmp_path / "abs.0")
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        db.import_run({}, [{"job_id": escaped, "status": "ok"},
                           {"job_id": "../up", "status": "ok"}])
        out_dir = str(tmp_path / "export")
        written = export_run_dir(db, db.latest_run_id(), out_dir)
        db.close()
        images_dir = os.path.join(out_dir, "images")
        assert len(written) == 2
        for path in written:
            assert os.path.dirname(os.path.abspath(path)) == images_dir
            assert os.path.isfile(path)
        assert not os.path.exists(escaped + ".json")
        assert not os.path.exists(os.path.join(out_dir, "up.json"))

    def test_round_trip_reproduces_sanitised_file_names(self, tmp_path,
                                                        elf_path):
        out_dir = str(tmp_path / "out")
        result = _job_result(elf_path, job_id="fw.bin/bin/httpd.0")
        write_run_dir(out_dir, rollup_document([result], 1.0),
                      [image_document(result)])
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        run_id, _ = migrate_output_dir(db, out_dir)
        export_dir = str(tmp_path / "export")
        export_run_dir(db, run_id, export_dir)
        db.close()
        names = os.listdir(os.path.join(out_dir, "images"))
        assert names == ["fw.bin_bin_httpd.0.json"]
        assert os.listdir(os.path.join(export_dir, "images")) == names
        for relative in ("fleet.json", os.path.join("images", names[0])):
            with open(os.path.join(out_dir, relative), "rb") as handle:
                original = handle.read()
            with open(os.path.join(export_dir, relative), "rb") as handle:
                assert handle.read() == original, relative

    def test_migrate_rejects_empty_dir(self, tmp_path):
        db = ResultsDB(str(tmp_path / "dtaint.sqlite"))
        with pytest.raises(Exception):
            migrate_output_dir(db, str(tmp_path))
        db.close()


# ---------------------------------------------------------------------------


class TestDaemon:
    def test_run_once_processes_submission(self, tmp_path, elf_path):
        with AnalysisDaemon(str(tmp_path / "dtaint.sqlite"),
                            workers=1) as daemon:
            job = daemon.submit(job_spec("elf", path=elf_path))
            assert job["state"] == "pending"
            assert daemon.run_once() == 1
            finished = daemon.job_status(job["job_id"])
            assert finished["state"] == "done"
            findings = daemon.job_findings(job["job_id"])
            assert findings["findings_sha256"]
            assert verify_roundtrip(findings["document"])
            events = daemon.job_events(job["job_id"])
            kinds = [event["event"] for event in events]
            assert "job_start" in kinds and "job_finish" in kinds

    def test_warm_series_forks_once_and_matches_in_process(self,
                                                           tmp_path):
        """Byte-distinct images through a one-shot scheduler each and
        through one warm daemon give the in-process findings; the
        daemon's pool forks once for the whole series."""
        paths = []
        for index in range(3):
            path = tmp_path / ("handler%d.elf" % index)
            path.write_bytes(_small_elf("CMD%d" % index))
            paths.append(str(path))
        reference = {path: _in_process_sha(path) for path in paths}
        for path in paths:
            with FleetScheduler(jobs=1) as scheduler:
                result, = scheduler.run(
                    [FleetJob(job_id="one", kind="elf", path=path)]
                )
            assert result.ok, result.error
            assert findings_fingerprint(result.report) == reference[path]
        with AnalysisDaemon(str(tmp_path / "dtaint.sqlite"),
                            workers=1) as daemon:
            for path in paths:
                job = daemon.submit(job_spec("elf", path=path))
                assert daemon.run_once() == 1
                assert daemon.job_status(job["job_id"])["state"] == "done"
                assert daemon.job_findings(job["job_id"])[
                    "findings_sha256"] == reference[path]
            assert daemon.scheduler.pool.spawned_total == 1

    def test_quarantined_job_marks_queue_failed(self, tmp_path):
        with AnalysisDaemon(str(tmp_path / "dtaint.sqlite"),
                            workers=1, retries=0) as daemon:
            job = daemon.submit(
                job_spec("elf", path=str(tmp_path / "missing.elf"))
            )
            assert daemon.run_once() == 1
            failed = daemon.job_status(job["job_id"])
            assert failed["state"] == "failed"
            assert failed["error_type"]

    def test_restart_resumes_pending_work(self, tmp_path, elf_path):
        db_path = str(tmp_path / "dtaint.sqlite")
        first = AnalysisDaemon(db_path, workers=1)
        job = first.submit(job_spec("elf", path=elf_path))
        # Simulate a crash after the job was claimed but before it ran.
        first.queue.claim_batch(limit=1)
        first.scheduler.close()
        first.db.close()
        with AnalysisDaemon(db_path, workers=1) as second:
            assert second.start() == 1         # recovered the claim
            _wait_state(second, job["job_id"], "done")


    def test_submit_wakes_an_idle_dispatcher(self, tmp_path):
        """The safety-net poll (30 s) is far past the bound: only the
        submit wake can get a job to an idle dispatcher in time."""
        paths = []
        for env in ("FIRST", "SECOND"):
            path = tmp_path / ("%s.elf" % env.lower())
            path.write_bytes(_small_elf(env))
            paths.append(str(path))
        with AnalysisDaemon(str(tmp_path / "dtaint.sqlite"), workers=1,
                            poll_interval=30) as daemon:
            daemon.start()
            # The first job leaves the dispatcher idle behind it.
            for path in paths:
                started = time.monotonic()
                job = daemon.submit(job_spec("elf", path=path))
                _wait_state(daemon, job["job_id"], "done", timeout=10.0)
                assert time.monotonic() - started < 10.0

    def test_start_forks_every_slot_before_the_first_job(self, tmp_path,
                                                          elf_path):
        """Workers fork at start-up, not while a submission waits."""
        with AnalysisDaemon(str(tmp_path / "dtaint.sqlite"),
                            workers=2) as daemon:
            daemon.start()
            assert daemon.scheduler.pool.spawned_total == 2
            job = daemon.submit(job_spec("elf", path=elf_path))
            _wait_state(daemon, job["job_id"], "done")
            assert daemon.scheduler.pool.spawned_total == 2

    def test_draining_daemon_claims_nothing(self, tmp_path, elf_path):
        db_path = str(tmp_path / "dtaint.sqlite")
        daemon = AnalysisDaemon(db_path, workers=1)
        daemon.start()
        daemon.draining = True
        job = daemon.submit(job_spec("elf", path=elf_path))
        # The submit wakes the dispatcher; a loop that ignored the
        # drain would claim the row within milliseconds.
        time.sleep(0.5)
        assert daemon.job_status(job["job_id"])["state"] == "pending"
        daemon.stop()
        with ResultsDB(db_path) as db:
            assert JobQueue(db).get(job["job_id"])["state"] == "pending"

    def test_small_job_is_not_held_behind_a_slow_one(self, tmp_path):
        """Two slots: a job submitted after a stuck one finishes and
        publishes on its own while the stuck one is still running."""
        slow = tmp_path / "slow.elf"
        slow.write_bytes(_small_elf("SLOW"))
        small = tmp_path / "small.elf"
        small.write_bytes(_small_elf("SMALL"))
        daemon = AnalysisDaemon(str(tmp_path / "dtaint.sqlite"), workers=2)

        def worker_pids(job_id):
            return [event["pid"] for event in daemon.job_events(job_id)
                    if event["event"] == "job_start"]

        slow_job = None
        # Workers fork after the injector is armed and inherit it: the
        # slow job's worker freezes at its loader probe until SIGCONT.
        with injected(["sigstop@loader:%s" % slow]):
            try:
                daemon.start()
                slow_job = daemon.submit(job_spec("elf", path=str(slow)))
                small_job = daemon.submit(job_spec("elf", path=str(small)))
                small_row = _wait_state(daemon, small_job["job_id"], "done")
                assert daemon.job_status(slow_job["job_id"])["state"] \
                    == "running"
                [frozen] = worker_pids(slow_job["job_id"])
                os.kill(frozen, signal.SIGCONT)
                slow_row = _wait_state(daemon, slow_job["job_id"], "done")
                assert small_row["finished_ts"] < slow_row["finished_ts"]
                # One publish per job: each has its own run and image row.
                with daemon.db._lock:
                    images = daemon.db._conn.execute(
                        "SELECT image_id, queue_job_id, run_id FROM images"
                    ).fetchall()
                assert sorted(
                    (row["queue_job_id"], row["image_id"]) for row in images
                ) == sorted([
                    (small_job["job_id"], small_row["image_id"]),
                    (slow_job["job_id"], slow_row["image_id"]),
                ])
                assert len({row["run_id"] for row in images}) == 2
            finally:
                for pid in (worker_pids(slow_job["job_id"])
                            if slow_job else ()):
                    try:
                        os.kill(pid, signal.SIGCONT)
                    except ProcessLookupError:
                        pass
                daemon.stop()


# ---------------------------------------------------------------------------


@pytest.fixture
def running_service(tmp_path):
    daemon = AnalysisDaemon(str(tmp_path / "dtaint.sqlite"), workers=1)
    server = serve(daemon, host="127.0.0.1", port=0, allow_shutdown=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    daemon.start()
    client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
    try:
        yield daemon, client
    finally:
        server.shutdown()
        server.server_close()
        daemon.stop()


class TestRestAPI:
    def test_end_to_end_submit_poll_findings(self, running_service,
                                             elf_path):
        _daemon, client = running_service
        assert client.healthz()["ok"]
        job = client.submit(kind="elf", path=elf_path)
        assert job["outcome"] == "created"
        # Idempotent over HTTP too.
        assert client.submit(kind="elf", path=elf_path)["outcome"] \
            == "deduplicated"
        done = client.wait(job["job_id"], timeout=120)
        assert done["state"] == "done"
        findings = client.findings(job["job_id"])
        # The service fingerprint is byte-identical to an in-process
        # run of the same image.
        reference = execute_job(
            FleetJob(job_id="ref", kind="elf", path=elf_path)
        )
        assert findings["findings_sha256"] == \
            findings_fingerprint(reference["report"])
        sections = findings["findings"]
        assert sections["vulnerabilities"]
        # Progress stream: resumable by event_id cursor.
        events = client.events(job["job_id"])
        assert [e["event"] for e in events].count("job_finish") == 1
        cursor = events[-1]["event_id"]
        assert client.events(job["job_id"], after=cursor) == []
        # Fleet-wide findings query.
        rows = client.query_findings(kind="command-injection")
        assert rows and rows[0]["job_id"].startswith("q")
        # Stats reflect the processed job and the warm pool.
        stats = client.stats()
        assert stats["queue"]["done"] == 1
        assert stats["jobs_processed"] == 1

    def test_cancel_over_rest(self, tmp_path):
        # A daemon whose dispatcher never runs: submissions stay
        # pending, so cancel always wins the race.
        daemon = AnalysisDaemon(str(tmp_path / "dtaint.sqlite"), workers=1)
        server = serve(daemon, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            "http://127.0.0.1:%d" % server.server_address[1]
        )
        try:
            job = client.submit(kind="profile", key="dir645", scale=0.05)
            assert client.cancel(job["job_id"])["disposition"] \
                == "cancelled"
            assert client.job(job["job_id"])["state"] == "cancelled"
        finally:
            server.shutdown()
            server.server_close()
            daemon.scheduler.close()
            daemon.db.close()

    def test_error_paths(self, running_service):
        _daemon, client = running_service
        with pytest.raises(ServiceError) as excinfo:
            client.job(424242)
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit(kind="nonsense")
        assert excinfo.value.status == 400
        # Shutdown is disabled unless the daemon opted in.
        with pytest.raises(ServiceError) as excinfo:
            client.shutdown()
        assert excinfo.value.status == 403

    def test_serve_subprocess_over_http(self, tmp_path, elf_path):
        """A real ``dtaint serve`` process: one job per alias engine,
        each with the in-process fingerprint and a ``job_finish``
        event, then a clean exit on shutdown."""
        reference = {engine: _in_process_sha(elf_path, engine)
                     for engine in ENGINE_NAMES}
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        pythonpath = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--db", str(tmp_path / "serve.sqlite"),
             "--workers", "1", "--no-cache", "--allow-shutdown"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        # A daemon that hangs before announcing is killed, which ends
        # the read below.
        watchdog = threading.Timer(60, process.kill)
        watchdog.start()
        try:
            # The daemon announces its ephemeral port on stdout.
            match = None
            for line in process.stdout:
                match = re.search(r"listening on (http://[\d.]+:\d+)", line)
                if match:
                    break
            watchdog.cancel()
            assert match, "the daemon never announced its port"
            client = ServiceClient(match.group(1))
            job_ids = set()
            for engine, expected in sorted(reference.items()):
                job = client.submit(kind="elf", path=elf_path,
                                    alias_engine=engine)
                assert job["outcome"] == "created"
                job_ids.add(job["job_id"])
                assert client.wait(job["job_id"], timeout=180)["state"] \
                    == "done"
                assert client.findings(job["job_id"])["findings_sha256"] \
                    == expected
                assert "job_finish" in [
                    event["event"] for event in client.events(job["job_id"])
                ]
            # Engine choice is part of a job's identity: no dedup.
            assert len(job_ids) == len(reference)
            client.shutdown()
            assert process.wait(30) == 0
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.wait(10)
            process.stdout.close()
