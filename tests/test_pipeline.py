"""The fleet orchestration subsystem (`repro.pipeline`).

Covers the acceptance properties of the fleet scheduler and the
content-addressed caches:

* summary cache hit on identical bytes, miss on mutated bytes, miss on
  a changed config fingerprint;
* a parallel fleet run produces byte-identical findings to a serial
  run;
* a crashing job is retried, then quarantined, without taking down the
  fleet; timeouts and crashes surface as the typed exceptions;
* telemetry is valid JSONL carrying the full job lifecycle.
"""

import json
import os
import shutil

import pytest

from repro.core import DTaint, DTaintConfig
from repro.core.interproc import deserialize_summary, serialize_summary
from repro.errors import AnalysisTimeout, PipelineError, ReproError, WorkerCrash
from repro.loader.binary import load_elf
from repro.loader.link import build_executable
from repro.pipeline import (
    FleetJob,
    FleetScheduler,
    ReportCache,
    SummaryCache,
    Telemetry,
    binary_sha256,
    canonical_report,
    execute_job,
    findings_fingerprint,
    image_document,
    read_events,
    render_fleet_summary,
    report_fingerprint,
    rollup_document,
    summary_fingerprint,
    write_run_dir,
)

SCALE = 0.05

_VULN_ASM = (
    ".globl main\nmain:\n    push {lr}\n    ldr r0, =n\n"
    "    bl getenv\n    bl system\n    pop {pc}\n.ltorg\n"
    ".rodata\nn: .asciz \"CMD\"\n"
)


def _small_elf():
    elf_bytes, _ = build_executable(
        "arm", _VULN_ASM, imports=["getenv", "system"]
    )
    return elf_bytes


def _scan(elf_bytes, cache_dir, config=None):
    config = config or DTaintConfig()
    binary = load_elf(elf_bytes)
    bound = SummaryCache(cache_dir).for_binary(
        binary_sha256(elf_bytes), config
    )
    report = DTaint(binary, config=config, name="t", summary_cache=bound).run()
    bound.flush()
    return report, bound


class TestSummarySerialization:
    def test_round_trip(self):
        binary = load_elf(_small_elf())
        detector = DTaint(binary, name="t")
        summaries = detector.analyze_functions()
        summary = summaries["main"]
        clone = deserialize_summary(serialize_summary(summary))
        assert clone is not summary
        assert clone.name == summary.name
        assert clone.def_pairs == summary.def_pairs
        assert clone.constraints == summary.constraints
        assert [c.target for c in clone.callsites] == [
            c.target for c in summary.callsites
        ]

    def test_stale_blobs_decode_to_none(self):
        summary = DTaint(load_elf(_small_elf())).analyze_functions()["main"]
        blob = serialize_summary(summary)
        assert deserialize_summary(b"garbage") is None
        assert deserialize_summary(b"") is None
        # Bumped format version.
        stale = blob[:5] + bytes([blob[5] + 1]) + blob[6:]
        assert deserialize_summary(stale) is None


class TestSummaryCache:
    def test_hit_on_identical_bytes(self, tmp_path):
        elf = _small_elf()
        cold_report, cold = _scan(elf, str(tmp_path))
        assert cold.hits == 0 and cold.misses > 0
        warm_report, warm = _scan(elf, str(tmp_path))
        assert warm.misses == 0
        assert warm.hits == cold.misses
        # Cached and fresh analyses must agree on the findings.
        assert findings_fingerprint(warm_report.to_dict()) == \
            findings_fingerprint(cold_report.to_dict())
        assert warm_report.summary_cache_hits == warm.hits

    def test_miss_on_mutated_bytes(self, tmp_path):
        elf = _small_elf()
        _scan(elf, str(tmp_path))
        mutated = bytearray(elf)
        mutated[-1] ^= 0xFF      # flip one byte anywhere in the binary
        _report, bound = _scan(bytes(mutated), str(tmp_path))
        assert bound.hits == 0 and bound.misses > 0

    def test_config_fingerprint_invalidates(self, tmp_path):
        elf = _small_elf()
        _scan(elf, str(tmp_path), config=DTaintConfig(max_paths=64))
        _report, bound = _scan(
            elf, str(tmp_path), config=DTaintConfig(max_paths=8)
        )
        assert bound.hits == 0 and bound.misses > 0

    def test_deadline_change_invalidates(self, tmp_path):
        """A summary truncated under a tight --deadline must never be
        served to a deadline-free run (or vice versa): the deadline
        shapes the summary itself, so it belongs in the fingerprint."""
        elf = _small_elf()
        tight = DTaintConfig(deadline_seconds=1e-9)
        free = DTaintConfig()
        assert summary_fingerprint(tight) != summary_fingerprint(free)
        assert report_fingerprint(tight) != report_fingerprint(free)
        # The tight deadline genuinely truncates the summary.
        truncated = DTaint(load_elf(elf), config=tight).analyze_functions()
        assert any(s.deadline_hit for s in truncated.values())
        _scan(elf, str(tmp_path), config=tight)
        _report, bound = _scan(elf, str(tmp_path), config=free)
        assert bound.hits == 0 and bound.misses > 0

    def test_fingerprint_functions(self):
        a, b = DTaintConfig(), DTaintConfig(max_paths=8)
        assert summary_fingerprint(a) != summary_fingerprint(b)
        assert summary_fingerprint(a) == summary_fingerprint(DTaintConfig())
        # Trace depth shapes detection, not summaries.
        assert summary_fingerprint(a) == summary_fingerprint(
            DTaintConfig(max_trace_depth=5)
        )
        assert report_fingerprint(a) != report_fingerprint(
            DTaintConfig(max_trace_depth=5)
        )
        # Callable filters are uncacheable at report granularity.
        assert report_fingerprint(
            DTaintConfig(function_filter=lambda n: True)
        ) is None

    def test_corrupt_bundle_is_empty_cache(self, tmp_path):
        elf = _small_elf()
        _report, bound = _scan(elf, str(tmp_path))
        with open(bound.path, "wb") as handle:
            handle.write(b"\x00not a pickle")
        _report, rebound = _scan(elf, str(tmp_path))
        assert rebound.hits == 0 and rebound.misses > 0


class TestReportCache:
    def test_round_trip_and_invalidation(self, tmp_path):
        cache = ReportCache(str(tmp_path))
        config = DTaintConfig()
        fingerprint = report_fingerprint(config)
        sha = binary_sha256(b"bytes")
        assert cache.get(sha, fingerprint) is None
        cache.put(sha, fingerprint, {"binary": "x", "vulnerabilities": []})
        report, fingerprints = cache.get(sha, fingerprint)
        assert report["binary"] == "x" and fingerprints is None
        assert cache.get(binary_sha256(b"other"), fingerprint) is None
        assert cache.get(sha, None) is None
        cache.put(sha, None, {"binary": "y"})   # uncacheable: dropped
        assert cache.get(sha, fingerprint)[0]["binary"] == "x"
        # A fleet-index run stores its closure fingerprints alongside.
        closures = {"main": {"local": "a", "closure": "b"}}
        cache.put(sha, fingerprint, {"binary": "z"}, closures)
        assert cache.get(sha, fingerprint) == ({"binary": "z"}, closures)


class TestTypedErrors:
    def test_hierarchy(self):
        assert issubclass(AnalysisTimeout, PipelineError)
        assert issubclass(WorkerCrash, PipelineError)
        assert issubclass(PipelineError, ReproError)
        timeout = AnalysisTimeout("j1", 2.5)
        assert timeout.job_id == "j1" and "2.5" in str(timeout)
        crash = WorkerCrash("j2", exitcode=70)
        assert crash.exitcode == 70 and "j2" in str(crash)


def _profile_job(key, **kwargs):
    return FleetJob(job_id=key, kind="profile", key=key, scale=SCALE,
                    **kwargs)


class TestScheduler:
    def test_parallel_identical_to_serial(self, tmp_path):
        keys = ["dir645", "dir890l"]
        serial = FleetScheduler(jobs=1).run(
            [_profile_job(k) for k in keys]
        )
        parallel = FleetScheduler(jobs=2).run(
            [_profile_job(k) for k in keys]
        )
        assert all(r.ok for r in serial + parallel)
        for left, right in zip(serial, parallel):
            assert findings_fingerprint(left.report) == \
                findings_fingerprint(right.report)
            assert canonical_report(left.report) == \
                canonical_report(right.report)

    def test_warm_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        telemetry_path = str(tmp_path / "events.jsonl")
        job = _profile_job("dir645")
        with Telemetry(telemetry_path) as telemetry:
            cold = FleetScheduler(
                jobs=1, cache_dir=cache_dir, telemetry=telemetry,
            ).run([job])[0]
        assert cold.cache["summary_misses"] > 0
        kinds = [e["event"] for e in read_events(telemetry_path)]
        assert kinds.count("job_finish") == 1
        assert "cache_report" in kinds and "run_finish" in kinds
        # Summary layer: everything hits once the report record is gone.
        shutil.rmtree(os.path.join(cache_dir, "reports"))
        warm = FleetScheduler(
            jobs=1, cache_dir=cache_dir,
        ).run([_profile_job("dir645")])[0]
        assert warm.cache["summary_misses"] == 0
        assert warm.cache["summary_hits"] == cold.cache["summary_misses"]
        assert warm.report["phase_profile"]["counters"].get(
            "symexec_functions", 0) == 0
        assert findings_fingerprint(warm.report) == \
            findings_fingerprint(cold.report)
        # Report layer: the whole analysis is skipped.
        hot = FleetScheduler(jobs=1, cache_dir=cache_dir).run(
            [_profile_job("dir645")]
        )[0]
        assert hot.cache["report_cache_hit"]
        assert hot.cache["summary_hits"] + hot.cache["summary_misses"] == 0
        assert findings_fingerprint(hot.report) == \
            findings_fingerprint(cold.report)

    def test_crash_retried_then_recovered(self, tmp_path):
        telemetry_path = str(tmp_path / "events.jsonl")
        with Telemetry(telemetry_path) as telemetry:
            result = FleetScheduler(
                jobs=1, retries=2, telemetry=telemetry,
            ).run([
                _profile_job("dir645", fault="crash", fault_attempts=1),
            ])[0]
        assert result.ok
        assert result.attempts == 2
        kinds = [e["event"] for e in read_events(telemetry_path)]
        assert "job_crash" in kinds and "job_retry" in kinds

    def test_crash_quarantined_without_aborting_fleet(self, tmp_path):
        telemetry_path = str(tmp_path / "events.jsonl")
        with Telemetry(telemetry_path) as telemetry:
            results = FleetScheduler(
                jobs=2, retries=1, telemetry=telemetry,
            ).run([
                _profile_job("dir645"),
                _profile_job("dir890l", fault="crash",
                             fault_attempts=10 ** 6),
            ])
        healthy, doomed = results
        assert healthy.ok and healthy.report is not None
        assert doomed.status == "quarantined"
        assert doomed.attempts == 2           # first try + one retry
        assert doomed.error_type == "WorkerCrash"
        events = read_events(telemetry_path)
        kinds = [e["event"] for e in events]
        assert kinds.count("job_crash") == 2
        assert "job_quarantined" in kinds
        assert "job_finish" in kinds          # the healthy job completed

    def test_timeout_kills_and_quarantines(self, tmp_path):
        result = FleetScheduler(jobs=1, timeout=0.5, retries=0).run([
            _profile_job("dir645", fault="hang", fault_attempts=10 ** 6),
        ])[0]
        assert result.status == "quarantined"
        assert result.error_type == "AnalysisTimeout"

    def test_worker_error_is_typed(self):
        result = FleetScheduler(jobs=1, retries=0).run([
            _profile_job("dir645", fault="error", fault_attempts=10 ** 6),
        ])[0]
        assert result.status == "quarantined"
        assert result.error_type == "PipelineError"
        assert "injected failure" in result.error

    def test_rejects_bad_fleets(self):
        with pytest.raises(PipelineError):
            FleetScheduler(jobs=0)
        with pytest.raises(PipelineError):
            FleetScheduler(jobs=1).run(
                [_profile_job("dir645"), _profile_job("dir645")]
            )

    def test_elf_job(self, tmp_path):
        target = tmp_path / "handler.elf"
        target.write_bytes(_small_elf())
        payload = execute_job(
            FleetJob(job_id="elf", kind="elf", path=str(target))
        )
        assert payload["status"] == "ok"
        assert payload["report"]["vulnerabilities"]
        assert payload["sha256"] == binary_sha256(target.read_bytes())


class TestTelemetryAndResults:
    def test_jsonl_is_well_formed(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with Telemetry(path) as telemetry:
            telemetry.emit("run_start", jobs=2)
            telemetry.emit("job_start", job="a", attempt=1)
            telemetry.emit_many(
                [{"event": "stage", "name": "ssa"}], job="a"
            )
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        events = [json.loads(line) for line in lines]
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[2] == {
            "ts": events[2]["ts"], "seq": 2, "event": "stage",
            "name": "ssa", "job": "a",
        }
        assert read_events(path) == events

    def test_results_store_and_rollup(self, tmp_path):
        results = FleetScheduler(jobs=2, retries=0).run([
            _profile_job("dir645"),
            _profile_job("dir890l", fault="crash", fault_attempts=10 ** 6),
        ])
        written = write_run_dir(
            str(tmp_path), rollup_document(results, wall_seconds=1.0),
            [image_document(result) for result in results],
        )
        for result, image_path in zip(results, written):
            with open(image_path) as handle:
                document = json.load(handle)
            assert document["status"] == result.status
        rollup_path = written[-1]
        with open(rollup_path) as handle:
            rollup = json.load(handle)
        assert rollup["totals"]["jobs"] == 2
        assert rollup["totals"]["ok"] == 1
        assert rollup["totals"]["quarantined"] == 1
        ok_row = next(r for r in rollup["images"] if r["status"] == "ok")
        assert ok_row["vulnerabilities"] > 0
        assert ok_row["findings_sha256"]
        summary = render_fleet_summary(results, wall_seconds=1.0)
        assert "quarantined" in summary and "dir645" in summary

    def test_canonical_report_is_run_independent(self):
        base = {
            "binary": "b", "arch": "arm", "analyzed_functions": 3,
            "elapsed_seconds": 1.23,
            "phase_profile": {"seconds": {"symexec": 1.0}, "counters": {}},
            "summary_cache": {"hits": 5, "misses": 0},
            "vulnerable_paths": [
                {"function": "b", "sink_addr": 2, "sink_name": "s"},
                {"function": "a", "sink_addr": 1, "sink_name": "s"},
            ],
        }
        other = dict(base, elapsed_seconds=9.0,
                     phase_profile={}, summary_cache={})
        other["vulnerable_paths"] = list(
            reversed(base["vulnerable_paths"])
        )
        assert canonical_report(base) == canonical_report(other)
        assert findings_fingerprint(base) == findings_fingerprint(other)
        assert canonical_report(base)["vulnerable_paths"][0]["function"] \
            == "a"


class TestScanJsonCLI:
    def test_scan_json_output(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        target = tmp_path / "handler.elf"
        target.write_bytes(_small_elf())
        rc = cli_main(["scan", str(target), "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["vulnerabilities"]
        assert document["vulnerabilities"][0]["kind"] == "command-injection"
        assert "summary_cache" in document

    def test_fleet_scan_cli(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out_dir = str(tmp_path / "out")
        rc = cli_main([
            "fleet-scan", "dir645", "--jobs", "1",
            "--scale", str(SCALE), "--no-cache", "--out", out_dir,
        ])
        assert rc == 0
        assert "Fleet scan" in capsys.readouterr().out
        with open(tmp_path / "out" / "fleet.json") as handle:
            assert json.load(handle)["totals"]["ok"] == 1
        assert read_events(str(tmp_path / "out" / "telemetry.jsonl"))

    def test_fleet_scan_unknown_profile(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["fleet-scan", "nope"]) == 2


class TestCacheQuarantine:
    def test_corrupt_bundle_is_quarantined(self, tmp_path):
        elf = _small_elf()
        _report, bound = _scan(elf, str(tmp_path))
        with open(bound.path, "wb") as handle:
            handle.write(b"\x00not a pickle")
        _report, rebound = _scan(elf, str(tmp_path))
        assert rebound.stats["cache_corrupt"] == 1
        assert os.path.exists(bound.path + ".corrupt")
        # The bad bytes are gone; the rebuilt bundle serves hits again.
        _report, warm = _scan(elf, str(tmp_path))
        assert warm.stats["cache_corrupt"] == 0
        assert warm.hits > 0 and warm.misses == 0

    def test_corrupt_report_cache_is_quarantined(self, tmp_path):
        cache = ReportCache(str(tmp_path))
        fingerprint = report_fingerprint(DTaintConfig())
        cache.put("ab" * 32, fingerprint, {"binary": "x"})
        path = cache._path("ab" * 32, fingerprint)
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get("ab" * 32, fingerprint) is None
        assert cache.corrupt == 1
        assert os.path.exists(path + ".corrupt")
        # A later put/get cycle works on a clean slate.
        cache.put("ab" * 32, fingerprint, {"binary": "x"})
        assert cache.get("ab" * 32, fingerprint) == ({"binary": "x"}, None)


class TestBackoff:
    def test_deterministic_jitter(self):
        a = FleetScheduler(jobs=1, backoff=0.5)
        b = FleetScheduler(jobs=1, backoff=0.5)
        for attempt in (2, 3, 4):
            assert a.backoff_delay("job-x", attempt) == \
                b.backoff_delay("job-x", attempt)
        # Different jobs spread out; same job grows exponentially.
        assert a.backoff_delay("job-x", 2) != a.backoff_delay("job-y", 2)
        assert a.backoff_delay("job-x", 3) > a.backoff_delay("job-x", 2)
        assert a.backoff_delay("job-x", 2) >= 0.5
        assert a.backoff_delay("job-x", 1) == 0.0
        assert FleetScheduler(jobs=1, backoff=0.0).backoff_delay(
            "job-x", 5
        ) == 0.0

    def test_cap_bounds_runaway_delays(self):
        scheduler = FleetScheduler(jobs=1, backoff=1.0, backoff_cap=2.0)
        assert scheduler.backoff_delay("j", 30) == 2.0

    def test_retry_telemetry_records_backoff(self, tmp_path):
        telemetry_path = str(tmp_path / "events.jsonl")
        with Telemetry(path=telemetry_path) as telemetry:
            scheduler = FleetScheduler(
                jobs=1, retries=1, backoff=0.05, telemetry=telemetry,
            )
            results = scheduler.run([FleetJob(
                job_id="flaky", kind="profile", key="dir645", scale=SCALE,
                fault="error", fault_attempts=1,
            )])
        assert results[0].ok and results[0].attempts == 2
        retries = [
            e for e in read_events(telemetry_path)
            if e["event"] == "job_retry"
        ]
        assert len(retries) == 1
        assert retries[0]["backoff_seconds"] == round(
            scheduler.backoff_delay("flaky", 2), 4
        )
