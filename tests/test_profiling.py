"""Phase profiler: unit behavior + pipeline integration.

The load-bearing regression here is the warm-cache property: a fleet
rescan whose summaries all hit the cache must never re-enter symbolic
execution, observable through the ``symexec_functions`` phase counter
(PR 1's cache path, now assertable).
"""

import os
import shutil

from repro import profiling
from repro.pipeline.scheduler import FleetJob, FleetScheduler, execute_job
from repro.pipeline.telemetry import (
    Telemetry,
    aggregate_phase_profile,
    read_events,
    render_fleet_summary,
)

SCALE = 0.05


def _job(key="dir645"):
    return FleetJob(job_id=key, kind="profile", key=key, scale=SCALE)


class TestPhaseProfiler:
    def test_phase_accumulates_and_counts(self):
        profiler = profiling.PhaseProfiler()
        with profiler.phase("alias"):
            pass
        with profiler.phase("alias"):
            pass
        profiler.count("alias_queries")
        profiler.count("alias_queries", 2)
        snap = profiler.snapshot()
        assert snap["seconds"]["alias"] >= 0.0
        assert snap["counters"]["alias_queries"] == 3

    def test_delta_isolates_a_window(self):
        before = {"seconds": {"lift": 1.0}, "counters": {"lift_blocks": 5}}
        after = {"seconds": {"lift": 1.5, "detect": 0.25},
                 "counters": {"lift_blocks": 8}}
        delta = profiling.delta(before, after)
        assert abs(delta["seconds"]["lift"] - 0.5) < 1e-9
        assert abs(delta["seconds"]["detect"] - 0.25) < 1e-9
        assert delta["counters"] == {"lift_blocks": 3}

    def test_merge_and_percentages(self):
        merged = profiling.merge([
            {"seconds": {"symexec": 3.0}, "counters": {"symexec_functions": 4}},
            {"seconds": {"symexec": 1.0, "detect": 1.0},
             "counters": {"symexec_functions": 2}},
        ])
        assert merged["seconds"] == {"symexec": 4.0, "detect": 1.0}
        assert merged["counters"] == {"symexec_functions": 6}
        shares = profiling.phase_percentages(merged)
        assert shares == {"symexec": 80.0, "detect": 20.0}
        assert profiling.phase_percentages({"seconds": {}}) == {}

    def test_render_lists_phases_and_counters(self):
        text = profiling.render(
            {"seconds": {"symexec": 2.0, "lift": 1.0},
             "counters": {"lift_blocks": 7}},
        )
        assert "symexec" in text and "lift" in text
        assert "66.7%" in text and "lift_blocks=7" in text


class TestPipelineIntegration:
    def test_report_carries_phase_profile(self, tmp_path):
        payload = execute_job(_job())
        profile = payload["report"]["phase_profile"]
        assert profile["seconds"].get("symexec", 0.0) > 0.0
        assert profile["counters"]["symexec_functions"] > 0
        assert profile["counters"]["lift_blocks"] > 0

    def test_warm_summary_cache_never_reenters_symexec(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = execute_job(_job(), cache_dir=cache_dir)
        assert cold["cache"]["summary_misses"] > 0
        assert cold["report"]["phase_profile"]["counters"][
            "symexec_functions"] > 0

        # Drop the report record: the summary bundle must answer.
        shutil.rmtree(os.path.join(cache_dir, "reports"))
        before = profiling.PROFILER.snapshot()
        warm = execute_job(_job(), cache_dir=cache_dir)
        window = profiling.delta(before, profiling.PROFILER.snapshot())

        assert warm["cache"]["summary_misses"] == 0
        assert warm["cache"]["summary_hits"] > 0
        # The hot path was never entered: no symexec counter ticks and
        # no symexec seconds accumulated anywhere in the process while
        # the warm job ran — and the warm report's own profile agrees.
        assert window["counters"].get("symexec_functions", 0) == 0
        assert window["seconds"].get("symexec", 0.0) == 0.0
        warm_counters = warm["report"]["phase_profile"]["counters"]
        assert warm_counters.get("symexec_functions", 0) == 0

    def test_fleet_emits_phase_times_and_summary_shares(self, tmp_path):
        telemetry_path = str(tmp_path / "events.jsonl")
        cache_dir = str(tmp_path / "cache")
        with Telemetry(telemetry_path) as telemetry:
            scheduler = FleetScheduler(jobs=1, cache_dir=cache_dir,
                                       telemetry=telemetry)
            results = scheduler.run([_job()])
        assert results[0].ok
        events = read_events(telemetry_path)
        phase_events = [e for e in events if e["event"] == "phase_times"]
        assert len(phase_events) == 1
        assert phase_events[0]["seconds"].get("symexec", 0.0) > 0.0
        assert phase_events[0]["counters"]["symexec_functions"] > 0

        aggregate = aggregate_phase_profile(results)
        assert aggregate["seconds"].get("symexec", 0.0) > 0.0
        summary = render_fleet_summary(results, wall_seconds=1.0)
        assert "phases:" in summary and "symexec" in summary

        # A whole-report cache hit re-emits nothing: its profile
        # describes the original run, not this one.
        with Telemetry(telemetry_path) as telemetry:
            hot = FleetScheduler(jobs=1, cache_dir=cache_dir,
                                 telemetry=telemetry).run([_job()])
        assert hot[0].cache["report_cache_hit"]
        hot_events = read_events(telemetry_path)[len(events):]
        assert not [e for e in hot_events if e["event"] == "phase_times"]
        assert aggregate_phase_profile(hot) == {"seconds": {}, "counters": {}}
