"""Structured run telemetry: JSONL events + the end-of-run table.

Every observable moment of a fleet run — scheduler decisions (job
start/finish/retry/timeout/quarantine), worker-side stage timings,
cache hits and misses, peak RSS — becomes one JSON object on one line
of an append-only file.  The format is deliberately boring: it can be
tailed during a run, grepped after one, and loaded with three lines of
Python (:func:`read_events`).

Events carry a wall-clock ``ts`` and a monotonically increasing
``seq`` assigned by the writer, so ordering is unambiguous even when
two events land in the same clock tick.
"""

import json
import threading
import time

from repro.eval.tables import format_table


class Telemetry:
    """Append-only JSONL event writer (thread-safe, line-buffered).

    Beyond the JSONL file, events **fan out** to any number of sinks
    — callables invoked with each finished record under the writer
    lock, so a sink observes events in exactly ``seq`` order.  The
    analysis daemon uses a sink to mirror the stream into the sqlite
    results store, where it becomes the per-job progress feed the
    REST API serves.  A sink that raises is dropped after the first
    failure rather than poisoning every later emit.
    """

    def __init__(self, path=None, sinks=()):
        self.path = path
        self._lock = threading.Lock()
        self._seq = 0
        self._handle = open(path, "a") if path else None
        self._sinks = list(sinks)

    def add_sink(self, sink):
        """Register a callable receiving every event record."""
        with self._lock:
            self._sinks.append(sink)

    def emit(self, event, **fields):
        """Record one event; returns the event dict (always built)."""
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            if self._handle is not None:
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
            dead = []
            for sink in self._sinks:
                try:
                    sink(record)
                except Exception:
                    dead.append(sink)
            for sink in dead:
                self._sinks.remove(sink)
        return record

    def emit_many(self, events, **common):
        """Ship a batch of worker-collected event dicts, tagged."""
        for event in events:
            fields = dict(event)
            kind = fields.pop("event", "worker_event")
            fields.update(common)
            self.emit(kind, **fields)

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_events(path):
    """Load a telemetry JSONL file back into a list of dicts."""
    events = []
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _hit_rate(cache):
    hits = cache.get("summary_hits", 0)
    misses = cache.get("summary_misses", 0)
    total = hits + misses
    if total == 0:
        return "-"
    return "%.0f%%" % (100.0 * hits / total)


def aggregate_phase_profile(results):
    """Sum per-job ``phase_profile`` sections across a fleet run.

    Jobs served whole from the report cache are excluded — their
    profile describes the original computation, not this run.
    """
    from repro import profiling

    return profiling.merge(
        (result.report or {}).get("phase_profile", {})
        for result in results
        if not (result.cache or {}).get("report_cache_hit")
        and not (result.cache or {}).get("image_findings_hit")
    )


def _phase_share_note(results):
    """``phases: symexec 61% | detect 20% | ...`` or '' when untimed."""
    from repro import profiling

    shares = profiling.phase_percentages(aggregate_phase_profile(results))
    if not shares:
        return ""
    ordered = sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))
    return "phases: " + " | ".join(
        "%s %.1f%%" % (name, share) for name, share in ordered
    )


def render_fleet_summary(results, wall_seconds):
    """The end-of-run table: one row per job + aggregate footer."""
    headers = ["job", "image", "status", "attempts", "time_s",
               "cache", "rss_mb", "paths", "vulns", "degr"]
    rows = []
    total_paths = total_vulns = 0
    total_hits = total_misses = 0
    total_analyzed = total_selected = total_degraded = 0
    total_fleet_hits = total_fleet_misses = 0
    for result in results:
        report = result.report or {}
        paths = len(report.get("vulnerable_paths", []))
        vulns = len(report.get("vulnerabilities", []))
        coverage = report.get("coverage", {}) or {}
        degraded = coverage.get("degraded", 0)
        total_paths += paths
        total_vulns += vulns
        total_analyzed += coverage.get("analyzed", 0)
        total_selected += coverage.get("selected", 0)
        total_degraded += degraded
        total_hits += result.cache.get("summary_hits", 0)
        total_misses += result.cache.get("summary_misses", 0)
        total_fleet_hits += result.cache.get("fleet_hits", 0)
        total_fleet_misses += result.cache.get("fleet_misses", 0)
        cache_note = _hit_rate(result.cache)
        if result.cache.get("report_cache_hit"):
            cache_note = "report"
        elif result.cache.get("image_findings_hit"):
            cache_note = "image"
        rows.append([
            result.job.job_id,
            report.get("binary", result.job.describe_target()),
            result.status,
            result.attempts,
            "%.2f" % result.elapsed,
            cache_note,
            "%.0f" % result.resources.get("max_rss_mb", 0.0),
            paths if result.report else "-",
            vulns if result.report else "-",
            degraded if result.report else "-",
        ])
    lookups = total_hits + total_misses
    rate = 100.0 * total_hits / lookups if lookups else 0.0
    ok = sum(1 for r in results if r.status == "ok")
    footer = (
        "%d/%d jobs ok, analyzed %d/%d functions (%d degraded), "
        "%d vulnerable paths, %d vulnerabilities, "
        "summary cache %d/%d hits (%.0f%%), wall %.2fs"
        % (ok, len(results), total_analyzed, total_selected,
           total_degraded, total_paths, total_vulns,
           total_hits, lookups, rate, wall_seconds)
    )
    fleet_lookups = total_fleet_hits + total_fleet_misses
    if fleet_lookups:
        footer += (
            "\nfleet dedup: %d/%d summaries reused across binaries "
            "(%.0f%%)"
            % (total_fleet_hits, fleet_lookups,
               100.0 * total_fleet_hits / fleet_lookups)
        )
    phase_note = _phase_share_note(results)
    if phase_note:
        footer += "\n" + phase_note
    return format_table(headers, rows, title="Fleet scan") + "\n" + footer
