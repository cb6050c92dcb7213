"""Lightweight phase-timing profiler for the analysis hot path.

A single per-process :class:`PhaseProfiler` accumulates wall-clock
seconds and event counters per analysis phase (``lift``, ``symexec``,
``alias``, ``similarity``, ``detect``, ``interproc``, ``increment`` —
the last covering fingerprinting and fleet-dedup work — plus the
shard-scheduling phases ``plan`` and ``merge``).  The hooks are
cheap enough to stay enabled permanently: one ``perf_counter`` pair
per timed region and one dict increment per counted event, so every
scan carries its own phase breakdown — ``dtaint scan --profile``
prints it, reports embed it, and fleet telemetry ships it per job.

The profiler is cumulative for the life of the process; callers that
need per-run numbers bracket the run with :meth:`snapshot` and
:func:`delta` (the detector does exactly that, so nested/fleet scans
in one process don't bleed into each other's reports).
"""

import time
from contextlib import contextmanager

PHASES = ("lift", "symexec", "alias", "similarity", "detect", "interproc",
          "increment", "plan", "merge")


class PhaseProfiler:
    """Accumulates per-phase seconds and counters."""

    __slots__ = ("seconds", "counters", "_stack")

    def __init__(self):
        self.seconds = {}
        self.counters = {}
        self._stack = []

    @contextmanager
    def phase(self, name):
        """Time a region: ``with profiler.phase("alias"): ...``.

        Nested phases account *exclusively*: a child region's elapsed
        time is subtracted from its enclosing phase, so e.g. alias
        work performed inside interproc summary application bills to
        ``alias``, not twice — phase seconds always sum to wall time.
        """
        start = time.perf_counter()
        self._stack.append(name)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            if self._stack:
                parent = self._stack[-1]
                self.seconds[parent] = (
                    self.seconds.get(parent, 0.0) - elapsed
                )

    def count(self, name, amount=1):
        """Count an event, e.g. ``count("symexec_functions")``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self):
        """Current cumulative state as a plain dict (JSON-safe)."""
        return {
            "seconds": dict(self.seconds),
            "counters": dict(self.counters),
        }


def delta(before, after):
    """The profile accumulated between two :meth:`snapshot` calls."""
    out = {"seconds": {}, "counters": {}}
    for key, value in after.get("seconds", {}).items():
        diff = value - before.get("seconds", {}).get(key, 0.0)
        if diff > 1e-9:
            out["seconds"][key] = round(diff, 6)
    for key, value in after.get("counters", {}).items():
        diff = value - before.get("counters", {}).get(key, 0)
        if diff:
            out["counters"][key] = diff
    return out


def merge(profiles):
    """Sum a sequence of snapshot/delta dicts (fleet aggregation)."""
    out = {"seconds": {}, "counters": {}}
    for profile in profiles:
        if not profile:
            continue
        for key, value in profile.get("seconds", {}).items():
            out["seconds"][key] = out["seconds"].get(key, 0.0) + value
        for key, value in profile.get("counters", {}).items():
            out["counters"][key] = out["counters"].get(key, 0) + value
    return out


def render(profile, title="phase profile"):
    """Human-readable table: seconds, percentage, and counters."""
    seconds = profile.get("seconds", {})
    counters = profile.get("counters", {})
    total = sum(seconds.values())
    lines = ["%s (%.3fs timed)" % (title, total)]
    order = [p for p in PHASES if p in seconds] + sorted(
        k for k in seconds if k not in PHASES
    )
    for name in order:
        value = seconds[name]
        share = (100.0 * value / total) if total else 0.0
        lines.append("  %-12s %8.3fs  %5.1f%%" % (name, value, share))
    if counters:
        rendered = "  ".join(
            "%s=%d" % (key, counters[key]) for key in sorted(counters)
        )
        lines.append("  counters: %s" % rendered)
    return "\n".join(lines)


def phase_percentages(profile):
    """Phase -> share of total timed seconds, for summary tables."""
    seconds = profile.get("seconds", {})
    total = sum(seconds.values())
    if not total:
        return {}
    return {
        name: round(100.0 * value / total, 1)
        for name, value in seconds.items()
    }


PROFILER = PhaseProfiler()
