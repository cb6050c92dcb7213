"""Findings and the analysis report."""

from dataclasses import dataclass, field

from repro.symexec.value import pretty


@dataclass
class Finding:
    """One (source, path, sink) tuple that lacked sanitization."""

    kind: str                 # 'buffer-overflow' | 'command-injection'
    function: str
    sink_name: str
    sink_addr: int
    source_name: str
    source_addr: int
    expr: str = ""
    hops: int = 0
    sanitized: bool = False
    note: str = ""

    @classmethod
    def from_path(cls, path, sanitized):
        return cls(
            kind=path.sink.kind,
            function=path.function,
            sink_name=path.sink.name,
            sink_addr=path.sink.addr,
            source_name=path.source_name,
            source_addr=path.source_site,
            expr=pretty(path.expr),
            hops=len(path.steps),
            sanitized=sanitized,
        )

    @property
    def key(self):
        """Dedup key: distinct vulnerabilities share a sink location."""
        return (self.kind, self.sink_name, self.sink_addr)

    def describe(self):
        state = "sanitized" if self.sanitized else "VULNERABLE"
        return "[%s] %s: %s@0x%x <- %s@0x%x in %s (%s)" % (
            state, self.kind, self.sink_name, self.sink_addr,
            self.source_name, self.source_addr, self.function, self.expr,
        )


@dataclass
class DegradedFunction:
    """One function the scan gave up on instead of aborting.

    ``phase`` is the pipeline stage that faulted (``cfg``, ``decode``,
    ``lift``, ``symexec``, ``interproc``, ``detect``), ``reason`` the
    fault message, ``error_type`` the exception class.  ``elapsed``
    is run-dependent and excluded from canonical findings documents.
    """

    function: str
    addr: int = 0
    phase: str = ""
    reason: str = ""
    error_type: str = ""
    elapsed_seconds: float = 0.0

    @classmethod
    def from_fault(cls, function, addr, phase, exc, elapsed=0.0):
        return cls(
            function=function,
            addr=addr or 0,
            phase=phase or getattr(exc, "phase", "") or "analysis",
            reason=str(exc),
            error_type=type(exc).__name__,
            elapsed_seconds=elapsed,
        )

    def describe(self):
        return "[degraded] %s@0x%x: %s in %s phase (%s)" % (
            self.function, self.addr, self.error_type, self.phase,
            self.reason,
        )


@dataclass
class Report:
    """Full output of one DTaint run over one binary."""

    binary_name: str = ""
    arch: str = ""
    analyzed_functions: int = 0
    total_functions: int = 0
    block_count: int = 0
    call_graph_edges: int = 0
    sink_count: int = 0
    indirect_resolved: int = 0
    findings: list = field(default_factory=list)
    sanitized_paths: list = field(default_factory=list)
    elapsed_seconds: float = 0.0
    # Per-phase hot-path profile (repro.profiling snapshot delta):
    # {"seconds": {...}, "counters": {...}} accumulated by this run.
    phase_profile: dict = field(default_factory=dict)
    summary_cache_hits: int = 0
    summary_cache_misses: int = 0
    # Graceful-degradation accounting: functions the scan skipped with
    # a typed reason, summaries cut short by caps or the soft deadline,
    # and callsites where a degraded callee was conservatively stubbed
    # with an empty summary.
    selected_functions: int = 0
    degraded_functions: list = field(default_factory=list)
    truncated_summaries: int = 0
    deadline_truncated: int = 0
    degraded_callee_sites: int = 0

    @property
    def vulnerable_paths(self):
        return [f for f in self.findings if not f.sanitized]

    @property
    def degraded_count(self):
        return len(self.degraded_functions)

    @property
    def coverage(self):
        """The "analyzed 45/48 functions, 3 degraded" accounting."""
        return {
            "analyzed": self.analyzed_functions,
            "selected": self.selected_functions or (
                self.analyzed_functions + self.degraded_count
            ),
            "total": self.total_functions,
            "degraded": self.degraded_count,
            "truncated": self.truncated_summaries,
            "deadline_truncated": self.deadline_truncated,
            "degraded_callee_sites": self.degraded_callee_sites,
        }

    @property
    def vulnerabilities(self):
        """Distinct vulnerable sinks (the paper's "Vulnerability" column)."""
        seen = {}
        for finding in self.vulnerable_paths:
            seen.setdefault(finding.key, finding)
        return list(seen.values())

    def summary_row(self):
        """One Table III row."""
        return {
            "firmware": self.binary_name,
            "analysis_functions": self.analyzed_functions,
            "sinks_count": self.sink_count,
            "execution_time_minutes": round(self.elapsed_seconds / 60.0, 2),
            "vulnerable_paths": len(self.vulnerable_paths),
            "vulnerabilities": len(self.vulnerabilities),
        }

    def to_dict(self):
        """JSON-serialisable form (findings, counters, phase profile)."""
        from dataclasses import asdict

        return {
            "binary": self.binary_name,
            "arch": self.arch,
            "analyzed_functions": self.analyzed_functions,
            "total_functions": self.total_functions,
            "blocks": self.block_count,
            "call_graph_edges": self.call_graph_edges,
            "sinks": self.sink_count,
            "indirect_resolved": self.indirect_resolved,
            "elapsed_seconds": self.elapsed_seconds,
            "phase_profile": {
                "seconds": dict(self.phase_profile.get("seconds", {})),
                "counters": dict(self.phase_profile.get("counters", {})),
            },
            "summary_cache": {
                "hits": self.summary_cache_hits,
                "misses": self.summary_cache_misses,
            },
            "coverage": self.coverage,
            "degraded_functions": [
                asdict(d) for d in self.degraded_functions
            ],
            "vulnerable_paths": [asdict(f) for f in self.vulnerable_paths],
            "vulnerabilities": [asdict(f) for f in self.vulnerabilities],
            "sanitized_paths": [asdict(f) for f in self.sanitized_paths],
        }

    def save_json(self, path):
        """Write the report to ``path`` as JSON; returns the path."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path

    def render(self):
        coverage_note = ""
        if self.degraded_count or self.truncated_summaries:
            parts = []
            if self.degraded_count:
                parts.append("%d degraded" % self.degraded_count)
            if self.truncated_summaries:
                parts.append("%d truncated" % self.truncated_summaries)
            coverage_note = " (%s)" % ", ".join(parts)
        lines = [
            "DTaint report for %s (%s)" % (self.binary_name, self.arch),
            "  functions analysed : %d / %d%s" % (
                self.analyzed_functions, self.total_functions, coverage_note
            ),
            "  basic blocks       : %d" % self.block_count,
            "  call graph edges   : %d" % self.call_graph_edges,
            "  sinks              : %d" % self.sink_count,
            "  indirect resolved  : %d" % self.indirect_resolved,
            "  vulnerable paths   : %d" % len(self.vulnerable_paths),
            "  vulnerabilities    : %d" % len(self.vulnerabilities),
            "  time               : %.2fs" % self.elapsed_seconds,
        ]
        if self.summary_cache_hits or self.summary_cache_misses:
            lines.append(
                "  summary cache      : %d hits / %d misses"
                % (self.summary_cache_hits, self.summary_cache_misses)
            )
        for degraded in self.degraded_functions:
            lines.append("  " + degraded.describe())
        for finding in self.findings:
            lines.append("  " + finding.describe())
        return "\n".join(lines)

