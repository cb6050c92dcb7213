"""The end-to-end DTaint pipeline (paper Fig. 4 + §IV).

``DTaint(binary).run()`` executes: function analysis → pointer
aliasing → data-structure similarity (indirect-call resolution) →
bottom-up interprocedural data flow → sink/source path generation →
sanitization constraint checking, and returns a
:class:`~repro.core.report.Report`.
"""

import time
from dataclasses import dataclass, field

from repro import faultinject, profiling
from repro.alias import get_engine
from repro.cfg import CFGBuilder, build_call_graph
from repro.core import sinks as sinks_mod
from repro.core.interproc import (
    MAX_VARIANTS_PER_CALLSITE,
    InterproceduralAnalysis,
    _actual_mapping,
)
from repro.core.paths import PathFinder
from repro.core.report import DegradedFunction, Finding, Report
from repro.core.sanitize import is_sanitized
from repro.core.structure import resolve_indirect_calls
from repro.core.types import infer_types, root_pointer
from repro.symexec import Constraint, SymbolicEngine
from repro.symexec.value import SymVar, substitute
from repro.utils.heap import gc_paused

_FORMALS = frozenset("arg%d" % i for i in range(10))


def _forwardable(expr):
    """An unresolved use is pushed to callers when it roots at a formal."""
    root = root_pointer(expr)
    if isinstance(root, SymVar) and root.name in _FORMALS:
        return True
    from repro.symexec.value import walk

    return any(
        isinstance(node, SymVar) and node.name in _FORMALS
        for node in walk(expr)
    )


@dataclass
class DTaintConfig:
    """Knobs for the pipeline, with ablation switches.

    ``enable_aliasing``, ``enable_structure_similarity`` and
    ``bottom_up`` exist for the design-choice ablation benches; the
    defaults are the paper's configuration.
    """

    max_paths: int = 64
    max_blocks_per_path: int = 256
    max_trace_depth: int = 24
    enable_aliasing: bool = True
    enable_structure_similarity: bool = True
    function_filter: object = None     # callable(name) -> bool, or None
    modules: tuple = ()                # name prefixes to analyse (else all)
    # Soft per-function wall-clock budget for symbolic exploration, in
    # seconds (0 disables).  A function that exhausts it yields a
    # ``truncated`` summary instead of stalling the scan.
    deadline_seconds: float = 0.0
    # Which alias engine runs Algorithm 1's role: "dtaint" (the
    # paper's heuristics, byte-identical to the historical pipeline)
    # or "sse" (sparse symbolic-execution aliasing).  Part of the
    # cache fingerprint — see pipeline/cache.py.
    alias_engine: str = "dtaint"


class DTaint:
    """Detects taint-style vulnerabilities in one loaded binary.

    The failure domain of every per-function stage is that one
    function: a decode bug, lift gap, symbolic-engine fault or
    per-function deadline never aborts the scan.  Each such fault is
    recorded as a :class:`~repro.core.report.DegradedFunction` and the
    interprocedural layer substitutes a conservative empty summary at
    the degraded callee's call sites.
    """

    def __init__(self, binary, config=None, name="", summary_cache=None):
        self.binary = binary
        self.config = config or DTaintConfig()
        self._alias_engine = get_engine(self.config.alias_engine)
        self.name = name or "binary"
        self.functions = None
        self.summaries = None
        self.enriched = None
        self.call_graph = None
        # A bound per-function summary store (``get(addr)``/``put(addr,
        # summary)``, hit/miss counters) — the pipeline layer's reuse
        # hook around the bottom-up traversal.  ``None`` disables reuse.
        self.summary_cache = summary_cache
        self.degraded = {}            # function name -> DegradedFunction
        self._selected_count = 0
        # name -> TypeMap, filled by the first alias pass
        # (alias_functions) — or pre-installed via attach_prebuilt,
        # which makes run_dataflow skip that pass (shard workers
        # already ran it).
        self._types = None
        self._prebuilt_address_taken = None
        # name -> (enriched, def_pairs, watch, group) served from
        # stored dataflow records by analyze_functions (see there).
        self._flows = {}
        # Per-run phase accounting: the profiler is cumulative per
        # process, so the report carries the delta since construction,
        # and ``elapsed_seconds`` the wall time over the same window.
        self._profile_baseline = profiling.PROFILER.snapshot()
        self._started = time.perf_counter()

    # ------------------------------------------------------------------

    def _degrade(self, name, addr, phase, exc, started=None):
        """Record one function's fault; first fault per function wins."""
        if name in self.degraded:
            return
        if isinstance(exc, MemoryError):
            # Under RLIMIT_AS governance an allocation burst inside one
            # function surfaces as MemoryError; map it into the typed
            # taxonomy so the offending function degrades like any
            # other fault instead of reading as an anonymous crash.
            from repro.errors import ResourceExhausted

            exc = ResourceExhausted(
                "memory limit exhausted during %s" % phase,
                function=name, addr=addr, resource="memory",
            )
        elapsed = time.perf_counter() - started if started else 0.0
        self.degraded[name] = DegradedFunction.from_fault(
            name, addr, phase, exc, elapsed=elapsed
        )

    # ------------------------------------------------------------------

    def _selected_symbols(self):
        symbols = self.binary.local_functions
        config = self.config
        if config.modules:
            symbols = [
                s for s in symbols
                if any(s.name.startswith(prefix) for prefix in config.modules)
            ]
        if config.function_filter is not None:
            symbols = [s for s in symbols if config.function_filter(s.name)]
        return symbols

    @gc_paused
    def build_cfg(self):
        """Stage 0: CFG recovery over the selected functions.

        A function whose CFG cannot be recovered (undecodable
        instruction, lift gap, run past extent) is degraded and
        skipped; recovery proceeds for every other function.
        """
        symbols = self._selected_symbols()
        self._selected_count = sum(1 for s in symbols if not s.is_import)

        def on_fault(symbol, exc):
            self._degrade(symbol.name, symbol.addr, "cfg", exc)

        self.functions = CFGBuilder(self.binary).build_all(
            symbols, on_fault=on_fault
        )
        self.call_graph = build_call_graph(self.functions)
        # Duck-typed pipeline hook: an incremental summary cache
        # fingerprints the recovered functions here (it needs the call
        # graph for closure hashes).  Plain bound caches have no such
        # method and pay nothing; repro.core stays pipeline-agnostic.
        bind = getattr(self.summary_cache, "bind_functions", None)
        if bind is not None:
            bind(self.binary, self.functions, self.call_graph)
        return self.functions

    def attach_prebuilt(self, functions, call_graph, selected_count,
                        degraded=(), summaries=None, types=None,
                        address_taken=None):
        """Adopt per-function state produced elsewhere (shard merge).

        Installs what ``build_cfg`` + ``analyze_functions`` + the
        first alias pass would have computed — the per-function,
        embarrassingly-parallel part of the pipeline — so the
        remaining inherently-serial stages (indirect-call resolution,
        bottom-up interprocedural enrichment, the second alias pass,
        detection) run exactly as an unsharded scan would.
        ``address_taken``, when given, holds the functions whose
        address the shards' summaries take, for the similarity stage.
        """
        self.functions = functions
        self.call_graph = call_graph
        self._selected_count = selected_count
        for entry in degraded:
            self.degraded.setdefault(entry.function, entry)
        self.summaries = dict(summaries or {})
        self._types = dict(types or {})
        self._prebuilt_address_taken = address_taken
        return self.summaries

    @gc_paused
    def analyze_functions(self):
        """Stage 1: static symbolic analysis, one summary per function.

        Summaries are context-independent (the property Algorithm 2's
        bottom-up order relies on), so each one is looked up in the
        bound summary cache first and inserted on a miss; a warm cache
        skips the symbolic-execution hot path entirely.

        A cache with a ``get_flow`` hook is asked first for the
        function's stored dataflow record: a hit installs the summary
        as the first alias pass leaves it and the enriched summary as
        the second leaves it, so ``run_dataflow`` skips both passes
        and the interprocedural step for that function
        (:meth:`_void_flows` says when a hit is not used).  Runs with
        an armed fault injector read no records, so every probe fires
        where a cold run fires it.
        """
        if self.functions is None:
            self.build_cfg()
        engine = self._engine()
        cache = self.summary_cache
        get_flow = getattr(cache, "get_flow", None)
        if faultinject.active() is not None:
            get_flow = None
        self.summaries = {}
        for name, function in self.functions.items():
            if function.is_import:
                continue
            flow = get_flow(function.addr) if get_flow else None
            if flow is not None:
                self._flows[name] = flow
                self.summaries[name] = flow[0].base
            else:
                self._summarize(engine, name, function)
        self._void_flows(engine)
        return self.summaries

    def _engine(self):
        return SymbolicEngine(
            self.binary,
            max_paths=self.config.max_paths,
            max_blocks_per_path=self.config.max_blocks_per_path,
            deadline_seconds=self.config.deadline_seconds,
        )

    def _void_flows(self, engine, alias=None):
        """Drop the served records a cold run would not reproduce.

        A record is void when a function it depends on has degraded in
        this run so far (CFG recovery, symbolic execution and, when
        called after it, the first alias pass), or when its recursion
        SCC was not served whole: a cold run enriches SCC members in a
        fixed order, each importing only the members enriched before
        it, so a member enriched here must not see served ones.  A
        voided function takes the summary path (then ``alias(name)``,
        if given); as that may degrade it in turn, this repeats until
        nothing changes.  Degradations inside interproc itself are not
        checked: served functions are not enriched again.
        """
        voided = False
        while True:
            stale = [
                name for name, (_enriched, _defs, watch, group)
                in self._flows.items()
                if not self.degraded.keys().isdisjoint(watch)
                or not group <= self._flows.keys()
            ]
            if not stale:
                break
            voided = True
            for name in stale:
                del self._flows[name]
                del self.summaries[name]
                self.summary_cache.drop_flow()
                self._summarize(engine, name, self.functions[name])
                if alias is not None and name in self.summaries:
                    alias(name)
        if voided:
            self.summaries = {
                name: self.summaries[name] for name in self.functions
                if name in self.summaries
            }

    def _summarize(self, engine, name, function):
        """One function's summary, from the cache or symbolic execution."""
        cache = self.summary_cache
        started = time.perf_counter()
        try:
            summary = cache.get(function.addr) if cache is not None else None
            if summary is None:
                summary = engine.analyze_function(function)
                if cache is not None:
                    cache.put(function.addr, summary)
        except Exception as exc:
            self._degrade(name, function.addr, "symexec", exc, started)
            return
        self.summaries[name] = summary

    def alias_functions(self):
        """Alias pass 1: type inference and the alias engine, per summary.

        Covers every summary not served from a dataflow record.  A
        fault degrades the function as ``aliasing`` and drops its
        summary.  Returns the name -> TypeMap the second alias pass
        reads (shard workers ship it to the merge).
        """
        self._types = {}
        for name in list(self.summaries):
            if name not in self._flows:
                self._alias(name)
        return self._types

    def _alias(self, name):
        """Alias pass 1 for one function."""
        summary = self.summaries[name]
        started = time.perf_counter()
        try:
            types = infer_types(summary)
            self._types[name] = types
            if self.config.enable_aliasing:
                self._alias_engine.apply(summary, types)
        except Exception as exc:
            self._degrade(name, summary.addr, "aliasing", exc, started)
            del self.summaries[name]

    @gc_paused
    def run_dataflow(self):
        """Stages 2-4: aliasing, similarity, interprocedural data flow."""
        if self.summaries is None:
            self.analyze_functions()
        if self._types is None:
            self.alias_functions()
            if self._flows:
                self._void_flows(self._engine(), self._alias)

        self.resolutions = []
        if self.config.enable_structure_similarity:
            from repro.core.structure import address_taken_functions

            # Indirect-call resolution is an image-wide refinement; a
            # fault here costs resolution quality, never the scan.
            try:
                prebuilt = self._prebuilt_address_taken
                if prebuilt is not None:
                    # Shards already collected the summary-sourced
                    # address-taken functions; only the data-section
                    # scan remains image-global.
                    candidates = address_taken_functions(self.binary, None)
                    candidates |= set(prebuilt)
                else:
                    candidates = address_taken_functions(
                        self.binary, self.summaries
                    )
                self.resolutions = resolve_indirect_calls(
                    self.summaries, self.call_graph,
                    candidates=sorted(candidates) or None,
                )
            except Exception:
                self.resolutions = []

        analysis = InterproceduralAnalysis(
            self.summaries, self.call_graph, degraded=self.degraded,
        )
        analysis.enriched.update(
            (name, flow[0]) for name, flow in self._flows.items()
        )

        def on_fault(name, summary, exc):
            self._degrade(name, summary.addr, "interproc", exc)
            self.summaries.pop(name, None)

        self.enriched = analysis.run(on_fault=on_fault)
        self._degraded_callee_sites = sum(
            e.degraded_callee_sites for e in self.enriched.values()
        )
        # Every caller has imported its callees by now: served records
        # take their definitions as the second alias pass left them.
        for enriched, def_pairs, _watch, _group in self._flows.values():
            enriched.def_pairs = def_pairs
        put_flow = getattr(self.summary_cache, "put_flow", None)
        imported = {
            name: list(enriched.def_pairs)
            for name, enriched in self.enriched.items()
            if name not in self._flows
        } if put_flow is not None else {}
        if self.config.enable_aliasing:
            # A second alias pass connects imported callee definitions
            # with the caller's local pointer names.  It is interproc
            # summary application, so bill the walk to the interproc
            # phase — the engine's own time still lands in ``alias``
            # because nested phases account exclusively.
            with profiling.PROFILER.phase("interproc"):
                for name, enriched in list(self.enriched.items()):
                    if name in self._flows:
                        continue
                    try:
                        self._alias_engine.apply(
                            enriched, self._types[name]
                        )
                    except Exception as exc:
                        self._degrade(
                            name, enriched.base.addr, "aliasing", exc
                        )
                        del self.enriched[name]
                        self.summaries.pop(name, None)
        # Stage a record for each function computed here, with the
        # definitions its callers imported before the pass above.
        for name, def_pairs in imported.items():
            enriched = self.enriched.get(name)
            if enriched is not None:
                put_flow(enriched, def_pairs, self.summaries, self.degraded)
        return self.enriched

    @gc_paused
    def detect(self):
        """Stage 5: sinks, backward paths, sanitization checks.

        Sinks whose dangerous expression cannot be resolved locally and
        roots at a formal argument are forwarded to callers with
        formals replaced by actuals (Algorithm 2's
        ForwardUndefinedUse), so a sink in one callee connects to a
        source in a sibling callee through their common caller.
        """
        if self.enriched is None:
            self.run_dataflow()
        report = Report(
            binary_name=self.name,
            arch=self.binary.arch.name,
            analyzed_functions=len(self.summaries),
            selected_functions=self._selected_count,
            total_functions=len(self.binary.local_functions),
            block_count=sum(
                f.block_count for f in self.functions.values()
            ),
            call_graph_edges=self.call_graph.edge_count,
            indirect_resolved=len(getattr(self, "resolutions", [])),
        )

        seen = set()
        pending = {}  # function name -> unresolved (sink, expr, idx, chain)
        order = self.call_graph.bottom_up_order(list(self.enriched))
        with profiling.PROFILER.phase("detect"):
            for name in order:
                enriched = self.enriched.get(name)
                if enriched is None:
                    continue
                started = time.perf_counter()
                try:
                    self._detect_one(name, enriched, report, seen, pending)
                    profiling.PROFILER.count("detect_functions")
                except Exception as exc:
                    self._degrade(name, enriched.base.addr, "detect", exc,
                                  started)
        self._finalize(report)
        return report

    def _detect_one(self, name, enriched, report, seen, pending):
        """Sink detection and path tracing for one function."""
        faultinject.check("detect", name)
        finder = PathFinder(
            enriched, max_depth=self.config.max_trace_depth
        )
        local_sinks = sinks_mod.find_sinks(name, enriched, self.binary)
        # The engine summarises callsites once per explored path;
        # the sink population counts distinct sink sites.
        report.sink_count += len({s.addr for s in local_sinks})

        candidate_keys = set()
        candidates = []
        for sink in local_sinks:
            for index, expr in sink.dangerous:
                # The engine summarises a callsite once per path;
                # identical (sink, expr) pairs need tracing once.
                key = (sink.addr, index, expr)
                if key in candidate_keys:
                    continue
                candidate_keys.add(key)
                candidates.append((sink, expr, index, (name,), ()))
        variant_counts = {}   # callsite addr -> distinct variants used
        seen_variants = set()  # (addr, args) pairs already forwarded
        for callsite in enriched.callsites:
            target = callsite.target
            if not isinstance(target, str) or target not in pending:
                continue
            # Callsites are summarised once per explored path;
            # forward through a few distinct argument variants.
            variant = (callsite.addr, tuple(callsite.args))
            if variant in seen_variants:
                continue
            count = variant_counts.get(callsite.addr, 0)
            if count >= MAX_VARIANTS_PER_CALLSITE:
                continue
            seen_variants.add(variant)
            variant_counts[callsite.addr] = count + 1
            mapping = _actual_mapping(callsite)
            for sink, expr, index, chain, carried in pending[target]:
                rewritten = substitute(expr, mapping)
                key = (sink.addr, index, rewritten)
                if key in candidate_keys:
                    continue
                candidate_keys.add(key)
                # Constraints from the sink's own function travel
                # with the forwarded use, rebased onto the actuals,
                # so a callee-side length check still sanitizes a
                # path whose taint resolves in the caller.
                new_carried = tuple(
                    Constraint(
                        expr=substitute(c.expr, mapping),
                        taken=c.taken, site=c.site,
                    )
                    for c in (
                        tuple(self.enriched[target].constraints[:32])
                        + carried
                    )[:64]
                )
                candidates.append((sink, rewritten, index,
                                   chain + (name,), new_carried))

        unresolved = []
        for sink, expr, index, chain, carried in candidates:
            paths = finder.trace(sink, expr, index)
            if paths:
                chain_summaries = [
                    self.enriched[c] for c in chain if c in self.enriched
                ]
                for path in paths:
                    sanitized = is_sanitized(
                        path, chain_summaries, finder.taint_objects,
                        extra_constraints=carried,
                    )
                    finding = Finding.from_path(path, sanitized)
                    dedup = (finding.key, finding.source_name,
                             finding.source_addr, finding.sanitized)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    if sanitized:
                        report.sanitized_paths.append(finding)
                    else:
                        report.findings.append(finding)
            elif _forwardable(expr) and len(chain) <= 8:
                unresolved.append((sink, expr, index, chain, carried))
        if unresolved:
            pending[name] = unresolved[:32]

    def _finalize(self, report):
        """Fold the degradation ledger and timings into the report."""
        report.elapsed_seconds = time.perf_counter() - self._started
        report.phase_profile = profiling.delta(
            self._profile_baseline, profiling.PROFILER.snapshot()
        )
        if self.summary_cache is not None:
            report.summary_cache_hits = self.summary_cache.hits
            report.summary_cache_misses = self.summary_cache.misses
        report.degraded_functions = sorted(
            self.degraded.values(), key=lambda d: (d.addr, d.function)
        )
        report.analyzed_functions = sum(
            1 for name in self.summaries if name not in self.degraded
        )
        live = [
            s for name, s in self.summaries.items()
            if name not in self.degraded
        ]
        report.truncated_summaries = sum(
            1 for s in live if getattr(s, "truncated", False)
        )
        report.deadline_truncated = sum(
            1 for s in live if getattr(s, "deadline_hit", False)
        )
        report.degraded_callee_sites = getattr(
            self, "_degraded_callee_sites", 0
        )

    def run(self):
        """Run the full pipeline and return the report."""
        return self.detect()
