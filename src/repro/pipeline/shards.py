"""Intra-image shard scheduling: split one hot image across the pool.

The fleet scheduler's unit of work used to be a whole image, so one
hot binary (the vendor corpus's hikvision image) serialised the scan
while other cores idled.  DTaint's bottom-up design makes the fix
natural: per-function summaries are **context-independent** (paper
Algorithm 2), so any partition of the function set can be symbolically
executed in parallel and merged before the interprocedural phase —
findings stay byte-identical to an unsharded run.

A sharded image becomes a three-phase task graph run on the ordinary
:class:`~repro.pipeline.workerpool.WorkerPool` (idle workers steal
whatever shard task is queued next, across images):

``plan``
    One worker loads the image, derives a direct-call edge set (the
    real call graph in incremental mode — it is already built for
    fingerprinting — or a vectorised instruction scout otherwise),
    condenses it into dependency components and groups them into
    cost-balanced shards.  Trivially small images short-circuit to a
    plain unsharded run in place.
``exec`` (one task per shard)
    Recovers CFGs for its function subset only (summaries never
    depend on *which* other functions were recovered: direct-call
    targets resolve against the full symbol table), runs symexec +
    type inference + the first alias pass, collects the functions its
    summaries take the address of, and spills its results for the
    merge.
``merge``
    Reassembles the full function map (skeletons, not lifted IR),
    re-builds the call graph, adopts the shard summaries verbatim and
    runs the inherently serial tail — indirect-call resolution,
    bottom-up interprocedural enrichment, the second alias pass and
    detection — exactly as the unsharded pipeline would.

Byte-identity argument, in brief: shard summaries equal unsharded
summaries (context independence + full-symbol-table target
resolution), the merged function map reproduces the unsharded map's
iteration order (address-sorted locals, then import stubs in symbol
order), and every later stage is a deterministic function of those
two inputs.  ``tests/test_shards.py`` enforces this on the golden
corpus for shard counts 1, 2 and auto.
"""

import os
import pickle
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import profiling
from repro.cfg.callgraph import condense
from repro.errors import PipelineError
from repro.pipeline.cache import _atomic_write

AUTO_SHARDS = -1

# Below this total cost (bytes of function body) an image is not worth
# splitting: per-task dispatch would dominate the saved compute.
MIN_SHARD_COST = 8192


class NameFilter:
    """Picklable ``function_filter`` callable selecting a name set."""

    def __init__(self, names):
        self.names = frozenset(names)

    def __call__(self, name):
        return name in self.names


@dataclass
class FunctionSkeleton:
    """A :class:`~repro.cfg.model.Function` stand-in for the merge.

    Shipping lifted IR across the process boundary costs more than
    re-lifting (tens of MB per hot image); the merge only needs what
    the call graph and the report counters read — name, address,
    block count and the call sites.
    """

    name: str
    addr: int
    size: int
    block_count: int
    call_sites: tuple
    is_import: bool = False

    def contains(self, addr):
        return self.addr <= addr < self.addr + self.size


def skeletonize(function):
    return FunctionSkeleton(
        name=function.name,
        addr=function.addr,
        size=function.size,
        block_count=function.block_count,
        call_sites=tuple(function.call_sites),
        is_import=function.is_import,
    )


# ---------------------------------------------------------------------------
# Direct-call scout: vectorised edge recovery for shard planning.

def scan_direct_call_edges(binary, names):
    """Approximate direct-call edges ``(caller, callee)`` via numpy.

    One pass over the executable segments decoding only the two
    call-shaped instruction patterns (ARM ``BL`` with the
    always-condition, MIPS ``JAL``) as vectorised word operations —
    milliseconds where CFG recovery takes seconds.  Accuracy only
    shapes shard *balance* (a missed edge can split a component that
    interprocedural work later treats as one unit); correctness never
    depends on it, because summaries are context-independent.
    """
    selected = {
        name: symbol for name, symbol in binary.functions.items()
        if name in names and not symbol.is_import
    }
    if not selected:
        return []
    entries = np.array(
        sorted(symbol.addr for symbol in selected.values()), dtype=np.int64
    )
    by_addr = {symbol.addr: name for name, symbol in selected.items()}
    ends = entries + np.array(
        [selected[by_addr[int(addr)]].size for addr in entries],
        dtype=np.int64,
    )
    arch = binary.arch.name
    dtype = ">u4" if binary.arch.is_big_endian else "<u4"
    edges = set()
    for vaddr, data, executable in binary.segments:
        if not executable or len(data) < 4:
            continue
        words = np.frombuffer(
            data[: len(data) // 4 * 4], dtype=dtype
        ).astype(np.int64)
        addrs = vaddr + 4 * np.arange(words.shape[0], dtype=np.int64)
        if arch == "arm":
            mask = (words >> 24) == 0xEB          # BL, condition AL
            offsets = words[mask] & 0x00FFFFFF
            offsets = np.where(
                offsets & 0x00800000, offsets - 0x01000000, offsets
            )
            targets = addrs[mask] + 8 + (offsets << 2)
            sites = addrs[mask]
        elif arch == "mips":
            mask = (words >> 26) == 0x03           # JAL
            targets = (
                ((addrs[mask] + 4) & ~np.int64(0x0FFFFFFF))
                | ((words[mask] & 0x03FFFFFF) << 2)
            )
            sites = addrs[mask]
        else:
            continue
        if targets.shape[0] == 0:
            continue
        # Exact-match targets to function entries.
        hit = np.searchsorted(entries, targets)
        valid = (hit < entries.shape[0]) & (
            entries[np.minimum(hit, entries.shape[0] - 1)] == targets
        )
        # Map each call site to its containing function by extent.
        owner = np.searchsorted(entries, sites, side="right") - 1
        valid &= owner >= 0
        owner = np.maximum(owner, 0)
        valid &= sites < ends[owner]
        for site_owner, target in zip(owner[valid], targets[valid]):
            caller = by_addr[int(entries[site_owner])]
            callee = by_addr[int(target)]
            if caller != callee:
                edges.add((caller, callee))
    return sorted(edges)


# ---------------------------------------------------------------------------
# The planner: condensation components -> cost-balanced shards.

@dataclass
class ShardPlan:
    shards: tuple        # tuple of sorted name tuples
    costs: tuple         # per-shard cost totals
    components: int
    edges: int

    def describe(self):
        return {
            "shards": len(self.shards),
            "components": self.components,
            "edges": self.edges,
            "costs": [round(float(c), 1) for c in self.costs],
        }


def plan_shards(costs, edges, shard_count, min_shard_cost=MIN_SHARD_COST):
    """Group callgraph-condensation components into balanced shards.

    ``costs`` maps function name -> estimated analysis cost (function
    size in bytes by default; callers with cached per-function phase
    times can substitute them).  Components (strongly-connected
    subgraphs of the direct call graph — the unit
    :mod:`repro.increment.fingerprint` already hashes closures over)
    are walked callees-first and greedily assigned to the
    least-loaded shard, so mutually-recursive clusters never split and
    the balance bound is the classic list-scheduling 2-approximation.
    Deterministic: nodes, edges, components and ties all resolve in
    sorted order.
    """
    names = sorted(costs)
    adjacency = {name: [] for name in names}
    edge_count = 0
    for caller, callee in sorted(edges):
        if caller in costs and callee in costs and caller != callee:
            adjacency[caller].append(callee)
            edge_count += 1
    components = [tuple(sorted(scc)) for scc in condense(adjacency)]
    total = float(sum(costs.values()))
    effective = max(int(shard_count), 1)
    if min_shard_cost > 0:
        effective = min(effective, max(int(total // min_shard_cost), 1))
    effective = min(effective, max(len(components), 1))
    if effective <= 1:
        return ShardPlan(
            shards=(tuple(names),) if names else (),
            costs=(total,) if names else (),
            components=len(components), edges=edge_count,
        )
    bins = [[] for _ in range(effective)]
    loads = [0.0] * effective
    for members in components:
        cost = sum(costs[name] for name in members)
        index = min(range(effective), key=lambda i: (loads[i], i))
        bins[index].extend(members)
        loads[index] += cost
    shards, shard_costs = [], []
    for index, members in enumerate(bins):
        if members:
            shards.append(tuple(sorted(members)))
            shard_costs.append(loads[index])
    return ShardPlan(
        shards=tuple(shards), costs=tuple(shard_costs),
        components=len(components), edges=edge_count,
    )


# ---------------------------------------------------------------------------
# Worker-side phase executors (dispatched from execute_job).  Loading the
# job and every cache decision go through the scheduler's
# ``_load_job_binary`` / ``job_config`` and ``JobCache``, exactly as an
# unsharded run does.


def _selected_names(binary, config):
    """Non-import function names the detector would select."""
    names = []
    selected = 0
    for symbol in binary.local_functions:
        if config.modules and not any(
            symbol.name.startswith(prefix) for prefix in config.modules
        ):
            continue
        if symbol.is_import:
            continue
        selected += 1
        names.append(symbol.name)
    return names, selected


def execute_phase(job, attempt, options):
    """Dispatch one shard-lifecycle task (worker side).

    ``options`` are :func:`~repro.pipeline.scheduler.execute_job`'s
    cache options, forwarded verbatim to
    :class:`~repro.pipeline.scheduler.JobCache`.
    """
    if job.shard_phase == "plan":
        return _execute_plan(job, attempt, options)
    if job.shard_phase == "exec":
        return _execute_shard(job, options)
    if job.shard_phase == "merge":
        return _execute_merge(job, options)
    raise PipelineError("unknown shard phase %r" % job.shard_phase)


def _load_spill(job, options):
    """Reload the plan's spilled ELF; returns (binary, config, cache)."""
    from repro.loader.binary import load_elf
    from repro.pipeline.scheduler import JobCache, job_config

    sp = job.shard_payload
    with open(sp["spill"], "rb") as handle:
        binary = load_elf(handle.read(), name=sp["bin_name"])
    config = job_config(job)
    cache = JobCache(sha=sp["sha256"], config=config, **options)
    cache.seed(binary, sp.get("fingerprints_blob"))
    return binary, config, cache


def _execute_plan(job, attempt, options):
    """Phase 1: load, probe caches, partition into shards.

    An image that is served whole from cache, or that is not worth
    splitting, completes right here exactly as an unsharded job would.
    """
    from repro.core import DTaint
    from repro.eval.resources import measure
    from repro.pipeline.scheduler import (
        JobCache,
        _inject_fault,
        _load_job_binary,
    )

    _inject_fault(job, attempt)
    baseline = profiling.PROFILER.snapshot()
    with measure() as usage:
        build_start = time.perf_counter()
        name, binary, config, sha, elf_bytes = _load_job_binary(job)
        build_seconds = time.perf_counter() - build_start
        cache = JobCache(sha=sha, config=config, **options)
        detector = DTaint(binary, config=config, name=name,
                          summary_cache=cache.summaries)
        report_dict = cache.lookup(detector)
        if report_dict is None:
            with profiling.PROFILER.phase("plan"):
                names, selected = _selected_names(binary, config)
                costs = {
                    each: float(max(binary.functions[each].size, 64))
                    for each in names
                }
                if detector.call_graph is not None:
                    # The cache lookup already built the real call
                    # graph (for fingerprinting): strictly better
                    # balance than the scout.
                    edges = sorted(
                        (caller, callee)
                        for caller, callee in detector.call_graph.edges()
                        if caller in costs and callee in costs
                    )
                else:
                    edges = scan_direct_call_edges(binary, set(names))
                plan = plan_shards(costs, edges, max(job.shards, 1))
            if len(plan.shards) <= 1:
                report_dict = detector.run().to_dict()
                cache.publish(report_dict)
        if report_dict is None:
            spill = os.path.join(job.shard_payload["spill_dir"],
                                 "%s.elf" % sha)
            if not os.path.exists(spill):
                _atomic_write(spill, elf_bytes)
        else:
            cache.flush()
    # ``measure`` only finalises ``usage`` in its exit hook, so the
    # numbers are read *after* the block.
    resources = {
        "wall_seconds": usage.wall_seconds,
        "cpu_seconds": usage.cpu_seconds,
        "max_rss_mb": usage.max_rss_mb,
        "build_seconds": build_seconds,
    }
    if report_dict is not None:
        return cache.result(name, report_dict, resources)
    return {
        "status": "plan",
        "sha256": sha,
        "spill": spill,
        "bin_name": name,
        "selected": selected,
        "shards": [list(shard) for shard in plan.shards],
        "plan_info": plan.describe(),
        # Shards recover partial call graphs, over which closure
        # fingerprints would be wrong: ship the full-graph ones.
        "fingerprints_blob": cache.fingerprints_blob(),
        "profile": profiling.delta(baseline, profiling.PROFILER.snapshot()),
        "cache": cache.stats,
        "resources": resources,
    }


def _execute_shard(job, options):
    """Phase 2: symexec + alias pass 1 for one function subset."""
    from repro.core import DTaint
    from repro.eval.resources import measure

    sp = job.shard_payload
    baseline = profiling.PROFILER.snapshot()
    with measure() as usage:
        binary, config, cache = _load_spill(job, options)
        shard_config = replace(
            config, function_filter=NameFilter(job.shard_names)
        )
        detector = DTaint(binary, config=shard_config,
                          name=sp["bin_name"], summary_cache=cache.summaries)
        detector.build_cfg()
        detector.analyze_functions()
        # Bundle blobs are captured *pre-alias* (the cache stores
        # summaries as ``put`` serialized them; the alias pass below
        # mutates the live objects only).
        blobs = cache.export_blobs(
            {s.addr for s in detector.summaries.values()}
        )
        types_map = detector.alias_functions()
        addr_taken = ()
        if config.enable_structure_similarity:
            from repro.core.structure import address_taken_functions

            with profiling.PROFILER.phase("similarity"):
                try:
                    addr_taken = tuple(sorted(_summary_address_taken(
                        binary, detector.summaries,
                        address_taken_functions,
                    )))
                except Exception:
                    addr_taken = ()
        # Fleet-index records are content addressed (first writer
        # wins), so each shard flushes its own; a per-binary bundle is
        # replace-whole-file and flushed exactly once, by the merge.
        if cache.bundle is None:
            cache.flush()
        skeletons = [
            skeletonize(function)
            for function in detector.functions.values()
            if not function.is_import
        ]
        # The profile delta rides in the spill so the merge can fold
        # every shard's phase seconds into the image's phase_times
        # without the scheduler re-threading per-task payloads.
        profile = profiling.delta(baseline, profiling.PROFILER.snapshot())
        out = {
            "index": job.shard_index,
            "summaries": detector.summaries,
            "types": types_map,
            "skeletons": skeletons,
            "degraded": list(detector.degraded.values()),
            "blobs": blobs,
            "addr_taken": addr_taken,
            "profile": profile,
            "cache": cache.stats,
        }
        spill_out = os.path.join(
            sp["spill_dir"],
            "%s.shard.%d.%d.pkl" % (sp["sha256"], job.shard_gen,
                                    job.shard_index),
        )
        _atomic_write(spill_out, pickle.dumps(out, protocol=4))
    return {
        "status": "shard",
        "index": job.shard_index,
        "gen": job.shard_gen,
        "spill_out": spill_out,
        "functions": len(detector.summaries),
        "degraded": len(detector.degraded),
        "profile": profile,
        "cache": out["cache"],
        "resources": {
            "wall_seconds": usage.wall_seconds,
            "cpu_seconds": usage.cpu_seconds,
            "max_rss_mb": usage.max_rss_mb,
        },
    }


def _summary_address_taken(binary, summaries, address_taken_functions):
    """The summary-sourced half of ``address_taken_functions``."""
    data_part = address_taken_functions(binary, None)
    full = address_taken_functions(binary, summaries)
    return full - data_part


def _execute_merge(job, options):
    """Phase 3: deterministic reassembly + the serial pipeline tail."""
    from repro.cfg import build_call_graph
    from repro.cfg.model import Function
    from repro.core import DTaint
    from repro.eval.resources import measure

    sp = job.shard_payload
    baseline = profiling.PROFILER.snapshot()
    with measure() as usage:
        binary, config, cache = _load_spill(job, options)
        shard_outs = []
        for path in sp["shard_spills"]:
            with open(path, "rb") as handle:
                shard_outs.append(pickle.load(handle))
        shard_outs.sort(key=lambda out: out["index"])

        with profiling.PROFILER.phase("merge"):
            skeletons = sorted(
                (sk for out in shard_outs for sk in out["skeletons"]),
                key=lambda sk: sk.addr,
            )
            # Reproduce the unsharded function-map order exactly:
            # address-sorted recovered locals, then import stubs in
            # symbol-table order (CFGBuilder.build_all's layout).
            functions = {sk.name: sk for sk in skeletons}
            for symbol in binary.functions.values():
                if symbol.is_import and symbol.name not in functions:
                    functions[symbol.name] = Function(
                        name=symbol.name, addr=symbol.addr,
                        size=symbol.size, is_import=True,
                    )
            summaries, types_map = {}, {}
            degraded, addr_taken = [], set()
            cache.absorb(sp.get("plan_cache"))
            for out in shard_outs:
                summaries.update(out["summaries"])
                types_map.update(out["types"])
                degraded.extend(out["degraded"])
                addr_taken.update(out["addr_taken"])
                cache.preload(out["blobs"])
                cache.absorb(out["cache"])
            call_graph = build_call_graph(functions)

        detector = DTaint(binary, config=config,
                          name=sp["bin_name"], summary_cache=cache.summaries)
        detector.attach_prebuilt(
            functions, call_graph, sp.get("selected", 0),
            degraded=degraded, summaries=summaries, types=types_map,
            address_taken=sorted(addr_taken),
        )
        report_dict = detector.run().to_dict()
        # The report's own profile covers only this process; fold in
        # the plan's and every shard's deltas so per-image phase_times
        # reflect total analysis compute (each process contributed its
        # own delta exactly once — nothing double-counts).
        merge_profile = profiling.delta(
            baseline, profiling.PROFILER.snapshot()
        )
        profiles = [sp.get("plan_profile")]
        profiles += [out["profile"] for out in shard_outs]
        report_dict["phase_profile"] = profiling.merge(
            [p for p in profiles if p] + [merge_profile]
        )
        stats = cache.stats
        report_dict["summary_cache"] = {
            "hits": int(stats["summary_hits"]),
            "misses": int(stats["summary_misses"]),
        }
        cache.publish(report_dict)
        cache.flush()
        for path in sp["shard_spills"]:
            try:
                os.unlink(path)
            except OSError:
                pass
    payload = cache.result(sp["bin_name"], report_dict, resources={
        "wall_seconds": usage.wall_seconds,
        "cpu_seconds": usage.cpu_seconds,
        "max_rss_mb": usage.max_rss_mb,
        "build_seconds": sp.get("build_seconds", 0.0),
    })
    payload["shard_stats"] = {
        "shards": len(shard_outs),
        "plan_info": sp.get("plan_info", {}),
    }
    return payload
