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
    One worker loads the image, probes the caches and packs its
    functions into cost-balanced shards (largest first, each onto the
    least-loaded shard).  No call graph is consulted: summaries are
    context-independent, so any split gives the same findings and
    grouping callers with callees could only worsen the balance.
    Trivially small images short-circuit to a plain unsharded run in
    place.
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

from repro import profiling
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
# The planner: cost-only longest-processing-time packing.

def plan_shards(costs, shard_count):
    """Pack functions into at most ``shard_count`` cost-balanced shards.

    ``costs`` maps function name -> estimated analysis cost (function
    size in bytes).  Functions are taken largest first (ties by name)
    and each goes to the least-loaded shard (lowest index on ties),
    so the largest shard's load is at most total/k plus the largest
    single cost.  The shard count is capped by the function count and
    by ``MIN_SHARD_COST`` per shard.  Returns a tuple of shards, each
    a sorted tuple of names; the plan depends only on the ``costs``
    mapping, not on its order.
    """
    total = sum(costs.values())
    count = max(min(shard_count, len(costs), int(total // MIN_SHARD_COST)),
                1)
    bins = [[] for _ in range(count)]
    loads = [0] * count
    for name in sorted(costs, key=lambda name: (-costs[name], name)):
        index = min(range(count), key=lambda i: (loads[i], i))
        bins[index].append(name)
        loads[index] += costs[name]
    return tuple(tuple(sorted(members)) for members in bins if members)


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
    cache.seed(binary, *sp["seed_keys"])
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
                shards = plan_shards({
                    each: max(binary.functions[each].size, 64)
                    for each in names
                }, job.shards)
            if len(shards) <= 1:
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
        "shards": [list(shard) for shard in shards],
        # Shards recover partial call graphs, over which closure
        # fingerprints and dataflow keys would be wrong: ship the
        # full-graph ones.
        "seed_keys": cache.seed_keys(),
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
    return cache.result(sp["bin_name"], report_dict, resources={
        "wall_seconds": usage.wall_seconds,
        "cpu_seconds": usage.cpu_seconds,
        "max_rss_mb": usage.max_rss_mb,
        "build_seconds": sp.get("build_seconds", 0.0),
    })
