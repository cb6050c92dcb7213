"""The fleet scheduler: parallel, crash-isolated, incremental runs.

The paper's headline workload is a 6,529-image corpus; this module is
the machinery that makes such a corpus tractable.  Each analysis job
(one firmware image / binary) runs in a **worker process** drawn from
a persistent :class:`~repro.pipeline.workerpool.WorkerPool`, which
preserves the three properties the original process-per-job design
bought while amortising process start-up across jobs:

* **crash isolation** — a worker segfaulting, OOM-ing or calling
  ``os._exit`` kills only its job; the scheduler observes the dead
  pipe, discards that worker, retries the job in a fresh one, and
  eventually quarantines it while the rest of the fleet proceeds;
* **per-job timeout** — the scheduler tracks a deadline per live
  worker and kills overruns with ``SIGTERM``-then-``SIGKILL``;
* **bounded retry** — every failure mode (crash, timeout, in-worker
  exception) re-queues the job up to ``retries`` extra attempts.

Workers ship results back over their pipe as plain dicts (the
report's ``to_dict()`` form), so nothing analysis-internal needs to
survive pickling across the process boundary.  Failures come back as
the typed exceptions from :mod:`repro.errors` (``AnalysisTimeout``,
``WorkerCrash``, or the worker's own ``ReproError`` subclass).

A scheduler is **reusable**: ``run()`` may be called any number of
times and healthy workers stay warm between calls.  A run can also be
**fed**: given a job source it refills each worker slot the moment it
frees and hands every job to a callback as soon as it settles — the
analysis daemon (:mod:`repro.service`) runs on exactly this loop, so
a one-shot ``fleet-scan`` and the service share one scheduler.  All
per-run state (result map, retry queue, backoff bookkeeping) lives
inside ``run()``; nothing leaks from one run into the next.  Call
:meth:`close` (or use the scheduler as a context manager) to reap the
pool; one-shot callers that skip it only leave daemonic idle workers
that die with the parent process.
"""

import os
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field, replace
from multiprocessing import connection

from repro import faultinject
from repro.errors import (
    AnalysisTimeout,
    PipelineError,
    ReproError,
    WorkerCrash,
    WorkerStalled,
)
from repro.pipeline.cache import (
    ReportCache,
    SummaryCache,
    binary_sha256,
    report_fingerprint,
)
from repro.pipeline.shards import AUTO_SHARDS
from repro.pipeline.telemetry import Telemetry
from repro.pipeline.workerpool import WorkerPool
from repro.utils.heap import gc_paused


@dataclass
class FleetJob:
    """One unit of fleet work: a profile, an ELF, or a firmware member.

    ``kind='firmware'`` points ``path`` at a packed image; the worker
    runs the recursive extractor and analyses the one ELF named by
    ``member`` (an extraction-tree member id, see
    :meth:`repro.firmware.unpack.ExtractionTree.elves`) — empty means
    the preferred target binary.  :func:`expand_firmware_jobs` fans an
    image into one such job per embedded ELF.
    """

    job_id: str
    kind: str = "profile"        # 'profile' | 'elf' | 'firmware'
    key: str = ""                # corpus profile key (kind='profile')
    path: str = ""               # ELF/image path on disk
    scale: float = 0.25          # profile build scale
    modules: tuple = ()          # analysed module prefixes (kind='elf')
    member: str = ""             # extraction member id (kind='firmware')
    alias_engine: str = "dtaint"  # 'dtaint' | 'sse' (repro.alias)
    # Deterministic fault injection for chaos tests and the crash-
    # isolation acceptance check: the named fault fires while the
    # attempt number is <= fault_attempts.
    fault: str = ""              # '' | 'crash' | 'hang' | 'error'
    fault_attempts: int = 0
    # In-analysis fault injection (repro.faultinject spec strings, e.g.
    # 'decode@cfg:handle_request'): installed in the worker before the
    # scan so the fault degrades one function instead of the job.
    faults: tuple = ()
    # Intra-image sharding (repro.pipeline.shards): 0/1 = unsharded,
    # N>1 = split into at most N shards, AUTO_SHARDS (-1) = let the
    # scheduler pick from its worker count.
    shards: int = 0
    # Shard-lifecycle fields; the scheduler stamps these on the task
    # copies it derives from the job — callers leave the defaults.
    shard_phase: str = ""        # '' | 'plan' | 'exec' | 'merge'
    shard_index: int = -1
    shard_names: tuple = ()
    shard_gen: int = 0           # plan generation, guards stale tasks
    shard_payload: object = None

    def describe_target(self):
        target = self.key if self.kind == "profile" else self.path
        if self.kind == "firmware" and self.member:
            target = "%s!%s" % (target, self.member)
        if self.shard_phase == "exec":
            return "%s#%d" % (target, self.shard_index)
        if self.shard_phase:
            return "%s#%s" % (target, self.shard_phase)
        return target


@dataclass
class JobResult:
    """Terminal state of one job after scheduling completes."""

    job: FleetJob
    status: str = "pending"      # 'ok' | 'quarantined'
    attempts: int = 0
    report: dict = None          # Report.to_dict() form (status 'ok')
    sha256: str = ""
    # name -> closure fingerprint (incremental runs only): the
    # position-independent identity a later --baseline diff matches on.
    fingerprints: dict = None
    error: str = ""
    error_type: str = ""
    elapsed: float = 0.0         # last attempt's wall time
    resources: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    fired_faults: list = field(default_factory=list)

    @property
    def ok(self):
        return self.status == "ok"


@dataclass
class _Running:
    job: FleetJob
    attempt: int
    worker: object               # PoolWorker serving this attempt
    started: float
    deadline: float = None
    last_heartbeat: float = 0.0  # perf_counter of the latest sign of life

    @property
    def conn(self):
        return self.worker.conn


def job_config(job):
    """The job's :class:`~repro.core.DTaintConfig`, for every job kind."""
    from repro.core import DTaintConfig

    if job.kind == "profile":
        from repro.corpus.profiles import analyzed_module_prefixes

        modules = analyzed_module_prefixes(job.key)
    else:
        modules = tuple(job.modules)
    return DTaintConfig(modules=modules, alias_engine=job.alias_engine)


def _load_job_binary(job):
    """Materialise the job's binary.

    Returns ``(name, binary, config, sha, elf_bytes)``; ``elf_bytes``
    is the analysed ELF, which the shard plan spills so every later
    shard task reloads exactly these bytes.
    """
    from repro.loader.binary import load_elf

    config = job_config(job)
    if job.kind == "profile":
        from repro.corpus.profiles import build_firmware

        built = build_firmware(job.key, scale=job.scale)
        return (built.name, built.binary, config,
                binary_sha256(built.elf_bytes), built.elf_bytes)
    if job.kind == "elf":
        with open(job.path, "rb") as handle:
            data = handle.read()
        return (job.path, load_elf(data, name=job.path), config,
                binary_sha256(data), data)
    if job.kind == "firmware":
        with open(job.path, "rb") as handle:
            data = handle.read()
        display, elf_bytes = extract_member(data, job.member,
                                            name=job.path)
        name = "%s!%s" % (job.path, display)
        # The sha is the *member's*, not the image's: a binary carved
        # out of firmware and the same binary scanned flat share one
        # cache identity, so summaries and findings transfer.
        return (name, load_elf(elf_bytes, name=name), config,
                binary_sha256(elf_bytes), elf_bytes)
    raise PipelineError("unknown job kind %r" % job.kind)


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool)


class JobCache:
    """One job's cache policy: every read and write the job makes.

    Each cache mode keeps each artefact in one store.  Both modes
    probe the exact-bytes report record (:class:`ReportCache`, keyed
    by member sha256) first, before any CFG recovery.  Per-binary runs
    keep summaries in the per-binary bundle.  Fleet-index runs keep
    summaries only in the content-addressed index
    (:mod:`repro.increment`), read a report record without closure
    fingerprints as a miss, and on that miss recover the CFG to probe
    the index's closure-set key, which also matches relinked or
    rebased images.  Every publish and every closure-key hit writes
    the report record with the closure fingerprints that --baseline
    deltas compare against, so an image served once by relocation is
    an exact hit the next time.  ``cache_dir=None`` disables every
    store.

    The unsharded path and all three shard phases go through this
    class, so sharded and unsharded runs read, write and count the
    same cache records.
    """

    def __init__(self, cache_dir, sha, config, use_fleet_index=False):
        self.sha = sha
        self.report_fp = report_fingerprint(config) if cache_dir else None
        self.reports = None
        self.summaries = None    # the store handed to the detector
        self.bundle = None       # its per-binary summary bundle
        self.incremental = bool(cache_dir and use_fleet_index)
        self._fingerprints = None   # served by a report record hit
        self._flags = {}
        self._absorbed = {}
        if not cache_dir:
            return
        self.reports = ReportCache(cache_dir)
        if self.incremental:
            from repro.increment.reuse import open_incremental_cache

            self.summaries = open_incremental_cache(cache_dir, config)
        else:
            self.summaries = self.bundle = SummaryCache(
                cache_dir
            ).for_binary(sha, config)

    def lookup(self, detector):
        """The whole cached report for this job, or ``None``.

        The exact-bytes record is probed first, with no CFG.  Only on
        its miss does a fleet-index run recover the detector's CFG to
        compute the closure fingerprints the closure-set key needs.
        """
        if self.reports is None:
            return None
        hit = self.reports.get(self.sha, self.report_fp)
        if hit is not None:
            report_dict, fingerprints = hit
            if not self.incremental:
                self._flags["report_cache_hit"] = True
                return report_dict
            # A record a per-binary run wrote has no fingerprints: a
            # miss here, overwritten by this run's publish.
            if fingerprints is not None:
                self._fingerprints = fingerprints
                self._flags["image_findings_hit"] = True
                return report_dict
        if not self.incremental:
            return None
        # Whole-image reuse: if every function's closure fingerprint
        # matches a previously analysed image (same config), its
        # findings apply verbatim modulo a uniform address shift.
        detector.build_cfg()
        report_dict = self.summaries.lookup_image_report(self.report_fp)
        if report_dict is not None:
            self._flags["image_findings_hit"] = True
            self._put_exact(report_dict)
        return report_dict

    def publish(self, report_dict):
        """Store a freshly computed report in the whole-report stores."""
        if self.incremental:
            self.summaries.store_image_report(self.report_fp, report_dict)
        if self.reports is not None:
            self._put_exact(report_dict)

    def _put_exact(self, report_dict):
        fingerprints = (self.summaries.closure_fingerprints()
                        if self.incremental else None)
        self.reports.put(self.sha, self.report_fp, report_dict,
                         fingerprints)

    def seed(self, binary, fingerprints, flows):
        """Adopt the plan's full-graph closure fingerprints and
        dataflow keys (shards)."""
        if self.incremental:
            self.summaries.seed_fingerprints(binary, fingerprints, flows)

    def seed_keys(self):
        """The ``(fingerprints, flows)`` a shard task's :meth:`seed`
        takes, or ``(None, None)``."""
        if not self.incremental:
            return None, None
        return self.summaries.fingerprints, self.summaries.flows

    def export_blobs(self, addrs):
        return self.bundle.export_blobs(addrs) if self.bundle else {}

    def preload(self, blobs):
        if self.bundle is not None:
            self.bundle.preload(blobs)

    def flush(self):
        """Persist staged summaries."""
        if self.summaries is not None:
            self.summaries.flush()

    def absorb(self, stats):
        """Fold another task's counters into this job's (shard merge)."""
        for key, value in (stats or {}).items():
            if _is_count(value):
                self._absorbed[key] = self._absorbed.get(key, 0) + value

    @property
    def stats(self):
        stats = {"summary_hits": 0, "summary_misses": 0,
                 "report_cache_hit": False, "cache_corrupt": 0}
        stats.update(self._flags)
        own = dict(self.summaries.stats) if self.summaries else {}
        if self.reports is not None:
            own["cache_corrupt"] = (own.get("cache_corrupt", 0)
                                    + self.reports.corrupt)
        for source in (own, self._absorbed):
            for key, value in source.items():
                if _is_count(value):
                    stats[key] = stats.get(key, 0) + value
        if self.incremental:
            lookups = stats["summary_hits"] + stats["summary_misses"]
            stats["reuse_ratio"] = (
                round(stats["summary_hits"] / lookups, 4) if lookups
                else 0.0
            )
        return stats

    def result(self, name, report_dict, resources, fired_faults=()):
        """The completed-job payload for ``report_dict``.

        ``name`` is the binary's display name in this job; a cached
        report may carry the name it was first analysed under.
        """
        fingerprints = self._fingerprints
        if fingerprints is None and self.incremental:
            fingerprints = self.summaries.closure_fingerprints()
        return {
            "status": "ok",
            "name": name,
            "report": report_dict,
            "sha256": self.sha,
            "cache": self.stats,
            "fingerprints": fingerprints,
            "fired_faults": list(fired_faults),
            "resources": resources,
        }


def extract_member(data, member="", name=""):
    """Unpack an image and select one ELF; returns (display, bytes).

    ``member`` is the stable tree path from
    :meth:`~repro.firmware.unpack.ExtractionTree.elves`; empty picks
    the preferred network-facing target.  An unknown member is a
    :class:`PipelineError` (a stale job spec, not a bad image).
    """
    from repro.firmware.binwalk import extract_tree, pick_target_binary

    tree = extract_tree(data, name=name)
    if not member:
        display, elf_bytes = pick_target_binary(tree)
        return display, elf_bytes
    for member_id, display, elf_bytes in tree.elves():
        if member_id == member or display == member:
            return display, elf_bytes
    raise PipelineError(
        "no extracted member %r in %s (have: %s)"
        % (member, name or "image",
           ", ".join(m for m, _d, _b in tree.elves()) or "none")
    )


def expand_firmware_jobs(job_id, path, modules=(), data=None, **extra):
    """One :class:`FleetJob` per ELF inside the image at ``path``.

    The extraction runs once here (client side); each returned job
    carries the member id so the worker re-extracts only its own
    target.  ``data`` skips the read when the caller already holds the
    blob.  Extra keyword fields are forwarded to every job.
    """
    if data is None:
        with open(path, "rb") as handle:
            data = handle.read()
    from repro.firmware.binwalk import extract_tree

    tree = extract_tree(data, name=path)
    jobs = []
    for index, (member, _display, _elf) in enumerate(tree.elves()):
        jobs.append(FleetJob(
            job_id="%s.%d" % (job_id, index), kind="firmware",
            path=path, member=member, modules=tuple(modules), **extra,
        ))
    if not jobs:
        raise PipelineError("no ELF executables inside %s" % path)
    return jobs


def _inject_fault(job, attempt):
    if not job.fault or attempt > job.fault_attempts:
        return
    if job.fault == "crash":
        os._exit(70)             # simulated hard death: no result, no cleanup
    if job.fault == "hang":
        time.sleep(3600)
    if job.fault == "error":
        raise PipelineError("injected failure in job %r" % job.job_id)


def import_job_modules():
    """Import the modules running a job imports on first use.

    Pool workers fork from the process that calls this and inherit
    what it imported; a worker forked before it spends its first job
    importing the analysis, about 40 ms on a 2-CPU host where a small
    image's whole job takes 5 ms.
    """
    from repro.alias import DEFAULT_ENGINE, get_engine
    from repro.core import DTaint  # noqa: F401
    from repro.eval.resources import measure  # noqa: F401
    from repro.firmware.binwalk import extract_tree  # noqa: F401
    from repro.firmware.unpack import registered_parsers
    from repro.loader.binary import load_elf  # noqa: F401

    get_engine(DEFAULT_ENGINE)
    registered_parsers()


@gc_paused
def execute_job(job, attempt=1, cache_dir=None, use_fleet_index=False):
    """Run one job to completion in *this* process; returns a payload.

    This is the body of a worker process, but it is also directly
    callable (tests, debugging a single image without the fleet
    machinery).  The payload is a plain dict: status, report dict,
    binary sha, cache counters, resource usage.

    With ``use_fleet_index`` summaries live in the content-addressed
    fleet store (:mod:`repro.increment`): summaries and whole-image
    findings are reused across *different* binaries whenever the
    position-independent fingerprints match, and the payload
    additionally carries each function's closure fingerprint for
    version-delta reports.  :class:`JobCache` holds
    the whole policy.
    """
    from repro.core import DTaint
    from repro.eval.resources import measure

    options = dict(cache_dir=cache_dir, use_fleet_index=use_fleet_index)
    if job.shard_phase:
        # Shard-lifecycle tasks (plan / exec / merge) have their own
        # executors over the same loader and JobCache.
        from repro.pipeline.shards import execute_phase

        return execute_phase(job, attempt, options)

    _inject_fault(job, attempt)
    injector = None
    if job.faults:
        # A run with injected faults must neither read a clean cached
        # result (the fault would silently not fire) nor poison the
        # shared caches with degraded output.
        injector = faultinject.install(faultinject.FaultInjector(job.faults))
        options["cache_dir"] = None
    try:
        with measure() as usage:
            build_start = time.perf_counter()
            name, binary, config, sha, _elf = _load_job_binary(job)
            build_seconds = time.perf_counter() - build_start
            cache = JobCache(sha=sha, config=config, **options)
            detector = DTaint(binary, config=config, name=name,
                              summary_cache=cache.summaries)
            report_dict = cache.lookup(detector)
            if report_dict is None:
                report_dict = detector.run().to_dict()
                cache.publish(report_dict)
            cache.flush()
    finally:
        if injector is not None:
            faultinject.uninstall()
    return cache.result(
        name, report_dict,
        resources={
            "wall_seconds": usage.wall_seconds,
            "cpu_seconds": usage.cpu_seconds,
            "max_rss_mb": usage.max_rss_mb,
            "build_seconds": build_seconds,
        },
        fired_faults=injector.fired_specs() if injector else (),
    )


# Per-result counters a run sums into its ``run_finish`` event.
_CACHE_TOTALS = ("summary_hits", "summary_misses", "cache_corrupt",
                 "fleet_hits", "fleet_misses")
_RUN_TOTALS = ("ok", "quarantined") + _CACHE_TOTALS + ("degraded",)


def _tally(totals, result):
    totals["ok" if result.ok else "quarantined"] += 1
    for key in _CACHE_TOTALS:
        totals[key] += result.cache.get(key, 0)
    totals["degraded"] += (
        (result.report or {}).get("coverage", {}).get("degraded", 0)
    )


class FleetScheduler:
    """Fans fleet jobs over warm pool workers with retry + quarantine."""

    def __init__(self, jobs=1, timeout=None, retries=1, cache_dir=None,
                 use_fleet_index=False, telemetry=None, backoff=0.1,
                 backoff_cap=5.0, pool=None, rlimits=None, heartbeat=0.0,
                 heartbeat_timeout=0.0):
        if jobs < 1:
            raise PipelineError("need at least one worker slot")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = max(retries, 0)
        self.backoff = max(backoff or 0.0, 0.0)
        self.backoff_cap = backoff_cap
        self.telemetry = telemetry or Telemetry(path=None)
        self._rlimits = dict(rlimits) if rlimits else None
        self.heartbeat = max(float(heartbeat or 0.0), 0.0)
        # A worker silent longer than this while holding a job is
        # presumed frozen and reaped (SIGTERM→SIGKILL).  Only
        # meaningful when heartbeats are on.  The default is generous
        # (10 intervals, floor 5s): the beat thread shares the GIL
        # with the analysis, so long C-level operations legitimately
        # delay beats — the detector targets frozen processes, not
        # slow ones.
        if self.heartbeat and not heartbeat_timeout:
            heartbeat_timeout = max(10.0 * self.heartbeat, 5.0)
        self.heartbeat_timeout = (
            max(float(heartbeat_timeout or 0.0), 0.0)
            if self.heartbeat else 0.0
        )
        self._options = {
            "cache_dir": cache_dir,
            "use_fleet_index": use_fleet_index,
        }
        # An externally supplied pool is shared (several schedulers
        # may draw on the same warm workers); an owned pool is
        # created lazily on the first run() so the fork happens after
        # the caller finished configuring the parent process.
        self._pool = pool
        self._owns_pool = pool is None
        # Memoised backoff schedule, pruned when a job reaches a
        # terminal state so long daemon runs stay bounded.
        self._backoff_state = {}
        # The spill directory exec/merge shard tasks exchange pickles
        # through, created on the first sharded job.
        self._spill_dir = None

    @property
    def pool(self):
        if self._pool is None:
            self._pool = WorkerPool(
                rlimits=self._rlimits, heartbeat=self.heartbeat
            )
        return self._pool

    def close(self):
        """Reap the owned worker pool (shared pools are left alone)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------

    def run(self, fleet_jobs=(), source=None, on_result=None):
        """Run every job to a terminal state; returns ordered results.

        A one-shot fleet run passes its jobs as ``fleet_jobs``.  A
        long-lived caller (the analysis daemon) passes a ``source``
        instead, and the same launch/poll loop refills every free
        worker slot from it:

        * ``source.take(slots)`` returns up to ``slots`` new jobs
          (possibly none), or ``None`` once the source is closed — the
          run then finishes the work in flight and returns;
        * ``source.wake`` is a waitable (a pipe read end, or ``None``)
          that turns readable when ``take`` may have new work; the
          loop waits on it beside the worker pipes while a slot is
          free, so new work starts without polling;
        * ``source.poll_interval`` bounds an idle wait, for work that
          arrives without a wake.

        ``on_result(result)`` is called once per job the moment it
        reaches its terminal state.  Source jobs are delivered only
        that way: the returned list holds the ``fleet_jobs`` results.
        """
        fleet_jobs = list(fleet_jobs)
        # Queue entries are (job, attempt, not_before): retries sit in
        # the queue until their backoff delay expires, without ever
        # blocking the scheduler loop or other jobs' slots.
        queue = []
        results = {}
        for job in fleet_jobs:
            self._admit(job, queue, results)
        ordered = [results[job.job_id] for job in fleet_jobs]
        listed = set(results)
        # job_id -> in-flight shard fan-out bookkeeping (plan payload,
        # outstanding shard set).
        shard_states = {}
        running = []
        totals = dict.fromkeys(_RUN_TOTALS, 0)
        run_start = time.perf_counter()
        self.telemetry.emit(
            "run_start", jobs=len(fleet_jobs), workers=self.jobs,
            timeout=self.timeout, retries=self.retries,
            cache_dir=self._options["cache_dir"],
        )
        try:
            while queue or running or source is not None:
                now = time.perf_counter()
                if source is not None:
                    free = self.jobs - len(running) - sum(
                        1 for e in queue if e[2] <= now
                    )
                    if free > 0:
                        taken = source.take(free)
                        if taken is None:
                            source = None
                            continue
                        for job in taken:
                            self._admit(job, queue, results)
                while len(running) < self.jobs:
                    entry = next(
                        (e for e in queue if e[2] <= now), None
                    )
                    if entry is None:
                        break
                    queue.remove(entry)
                    running.append(self._launch(entry[0], entry[1]))
                # Only a free slot listens for new work; a full pool
                # learns of a freed slot from the worker pipes.
                wake = (source.wake if source is not None
                        and len(running) < self.jobs else None)
                if not running:
                    # Everything left is backing off (sleep to the
                    # soonest eligibility instead of spinning) or the
                    # source is idle until its next wake.
                    if queue:
                        soonest = min(e[2] for e in queue)
                        timeout = min(max(soonest - now, 0.0), 0.05)
                    else:
                        timeout = source.poll_interval
                    if wake is not None:
                        connection.wait([wake], timeout=timeout)
                    else:
                        time.sleep(timeout)
                    continue
                settled = self._poll(running, queue, results,
                                     shard_states, wake)
                for result in settled:
                    _tally(totals, result)
                    if on_result is not None:
                        on_result(result)
                    if result.job.job_id not in listed:
                        results.pop(result.job.job_id)
        finally:
            for record in running:   # unwind on unexpected scheduler error
                self.pool.discard(record.worker)
        self.telemetry.emit(
            "run_finish",
            wall_seconds=round(time.perf_counter() - run_start, 4),
            **totals,
        )
        return ordered

    # ------------------------------------------------------------------

    def _admit(self, job, queue, results):
        """Give a job its result slot and queue its first task.

        A job marked for sharding enters as its own plan task; the
        plan's shard tasks later jump the queue front, so idle workers
        steal shard work from hot images before starting new ones.
        """
        if job.job_id in results:
            raise PipelineError("duplicate job_id in fleet")
        results[job.job_id] = JobResult(job=job)
        resolved = self._resolve_shards(job)
        if resolved > 1:
            job = replace(job, shards=resolved, shard_phase="plan",
                          shard_payload={
                              "spill_dir": self._ensure_spill_dir(),
                          })
        queue.append((job, 1, 0.0))

    def _launch(self, job, attempt):
        worker = self.pool.acquire()
        try:
            worker.send_job(job, attempt, self._options)
        except (BrokenPipeError, OSError):
            # Worker died between fork and first job: replace it once.
            self.pool.discard(worker)
            worker = self.pool.acquire()
            worker.send_job(job, attempt, self._options)
        started = time.perf_counter()
        deadline = started + self.timeout if self.timeout else None
        if job.shard_phase:
            self.telemetry.emit(
                "shard_task_start", job=job.job_id, attempt=attempt,
                pid=worker.pid, target=job.describe_target(),
                phase=job.shard_phase, shard=job.shard_index,
            )
        else:
            self.telemetry.emit(
                "job_start", job=job.job_id, attempt=attempt,
                pid=worker.pid, target=job.describe_target(),
            )
        return _Running(job=job, attempt=attempt, worker=worker,
                        started=started, deadline=deadline,
                        last_heartbeat=started)

    def _poll(self, running, queue, results, shard_states, wake=None):
        """One scheduler tick: reap finished workers, enforce deadlines.

        Three independent liveness checks per live worker, in order:
        a readable pipe (result, typed error, or heartbeat), the
        per-job wall-clock deadline, and — when heartbeats are on —
        the stall detector, which reaps a worker whose beat went
        silent even though its deadline has not expired (frozen
        process, SIGSTOP, deadlock in native code).  ``wake`` joins
        the wait so new work cuts the tick short.  Returns the
        results that reached their terminal state in this tick.
        """
        conns = [record.conn for record in running]
        if wake is not None:
            conns.append(wake)
        ready = connection.wait(conns, timeout=0.05)
        now = time.perf_counter()
        finished = []
        for record in running:
            if record.conn in ready:
                outcome = self._reap(record)
                if outcome is None:      # heartbeat(s) only: still alive
                    continue
                finished.append((record, outcome))
            elif record.deadline is not None and now > record.deadline:
                self.pool.discard(record.worker)
                finished.append((record, AnalysisTimeout(
                    record.job.job_id, self.timeout
                )))
            elif (self.heartbeat_timeout
                    and now - record.last_heartbeat > self.heartbeat_timeout):
                self.pool.discard(record.worker)
                finished.append((record, WorkerStalled(
                    record.job.job_id, now - record.last_heartbeat
                )))
        settled = []
        for record, outcome in finished:
            running.remove(record)
            elapsed = time.perf_counter() - record.started
            # A stale shard task of an already delivered job finds no
            # result slot; it cannot settle anything.
            result = results.get(record.job.job_id)
            pending = result is not None and result.status == "pending"
            if record.job.shard_phase:
                if not isinstance(outcome, dict):
                    self._fail_shard(record, outcome, elapsed, queue,
                                     results, shard_states)
                elif outcome.get("status") == "ok":
                    # A plan that short-circuited (cache hit, image too
                    # small) or a finished merge: a complete result.
                    self._finish_sharded_ok(record, outcome, elapsed,
                                            results, shard_states)
                else:
                    self._advance_shard(record, outcome, elapsed, queue,
                                        shard_states)
            elif isinstance(outcome, dict):
                self._complete(record, outcome, elapsed, results)
            else:
                self._fail(record, outcome, elapsed, queue, results)
            if pending and result.status != "pending":
                settled.append(result)
        return settled

    def _reap(self, record):
        """Drain the worker's pipe; returns a payload, an error, or None.

        ``None`` means only heartbeats arrived — the job is still in
        flight.  A clean payload (including an in-worker typed error)
        leaves the worker warm for the next job, unless it carries
        ``recycle`` (resource budget spent: orderly retirement); a
        dead pipe means the process itself is gone and the worker is
        discarded.
        """
        while True:
            try:
                payload = record.conn.recv()
            except (EOFError, OSError):
                record.worker.process.join(5)
                crash = WorkerCrash(record.job.job_id,
                                    exitcode=record.worker.process.exitcode)
                self.pool.discard(record.worker)
                return crash
            if (isinstance(payload, dict)
                    and payload.get("control") == "heartbeat"):
                record.last_heartbeat = time.perf_counter()
                if record.conn.poll():
                    continue             # more frames queued behind it
                return None
            break
        if payload.pop("recycle", False):
            self.pool.recycle(record.worker)
        else:
            self.pool.release(record.worker)
        if payload.get("status") in ("ok", "plan", "shard"):
            return payload
        # The worker caught its own exception: rehydrate it typed.
        error = PipelineError(
            "%s: %s" % (payload.get("error_type", "Error"),
                        payload.get("error", ""))
        )
        error.worker_error_type = payload.get("error_type", "")
        return error

    # -- shard lifecycle -----------------------------------------------

    def _resolve_shards(self, job):
        """Effective shard count for a job (<=1 means run unsharded).

        Jobs carrying in-analysis fault specs never shard: the
        injector's install/uninstall and cache bypass are scoped to a
        single worker process.
        """
        count = int(job.shards or 0)
        if count == 0 or job.faults:
            return 0
        if count == AUTO_SHARDS:
            # Over-decompose relative to the worker count so the
            # greedy planner's tail imbalance amortises and freed
            # workers always find another shard to steal.
            return max(2, min(4 * self.jobs, 16))
        return count

    def _ensure_spill_dir(self):
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="dtaint-shards-")
        return self._spill_dir

    def _advance_shard(self, record, payload, elapsed, queue, shard_states):
        """Fold one finished plan/exec task into the fan-out state."""
        jid = record.job.job_id
        if payload.get("status") == "plan":
            self._accept_plan(record, payload, queue, shard_states)
            return
        state = shard_states.get(jid)
        if state is None or payload.get("gen") != state["gen"]:
            return      # stale task from a superseded (failed) plan
        state["done"][payload["index"]] = payload
        self.telemetry.emit(
            "shard_task_finish", job=jid, shard=payload["index"],
            elapsed=round(elapsed, 4),
            functions=payload.get("functions", 0),
            degraded=payload.get("degraded", 0),
        )
        if len(state["done"]) == state["pending"]:
            self._enqueue_merge(record, state, queue)

    def _accept_plan(self, record, payload, queue, shard_states):
        jid = record.job.job_id
        shards = payload["shards"]
        base = {
            "sha256": payload["sha256"],
            "spill": payload["spill"],
            "spill_dir": self._ensure_spill_dir(),
            "bin_name": payload.get("bin_name", ""),
            "seed_keys": payload["seed_keys"],
        }
        shard_states[jid] = {
            "gen": record.attempt,
            "attempt": record.attempt,
            "payload": payload,
            "base": base,
            "pending": len(shards),
            "done": {},
            "t0": record.started,
        }
        self.telemetry.emit("shard_plan", job=jid, shards=len(shards))
        # Front of the queue: finishing a hot image's shards beats
        # starting fresh images, and any idle worker can steal one.
        queue[:0] = [
            (replace(record.job, shard_phase="exec", shard_index=index,
                     shard_names=tuple(names), shard_gen=record.attempt,
                     shard_payload=base),
             record.attempt, 0.0)
            for index, names in enumerate(shards)
        ]

    def _enqueue_merge(self, record, state, queue):
        plan = state["payload"]
        ordered = [state["done"][i] for i in sorted(state["done"])]
        merge_payload = dict(state["base"])
        merge_payload.update(
            selected=plan.get("selected", 0),
            shard_spills=[out["spill_out"] for out in ordered],
            plan_profile=plan.get("profile"),
            plan_cache=plan.get("cache"),
            build_seconds=plan.get("resources", {}).get(
                "build_seconds", 0.0
            ),
        )
        queue.insert(0, (
            replace(record.job, shard_phase="merge", shard_index=-1,
                    shard_names=(), shard_gen=state["gen"],
                    shard_payload=merge_payload),
            state["attempt"], 0.0,
        ))

    def _finish_sharded_ok(self, record, payload, elapsed, results,
                           shard_states):
        state = shard_states.pop(record.job.job_id, None)
        if state is not None:
            # The image's wall time spans plan start to merge finish;
            # per-task elapsed would under-report it in the rollup.
            elapsed = time.perf_counter() - state["t0"]
            payload.setdefault("resources", {})["image_wall_seconds"] = (
                round(elapsed, 4)
            )
            self.telemetry.emit(
                "shard_merge_finish", job=record.job.job_id,
                shards=state["pending"],
                image_wall_seconds=round(elapsed, 4),
            )
        self._complete(record, payload, elapsed, results)

    def _fail_shard(self, record, error, elapsed, queue, results,
                    shard_states):
        """Any shard-task failure fails the whole image's attempt.

        The attempt counts against ``retries`` like any job failure; a
        retry runs the image unsharded, and with no retries left the
        job is quarantined.  Conservative, but it keeps every
        failure-handling property (bounded retry, quarantine, typed
        errors) without a shard-granular recovery protocol."""
        jid = record.job.job_id
        state = shard_states.pop(jid, None)
        if record.job.shard_phase != "plan" and state is None:
            return      # stale sibling of an already-failed generation
        queue[:] = [
            entry for entry in queue
            if not (entry[0].job_id == jid and entry[0].shard_phase)
        ]
        self.telemetry.emit(
            "shard_fallback", job=jid, phase=record.job.shard_phase,
            error_type=getattr(error, "worker_error_type", "")
            or type(error).__name__,
        )
        record.job = replace(
            record.job, shards=0, shard_phase="", shard_index=-1,
            shard_names=(), shard_gen=0, shard_payload=None,
        )
        self._fail(record, error, elapsed, queue, results)

    # ------------------------------------------------------------------

    def _complete(self, record, payload, elapsed, results):
        result = results[record.job.job_id]
        result.status = "ok"
        result.attempts = record.attempt
        result.report = payload["report"]
        result.sha256 = payload.get("sha256", "")
        result.fingerprints = payload.get("fingerprints")
        result.cache = payload.get("cache", {})
        result.fired_faults = payload.get("fired_faults", [])
        result.resources = payload.get("resources", {})
        result.elapsed = elapsed
        result.error = result.error_type = ""
        self._backoff_state.pop(record.job.job_id, None)
        cache = result.cache
        cache_event = {
            "job": record.job.job_id,
            "summary_hits": cache.get("summary_hits", 0),
            "summary_misses": cache.get("summary_misses", 0),
            "report_cache_hit": cache.get("report_cache_hit", False),
        }
        if "fleet_hits" in cache or "fleet_misses" in cache:
            cache_event["fleet_hits"] = cache.get("fleet_hits", 0)
            cache_event["fleet_misses"] = cache.get("fleet_misses", 0)
            cache_event["reuse_ratio"] = cache.get("reuse_ratio", 0.0)
            cache_event["image_findings_hit"] = cache.get(
                "image_findings_hit", False
            )
        self.telemetry.emit("cache_report", **cache_event)
        if cache.get("cache_corrupt"):
            self.telemetry.emit(
                "cache_corrupt", job=record.job.job_id,
                count=cache["cache_corrupt"],
            )
        profile = result.report.get("phase_profile", {})
        if (profile.get("seconds") and not cache.get("report_cache_hit")
                and not cache.get("image_findings_hit")):
            # A report served whole from cache carries the *original*
            # run's profile; re-emitting it would claim analysis time
            # this job never spent.
            self.telemetry.emit(
                "phase_times", job=record.job.job_id,
                seconds={
                    k: round(v, 4) for k, v in profile["seconds"].items()
                },
                counters=profile.get("counters", {}),
            )
        coverage = result.report.get("coverage", {})
        if coverage.get("degraded"):
            self.telemetry.emit(
                "job_degraded", job=record.job.job_id,
                degraded=coverage.get("degraded", 0),
                truncated=coverage.get("truncated", 0),
                degraded_functions=[
                    d.get("function", "")
                    for d in result.report.get("degraded_functions", [])
                ],
            )
        self.telemetry.emit(
            "job_finish", job=record.job.job_id, attempt=record.attempt,
            elapsed=round(elapsed, 4),
            max_rss_mb=round(result.resources.get("max_rss_mb", 0.0), 1),
            vulnerable_paths=len(result.report.get("vulnerable_paths", [])),
            vulnerabilities=len(result.report.get("vulnerabilities", [])),
            degraded=coverage.get("degraded", 0),
        )

    def _fail(self, record, error, elapsed, queue, results):
        result = results[record.job.job_id]
        result.attempts = record.attempt
        result.elapsed = elapsed
        result.error = str(error)
        result.error_type = getattr(
            error, "worker_error_type", "") or type(error).__name__
        kind = ("job_timeout" if isinstance(error, AnalysisTimeout)
                else "job_crash" if isinstance(error, WorkerCrash)
                else "job_stalled" if isinstance(error, WorkerStalled)
                else "job_error")
        self.telemetry.emit(
            kind, job=record.job.job_id, attempt=record.attempt,
            elapsed=round(elapsed, 4), error=result.error,
            error_type=result.error_type,
        )
        if record.attempt <= self.retries:
            delay = self.backoff_delay(record.job.job_id, record.attempt + 1)
            self.telemetry.emit(
                "job_retry", job=record.job.job_id,
                next_attempt=record.attempt + 1,
                backoff_seconds=round(delay, 4),
            )
            queue.append(
                (record.job, record.attempt + 1,
                 time.perf_counter() + delay)
            )
        else:
            result.status = "quarantined"
            self._backoff_state.pop(record.job.job_id, None)
            self.telemetry.emit(
                "job_quarantined", job=record.job.job_id,
                attempts=record.attempt, error_type=result.error_type,
            )

    def backoff_delay(self, job_id, attempt):
        """Exponential backoff with deterministic jitter.

        ``base * 2^(attempt-2) * (1 + j)`` where the jitter fraction
        ``j in [0, 1)`` is derived from ``crc32(job_id:attempt)`` —
        the same job retries on the same schedule every run, while
        distinct jobs spread out instead of thundering back together.
        The per-job schedule is memoised and pruned when the job
        reaches a terminal state (``_complete`` / quarantine), so a
        long-lived daemon's scheduler holds state only for jobs that
        are actually mid-retry.
        """
        if not self.backoff or attempt <= 1:
            return 0.0
        per_job = self._backoff_state.setdefault(job_id, {})
        delay = per_job.get(attempt)
        if delay is None:
            key = ("%s:%d" % (job_id, attempt)).encode("utf-8")
            jitter = (zlib.crc32(key) % 1000) / 1000.0
            delay = min(
                self.backoff * (2 ** (attempt - 2)) * (1.0 + jitter),
                self.backoff_cap,
            )
            per_job[attempt] = delay
        return delay
