"""One timed iteration of each workload, run in a fresh process.

``iterate(name, setup, work_dir, traced, params)`` executes one
iteration of the named workload over the inputs a set-up produced and
returns a plain dict:

* ``wall`` — seconds of the timed region;
* ``latencies`` — per job, seconds from when the job was due (the
  iteration start for batch workloads, its scheduled send time for
  the service) until its findings were published;
* ``attempted`` / ``failed`` — job outcomes;
* ``rss_mb`` — peak resident memory of the processes doing the work;
* ``layers`` — per-layer metrics read from what the program returns
  (scheduler results, summary-cache statistics, queue-row
  timestamps);
* ``spans`` — span self times and work counts (``traced`` only).

Every output is checked by :mod:`perfbench.gate` before returning.
Batch iterations start in a new process so that no interning arena
or memo warmed by an earlier iteration makes a "cold" scan warm.
"""

import json
import os
import resource
import shutil
import time
import urllib.error
import urllib.request

from perfbench import gate, spans


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Null:
    """Stands in for a recorder in untraced iterations."""

    def span(self, layer):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL = _Null()


def _files(root):
    """``{path relative to root: (size, mtime)}`` for every file."""
    found = {}
    for directory, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            stat = os.stat(path)
            found[os.path.relpath(path, root)] = (stat.st_size,
                                                  stat.st_mtime_ns)
    return found


def bytes_written(before, after, top=None):
    """Bytes in files created or rewritten between two snapshots,
    optionally only those under the top-level directory ``top``."""
    return sum(size for path, (size, mtime) in after.items()
               if (top is None or path.split(os.sep, 1)[0] == top)
               and before.get(path) != (size, mtime))


def _span_layers(recorder):
    layers = spans.layer_seconds(recorder.spans)
    counts = recorder.counts
    layers.update({
        "trace.wall_s": spans.root_seconds(recorder.spans),
        "firmware.unpack_calls": counts.get("firmware", 0),
        "cfg.functions": counts.get("cfg", 0),
        "arch.blocks_lifted": counts.get("arch", 0),
        "symexec.functions": counts.get("symexec", 0),
        "symexec.truncated": counts.get("symexec.truncated", 0),
        "alias.apply_calls": counts.get("alias", 0),
        "structure.resolved": counts.get("structure", 0),
        "detect.paths_traced": counts.get("detect", 0),
        "increment.bytes_read": counts.get("increment.index_read.bytes", 0),
    })
    return layers


def _reuse(payloads):
    hits = sum(p["cache"].get("summary_hits", 0) for p in payloads)
    misses = sum(p["cache"].get("summary_misses", 0) for p in payloads)
    return {
        "increment.summary_hits": hits,
        "increment.summary_misses": misses,
        "increment.reuse_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "increment.image_hits": sum(
            1 for p in payloads if p["cache"].get("image_findings_hit")
        ),
    }


# -- cold_scan ----------------------------------------------------------------


def cold_scan(setup, work_dir, recorder, params):
    """Unpack, load and analyse each vendor image with no caches."""
    from repro.core import DTaint, DTaintConfig
    from repro.firmware import binwalk
    from repro.loader import binary as loader

    outputs = []
    latencies = []
    with recorder.span(spans.ROOT):
        start = time.perf_counter()
        for image in setup["images"]:
            with open(image["path"], "rb") as handle:
                data = handle.read()
            tree = binwalk.extract_tree(data, name=image["path"])
            display, elf = binwalk.pick_target_binary(tree)
            binary = loader.load_elf(elf, name=display)
            detector = DTaint(
                binary, config=DTaintConfig(modules=tuple(image["modules"])),
                name=display,
            )
            detector.build_cfg()
            detector.analyze_functions()
            detector.run_dataflow()
            report = detector.detect()
            latencies.append(time.perf_counter() - start)
            outputs.append((image, report, binary))
        wall = time.perf_counter() - start
    for image, report, binary in outputs:
        gate.check_ground_truth(image, report, binary)
    return {"wall": wall, "latencies": latencies,
            "attempted": len(outputs), "failed": 0,
            "rss_mb": _peak_rss_mb(), "layers": {}}


# -- rescan -------------------------------------------------------------------


def rescan(setup, work_dir, recorder, params):
    """Rescan unchanged then patched releases against a fresh copy of
    the fleet index the old releases populated."""
    from repro import profiling
    from repro.increment import classify_functions, compute_delta
    from repro.pipeline import scheduler
    from repro.pipeline.results import canonical_report, findings_fingerprint

    index = os.path.join(work_dir, "index")
    shutil.rmtree(index, ignore_errors=True)
    shutil.copytree(setup["index"], index)
    before = _files(index)

    def scan(pair, which):
        job = scheduler.FleetJob(job_id="%s.%s" % (pair["key"], which),
                                 kind="elf", path=pair[which],
                                 modules=tuple(pair["modules"]))
        counters = profiling.PROFILER.snapshot()
        started = time.perf_counter()
        payload = scheduler.execute_job(job, cache_dir=index,
                                        use_fleet_index=True)
        seconds = time.perf_counter() - started
        payload["symexec"] = profiling.delta(
            counters, profiling.PROFILER.snapshot()
        )["counters"].get("symexec_functions", 0)
        return payload, seconds

    pairs = setup["pairs"]
    unchanged, patched, latencies = [], [], []
    with recorder.span(spans.ROOT):
        start = time.perf_counter()
        for pair in pairs:
            unchanged.append(scan(pair, "old"))
            latencies.append(time.perf_counter() - start)
        for pair in pairs:
            patched.append(scan(pair, "new"))
            latencies.append(time.perf_counter() - start)
        wall = time.perf_counter() - start
    after = _files(index)

    known = {fp["closure"] for pair in pairs
             for fp in pair["cold_fingerprints"].values()}
    for pair, (old, _s), (new, _t) in zip(pairs, unchanged, patched):
        old["sha256"] = findings_fingerprint(old["report"])
        closure = classify_functions(pair["cold_fingerprints"],
                                     new["fingerprints"])
        delta = compute_delta(
            {"findings": canonical_report(pair["cold_report"]),
             "fingerprints": pair["cold_fingerprints"]},
            {"findings": canonical_report(new["report"]),
             "fingerprints": new["fingerprints"]},
        )
        gate.check_rescan(pair, old, new, delta, closure, known)
        known |= {fp["closure"] for fp in new["fingerprints"].values()}

    payloads = [p for p, _s in unchanged + patched]
    index_bytes = bytes_written(before, after, "fleet")
    layers = _reuse(payloads)
    layers.update({
        "unchanged_s": sum(s for _p, s in unchanged),
        "patched_s": sum(s for _p, s in patched),
        "increment.bytes_written": index_bytes,
        "cache.bytes_written": bytes_written(before, after) - index_bytes,
    })
    return {"wall": wall, "latencies": latencies,
            "attempted": len(payloads), "failed": 0,
            "rss_mb": _peak_rss_mb(), "layers": layers}


# -- fleet --------------------------------------------------------------------


def fleet(setup, work_dir, recorder, params):
    """Expand every image into member jobs and run them on a fresh
    worker pool with a fresh cache directory."""
    from repro.pipeline import scheduler
    from repro.pipeline.results import findings_fingerprint
    from repro.pipeline.telemetry import Telemetry

    cache = os.path.join(work_dir, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    marks = {"job_start": {}, "job_finish": {}}

    def sink(record):
        if record["event"] == "run_start":
            marks["run_start"] = time.perf_counter()
        elif record["event"] in marks:
            marks[record["event"]][record["job"]] = time.perf_counter()

    telemetry = Telemetry(path=None)
    telemetry.add_sink(sink)
    with recorder.span(spans.ROOT):
        start = time.perf_counter()
        jobs = []
        for image in setup["images"]:
            jobs.extend(scheduler.expand_firmware_jobs(
                image["job_id"], image["path"], modules=image["modules"],
            ))
        with scheduler.FleetScheduler(jobs=params["workers"],
                                      cache_dir=cache,
                                      telemetry=telemetry) as pool:
            results = pool.run(jobs)
            forks = pool.pool.spawned_total
        wall = time.perf_counter() - start

    observed = {r.job.job_id: (r.sha256, findings_fingerprint(r.report))
                for r in results if r.ok}
    served = {r.job.job_id for r in results
              if r.ok and r.cache.get("report_cache_hit")}
    gate.check_members(setup["references"], setup["members"], observed,
                       served)
    resources = [r.resources for r in results if r.ok]
    busy = sum(r["wall_seconds"] for r in resources)
    layers = {
        "pool.queue_wait_s": sum(t - marks["run_start"]
                                 for t in marks["job_start"].values()),
        "pool.worker_busy_s": busy,
        "pool.ipc_s": sum(r.elapsed for r in results if r.ok) - busy,
        "pool.worker_load_s": sum(r["build_seconds"] for r in resources),
        "pool.worker_analysis_s": sum(
            sum(r.report.get("phase_profile", {}).get("seconds", {})
                .values()) for r in results if r.ok
        ),
        "pool.forks": forks,
        "pool.retries": sum(r.attempts - 1 for r in results),
        "cache.bytes_written": bytes_written({}, _files(cache)),
    }
    return {"wall": wall,
            "latencies": [t - start for t in marks["job_finish"].values()],
            "attempted": len(results),
            "failed": sum(1 for r in results if not r.ok),
            "rss_mb": max(r["max_rss_mb"] for r in resources),
            "layers": layers}


# -- service ------------------------------------------------------------------


def _http(url, method="GET", body=None, timeout=30.0):
    """One request on its own connection; returns (status, document)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as exc:
        return exc.code, None


TERMINAL = ("done", "failed", "dead", "cancelled")


def count_outcomes(statuses, rows):
    """(attempted, failed) over submissions: a refused (429 or other
    non-2xx) submission fails, as does an accepted job that did not
    end ``done``.  ``statuses`` holds one HTTP status per submission;
    ``rows`` maps accepted queue job ids to their final rows."""
    refused = sum(1 for status in statuses if not 200 <= status < 300)
    unfinished = sum(1 for row in rows.values() if row["state"] != "done")
    return len(statuses), refused + unfinished


def _vm_peak_mb(pid):
    """Peak RSS of a process and its direct children, from /proc."""
    pids = [pid]
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as handle:
            pids += [int(p) for p in handle.read().split()]
    except OSError:
        pass
    peak = 0.0
    for each in pids:
        try:
            with open("/proc/%d/status" % each) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


def service(setup, work_dir, recorder, params):
    """Open-loop submissions at a fixed rate to a running daemon.

    One thread, one connection at a time.  Each tick reads the queue
    rows of the jobs still in flight with one listing request; a job's
    latency runs from its due time to its published ``finished_ts``.
    """
    api = params["url"] + "/api/v1"
    submissions = setup["submissions"][params["first"]:params["last"]]
    rate, tick = params["rate"], params["tick"]
    # Every planned submission must come back right: a refused or
    # unfinished one fails the gate as never finished.
    references = {s["path"]: s["reference"] for s in submissions}
    statuses = []
    accepted = {}             # queue job id -> (due wall time, path)
    observed = {}             # queue job id -> wall time first seen ended
    spawned = _http(api + "/stats")[1]["workers_spawned"]
    late = 0.0

    def poll():
        pending = [j for j in accepted if j not in observed]
        if not pending:
            return
        limit = max(accepted) - min(pending) + 1
        with recorder.span("service.poll"):
            _status, listing = _http(api + "/jobs?limit=%d" % limit)
        now = time.time()
        for row in (listing or {}).get("jobs", ()):
            if row["state"] in TERMINAL and row["job_id"] in accepted:
                observed.setdefault(row["job_id"], now)

    with recorder.span(spans.ROOT):
        start = time.perf_counter()
        origin = time.time() + tick
        next_tick = origin
        for index, submission in enumerate(submissions):
            due = origin + index / rate
            while True:
                now = time.time()
                if now >= due:
                    break
                if now >= next_tick:
                    poll()
                    next_tick += tick
                    continue
                with recorder.span("loadgen.idle"):
                    time.sleep(min(due, next_tick) - now)
            late = max(late, time.time() - due)
            with recorder.span("service.http_submit"):
                status, job = _http(api + "/jobs", "POST", {
                    "kind": "firmware", "path": submission["path"],
                    "modules": submission["modules"],
                })
            statuses.append(status)
            if 200 <= status < 300:
                accepted[job["job_id"]] = (due, submission["path"])
        deadline = time.time() + params["drain_seconds"]
        while len(observed) < len(accepted) and time.time() < deadline:
            with recorder.span("loadgen.idle"):
                time.sleep(max(next_tick - time.time(), 0.0))
            next_tick = time.time() + tick
            poll()
        wall = time.perf_counter() - start

    _status, listing = _http(api + "/jobs?limit=%d" % (len(accepted) + 1000))
    rows = {row["job_id"]: row for row in listing["jobs"]
            if row["job_id"] in accepted}
    attempted, failed = count_outcomes(statuses, rows)
    findings = {}
    for job_id, row in rows.items():
        if row["state"] == "done":
            _status, doc = _http(api + "/jobs/%d/findings" % job_id)
            findings[accepted[job_id][1]] = doc.get("findings_sha256")
    gate.check_fingerprints(references, findings, what="submission")
    gate.require(late <= params["late_limit"], "load generator fell "
                 "behind its schedule by %.3fs" % late)

    done = [rows[j] for j in rows if rows[j]["state"] == "done"]
    stats = _http(api + "/stats")[1]
    layers = {
        "loadgen.late_max_s": late,
        "service.queue_wait_s": _mean(r["started_ts"] - r["submitted_ts"]
                                      for r in done),
        "service.run_s": _mean(r["finished_ts"] - r["started_ts"]
                               for r in done),
        "service.notify_lag_s": _mean(observed[r["job_id"]]
                                      - r["finished_ts"] for r in done),
        "pool.forks": stats["workers_spawned"] - spawned,
        "pool.retries": sum(max(r["attempts"] - 1, 0) for r in done),
    }
    return {"wall": wall,
            "latencies": [r["finished_ts"] - accepted[r["job_id"]][0]
                          for r in done],
            "attempted": attempted, "failed": failed,
            "rss_mb": _vm_peak_mb(params["daemon_pid"]),
            "layers": layers}


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


ITERATIONS = {
    "cold_scan": cold_scan,
    "rescan": rescan,
    "fleet": fleet,
    "service": service,
}


def iterate(name, setup, work_dir, traced, params):
    """Run one iteration; with ``traced`` the layer spans are on."""
    if not traced:
        result = ITERATIONS[name](setup, work_dir, NULL, params)
        result["spans"] = {}
        return result
    with spans.Recorder().install() as recorder:
        result = ITERATIONS[name](setup, work_dir, recorder, params)
    result["spans"] = _span_layers(recorder)
    return result
