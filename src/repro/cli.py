"""Command-line interface.

``dtaint scan FILE``          — analyse an ELF binary for taint-style bugs
``dtaint firmware FILE``      — extract a firmware image and analyse its
                                 main network binary
``dtaint unpack FILE``        — recursively extract a firmware image and
                                 print the extraction tree (``--json``
                                 for the manifest, ``--out DIR`` to
                                 write the embedded ELFs)
``dtaint corpus KEY``         — build a synthetic vendor image
                                 (dir645, dir890l, dgn1000, dgn2200,
                                 uniview, hikvision) and analyse it
``dtaint fleet``              — run the Figure 1 emulation study
``dtaint fleet-scan``         — analyse many images in parallel with
                                 summary/report caching, retries and
                                 JSONL telemetry (``--incremental``
                                 adds cross-binary fleet dedup,
                                 ``--baseline DIR`` a version delta)
``dtaint delta OLD NEW``      — diff two firmware versions: re-analyse
                                 only changed function closures,
                                 classify findings new/fixed/persisting
``dtaint cache gc``           — prune quarantined, stale and damaged
                                 records from a cache directory (and,
                                 with ``--results-db``, apply run/job
                                 retention to the sqlite store)
``dtaint diffcheck``          — differential sweep of the static
                                 detector against a concrete-execution
                                 oracle and the top-down baseline
``dtaint serve``              — run the persistent analysis daemon:
                                 durable sqlite job queue, warm worker
                                 pool, REST/JSON API
``dtaint client``             — talk to a running daemon (submit /
                                 status / wait / findings / events /
                                 cancel / stats / shutdown)
``dtaint results``            — migrate a JSON ``--out`` directory
                                 (the results codec's export format)
                                 into the sqlite store, or export back
"""

import argparse
import sys

from repro.core import DTaint, DTaintConfig
from repro.errors import MalformedInput, PipelineError, ReproError

# Distinct exit codes so scripts wrapping the CLI can react to the
# *kind* of failure, not just "nonzero":
EXIT_OK = 0
EXIT_FINDINGS = 1          # vulnerable paths found (--fail-on-findings)
EXIT_USAGE = 2             # bad arguments (argparse uses 2 as well)
EXIT_ANALYSIS_FAILED = 3   # malformed input / analysis error / quarantine
EXIT_DEGRADED = 4          # degradation beyond --strict / --max-degraded


def _degradation_policy(args, degraded_count):
    """Apply --strict / --max-degraded; returns an exit code or None."""
    limit = 0 if args.strict else args.max_degraded
    if limit is not None and degraded_count > limit:
        print(
            "degradation policy violated: %d degraded function(s), "
            "limit %d" % (degraded_count, limit),
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return None


def _injection(args):
    """Scoped injector from --inject specs (a no-op context without)."""
    import contextlib

    from repro.faultinject import injected

    if getattr(args, "inject", None):
        return injected(args.inject)
    return contextlib.nullcontext()


def _cmd_scan(args):
    import json

    from repro.loader.binary import load_elf

    with open(args.file, "rb") as handle:
        data = handle.read()
    try:
        with _injection(args):
            binary = load_elf(data, name=args.file)
            config = DTaintConfig(
                modules=tuple(args.modules or ()),
                deadline_seconds=args.deadline,
                alias_engine=args.alias_engine,
            )
            report = DTaint(binary, config=config, name=args.file).run()
    except MalformedInput as exc:
        print("analysis failed: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.profile:
        from repro import profiling

        print(profiling.render(report.phase_profile,
                               title="phase profile (%s)" % args.file))
    policy = _degradation_policy(args, report.degraded_count)
    if policy is not None:
        return policy
    if report.vulnerable_paths and args.fail_on_findings:
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_firmware(args):
    from repro.firmware.binwalk import extract_tree, pick_target_binary
    from repro.loader.binary import load_elf

    with open(args.file, "rb") as handle:
        blob = handle.read()
    try:
        with _injection(args):
            tree = extract_tree(blob, name=args.file)
            elves = tree.elves()
            print("container: %s, %d node(s), %d embedded ELF(s)"
                  % (tree.root.parser, len(tree.nodes()), len(elves)))
            for node_path, node in tree.walk():
                for note in node.notes:
                    print("note %s: %s" % (node_path, note),
                          file=sys.stderr)
            path, data = pick_target_binary(tree)
            print("analysing %s (%d bytes)" % (path, len(data)))
            binary = load_elf(data, name=path)
            report = DTaint(binary, name=path).run()
    except MalformedInput as exc:
        print("analysis failed: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    print(report.render())
    policy = _degradation_policy(args, report.degraded_count)
    if policy is not None:
        return policy
    return EXIT_OK


def _cmd_unpack(args):
    import json
    import os

    from repro.firmware.binwalk import extract_tree

    with open(args.file, "rb") as handle:
        blob = handle.read()
    try:
        with _injection(args):
            tree = extract_tree(blob, name=args.file)
    except MalformedInput as exc:
        print("unpack failed: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    if args.json:
        print(json.dumps(tree.manifest(), indent=2, sort_keys=True))
    else:
        print(tree.render())
        elves = tree.elves()
        print("%d node(s), %d embedded ELF(s), max depth %d"
              % (len(tree.nodes()), len(elves), tree.max_depth))
        for member, display, data in elves:
            print("  elf %s (%d bytes) member=%s"
                  % (display, len(data), member))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        manifest_path = os.path.join(args.out, "manifest.json")
        with open(manifest_path, "w") as handle:
            json.dump(tree.manifest(), handle, indent=2, sort_keys=True)
        for member, display, data in tree.elves():
            safe = display.strip("/").replace("/", "_") or "elf"
            out_path = os.path.join(args.out, safe)
            with open(out_path, "wb") as handle:
                handle.write(data)
        print("extracted to %s (manifest.json + %d ELF(s))"
              % (args.out, len(tree.elves())))
    return EXIT_OK


def _cmd_corpus(args):
    from repro.corpus.profiles import (
        PROFILES,
        analyzed_module_prefixes,
        build_firmware,
    )

    if args.key not in PROFILES:
        print("unknown profile %r; choices: %s"
              % (args.key, ", ".join(sorted(PROFILES))), file=sys.stderr)
        return 2
    built = build_firmware(args.key, scale=args.scale)
    print("built %s: %.0f KB, %d functions"
          % (built.name, built.size_kb, len(built.binary.local_functions)))
    config = DTaintConfig(modules=analyzed_module_prefixes(args.key))
    report = DTaint(built.binary, config=config, name=built.name).run()
    print(report.render())
    expected = len(built.expected_vulnerabilities())
    print("ground truth: %d planted vulnerable patterns" % expected)
    return 0


def _cmd_fleet(args):
    from repro.eval.figures import figure1_emulation, render_figure1

    data = figure1_emulation(size=args.size)
    print(render_figure1(data))
    print("failure breakdown: %s" % data["failures"])
    return 0


def _cmd_fleet_scan(args):
    import os
    import time

    from repro.corpus.profiles import PROFILE_ORDER, PROFILES
    from repro.pipeline import (
        FleetJob,
        FleetScheduler,
        Telemetry,
        image_document,
        render_fleet_summary,
        rollup_document,
        write_run_dir,
    )
    from repro.pipeline.results import DELTA_JSON

    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    images = list(getattr(args, "image", None) or ())
    # Explicit --image runs scan only those images unless profiles are
    # also named; a bare fleet-scan still means the whole profile fleet.
    if images and not args.profiles:
        keys = []
    else:
        keys = args.profiles or list(PROFILE_ORDER)
    unknown = [k for k in keys if k not in PROFILES]
    if unknown:
        print("unknown profile(s) %s; choices: %s"
              % (", ".join(unknown), ", ".join(sorted(PROFILES))),
              file=sys.stderr)
        return 2
    if args.server:
        return _fleet_scan_via_server(args, keys, images)
    try:
        from repro.faultinject import FaultSpec

        for spec in args.inject or ():
            FaultSpec.parse(spec)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        shards = _parse_shards(getattr(args, "shards", "0"))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    jobs = []
    for key in keys:
        fault = "crash" if key == args.inject_crash else ""
        jobs.append(FleetJob(
            job_id=key, kind="profile", key=key, scale=args.scale,
            fault=fault, fault_attempts=10 ** 6 if fault else 0,
            faults=tuple(args.inject or ()),
            shards=shards,
            alias_engine=args.alias_engine,
        ))
    if images:
        from repro.pipeline.scheduler import expand_firmware_jobs

        # Job ids become results file names (images/<id>.json), so
        # they must not carry path separators; basenames are
        # disambiguated with a counter when two images share one.
        id_counts = {}
        for image_path in images:
            base = os.path.basename(image_path) or "image"
            seen = id_counts.get(base, 0)
            id_counts[base] = seen + 1
            image_id = base if not seen else "%s~%d" % (base, seen)
            try:
                member_jobs = expand_firmware_jobs(
                    job_id=image_id, path=image_path, shards=shards,
                    alias_engine=args.alias_engine,
                )
            except OSError as exc:
                print("cannot read image %s: %s" % (image_path, exc),
                      file=sys.stderr)
                return EXIT_USAGE
            except ReproError as exc:
                print("cannot unpack image %s: %s" % (image_path, exc),
                      file=sys.stderr)
                return EXIT_ANALYSIS_FAILED
            print("image %s: %d embedded ELF job(s)"
                  % (image_path, len(member_jobs)))
            jobs.extend(member_jobs)
    if not jobs:
        print("nothing to scan (no profiles, no --image)", file=sys.stderr)
        return EXIT_USAGE

    if args.baseline and not args.out:
        print("--baseline requires --out (the delta report is written "
              "there)", file=sys.stderr)
        return EXIT_USAGE
    incremental = args.incremental or bool(args.baseline)
    cache_dir = None if args.no_cache else args.cache_dir
    if incremental and cache_dir is None:
        print("--incremental/--baseline need a cache dir (conflicts "
              "with --no-cache)", file=sys.stderr)
        return EXIT_USAGE
    baseline_docs = None
    if args.baseline:
        # Read before scanning: an unusable baseline is a usage error.
        try:
            baseline_docs = _baseline_documents(args.baseline)
        except ReproError as exc:
            print("bad --baseline: %s" % exc, file=sys.stderr)
            return EXIT_USAGE

    telemetry_path = args.telemetry
    if telemetry_path is None and args.out:
        telemetry_path = os.path.join(args.out, "telemetry.jsonl")
    if telemetry_path:
        os.makedirs(os.path.dirname(telemetry_path) or ".", exist_ok=True)
    telemetry = Telemetry(path=telemetry_path)
    scheduler = FleetScheduler(
        jobs=args.jobs,
        timeout=args.timeout or None,
        retries=args.retries,
        cache_dir=cache_dir,
        use_fleet_index=incremental,
        telemetry=telemetry,
    )
    start = time.perf_counter()
    with scheduler:
        results = scheduler.run(jobs)
    wall = time.perf_counter() - start
    telemetry.close()

    # One set of documents feeds both --out and --results-db.
    rollup = rollup_document(results, wall)
    images = [image_document(result) for result in results]
    documents, new_findings = {}, 0
    if baseline_docs is not None:
        documents[DELTA_JSON], new_findings = _fleet_baseline_delta(
            args.baseline, results, baseline_docs
        )
    if args.out:
        written = write_run_dir(args.out, rollup, images, documents)
        print("results: %s" % written[-1])
    if args.results_db:
        from repro.service import ResultsDB

        with ResultsDB(args.results_db) as db:
            run_id, _images = db.import_run(
                rollup, images, documents, kind="fleet",
                source=args.out or "",
            )
        print("results db: %s (run %d)" % (args.results_db, run_id))
    if telemetry_path:
        print("telemetry: %s" % telemetry_path)
    print(render_fleet_summary(results, wall))
    if not all(r.ok for r in results):
        return EXIT_ANALYSIS_FAILED
    if new_findings and args.fail_on_findings:
        return EXIT_FINDINGS
    degraded = sum(
        (r.report or {}).get("coverage", {}).get("degraded", 0)
        for r in results
    )
    policy = _degradation_policy(args, degraded)
    if policy is not None:
        return policy
    return EXIT_OK


def _cmd_delta(args):
    import json

    from repro.increment import render_delta, run_delta

    config = DTaintConfig(modules=tuple(args.modules or ()))
    try:
        delta_doc, old_image, new_image = run_delta(
            args.old, args.new, config=config, cache_dir=args.cache_dir,
        )
    except (MalformedInput, OSError) as exc:
        print("delta failed: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    if args.json:
        print(json.dumps(delta_doc, indent=2, sort_keys=True))
    else:
        print(render_delta(delta_doc))
        for image in (old_image, new_image):
            stats = image.get("cache") or {}
            if stats:
                print("  cache %s: %d/%d summary hits, reuse %.0f%%" % (
                    image["name"],
                    stats.get("summary_hits", 0),
                    stats.get("summary_hits", 0)
                    + stats.get("summary_misses", 0),
                    100.0 * stats.get("reuse_ratio", 0.0),
                ))
    if args.out:
        from repro.pipeline.results import DELTA_JSON, write_run_dir

        written = write_run_dir(args.out, documents={DELTA_JSON: delta_doc})
        print("delta report: %s" % written[-1])
    if args.fail_on_new and delta_doc["counts"]["new"]:
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_cache_gc(args):
    from repro.pipeline.cache import collect_garbage

    stats = collect_garbage(args.cache_dir, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        "cache gc (%s): %s %d corrupt, %d tmp, %d stale or unreadable "
        "records; %d bytes freed"
        % (args.cache_dir, verb, stats["corrupt_removed"],
           stats["tmp_removed"], stats["files_removed"],
           stats["bytes_freed"])
    )
    if args.results_db:
        from repro.service import ResultsDB

        with ResultsDB(args.results_db) as db:
            db_stats = db.gc(
                retain_runs=args.retain_runs,
                retain_jobs=args.retain_jobs,
                dry_run=args.dry_run,
            )
        print(
            "results gc (%s): %s %d runs (%d images), %d queue jobs "
            "(%d events)"
            % (args.results_db, verb, db_stats["runs_removed"],
               db_stats["images_removed"], db_stats["jobs_removed"],
               db_stats["events_removed"])
        )
    return EXIT_OK


def _cmd_serve(args):
    import signal
    import threading

    from repro.service import AnalysisDaemon, serve

    rlimits = {}
    if args.max_memory_mb:
        rlimits["as_mb"] = args.max_memory_mb
    if args.max_cpu_seconds:
        rlimits["cpu_seconds"] = args.max_cpu_seconds
    if args.max_file_mb:
        rlimits["fsize_mb"] = args.max_file_mb
    daemon = AnalysisDaemon(
        db_path=args.db,
        cache_dir=None if args.no_cache else args.cache_dir,
        workers=args.workers,
        timeout=args.timeout or None,
        retries=args.retries,
        incremental=args.incremental,
        telemetry_path=args.telemetry,
        scale=args.scale,
        rlimits=rlimits or None,
        heartbeat=args.heartbeat,
        max_queue_depth=args.max_queue_depth,
        max_attempts=args.max_attempts,
        crash_threshold=args.crash_threshold,
        shards=_parse_shards(getattr(args, "shards", "0")),
        alias_engine=args.alias_engine,
    )
    server = serve(
        daemon, host=args.host, port=args.port,
        allow_shutdown=args.allow_shutdown, verbose=args.verbose,
    )
    host, port = server.server_address[:2]

    # SIGTERM / SIGINT drain gracefully: stop claiming immediately,
    # let the in-flight jobs publish, then exit.  The handler only
    # trips the flag — the actual teardown runs in the main thread's
    # finally block, never inside signal context.
    def _drain(signum, frame):
        daemon.draining = True
        print("\nsignal %d: draining (in-flight jobs complete, "
              "pending jobs stay durable)" % signum, flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)

    resumed = daemon.start()
    if resumed:
        print("resumed %d job(s) stranded by a previous daemon" % resumed)
    print("dtaint daemon listening on http://%s:%d (db: %s, %d workers)"
          % (host, port, args.db, args.workers), flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        threading.Thread(target=server.shutdown, daemon=True).start()
        server.server_close()
        daemon.stop(drain_timeout=args.drain_timeout)
    print("daemon stopped")
    return EXIT_OK


def _cmd_client(args):
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.http_timeout)
    try:
        if args.client_command == "submit":
            job = client.submit(
                kind="elf" if args.elf else "profile",
                key="" if args.elf else args.target,
                path=args.target if args.elf else "",
                scale=args.scale,
                modules=args.modules or (),
                priority=args.priority,
                alias_engine=getattr(args, "alias_engine", ""),
            )
            print("job %d: %s (%s)" % (
                job["job_id"], job["state"], job["outcome"]))
            if args.wait:
                job = client.wait(job["job_id"], timeout=args.wait_timeout)
                print("job %d finished: %s" % (job["job_id"], job["state"]))
                if job["state"] != "done":
                    return EXIT_ANALYSIS_FAILED
            return EXIT_OK
        if args.client_command == "status":
            print(json.dumps(client.job(args.job_id), indent=2,
                             sort_keys=True))
            return EXIT_OK
        if args.client_command == "wait":
            job = client.wait(args.job_id, timeout=args.wait_timeout)
            print("job %d: %s" % (args.job_id, job["state"]))
            return EXIT_OK if job["state"] == "done" \
                else EXIT_ANALYSIS_FAILED
        if args.client_command == "findings":
            print(json.dumps(client.findings(args.job_id), indent=2,
                             sort_keys=True))
            return EXIT_OK
        if args.client_command == "events":
            for event in client.events(args.job_id, after=args.after):
                print(json.dumps(event, sort_keys=True))
            return EXIT_OK
        if args.client_command == "cancel":
            result = client.cancel(args.job_id)
            print("job %d: %s" % (args.job_id, result["disposition"]))
            return EXIT_OK
        if args.client_command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return EXIT_OK
        if args.client_command == "readyz":
            probe = client.readyz()
            print(json.dumps(probe, indent=2, sort_keys=True))
            return EXIT_OK if probe.get("ready") else EXIT_ANALYSIS_FAILED
        if args.client_command == "deadletter":
            print(json.dumps(client.dead_letter(), indent=2,
                             sort_keys=True))
            return EXIT_OK
        if args.client_command == "retry":
            result = client.retry_dead(args.job_id)
            print("job %d: %s" % (args.job_id, result["outcome"]))
            return EXIT_OK
        if args.client_command == "quarantine":
            print(json.dumps(client.quarantine(), indent=2,
                             sort_keys=True))
            return EXIT_OK
        if args.client_command == "quarantine-reset":
            result = client.reset_quarantine(args.dedup_key)
            print("breaker cleared for %s (%d row)" % (
                args.dedup_key[:16], result["removed"]))
            return EXIT_OK
        if args.client_command == "shutdown":
            client.shutdown()
            print("daemon stopping")
            return EXIT_OK
    except ServiceError as exc:
        print("client error: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    print("unknown client command %r" % args.client_command,
          file=sys.stderr)
    return EXIT_USAGE


def _parse_shards(value):
    """``--shards auto|N`` -> the FleetJob shard count (auto = -1)."""
    from repro.pipeline.shards import AUTO_SHARDS

    text = str(value or "0").strip().lower()
    if text == "auto":
        return AUTO_SHARDS
    try:
        count = int(text)
    except ValueError:
        raise ValueError("--shards takes 'auto' or an integer, not %r"
                         % (value,))
    if count < -1:
        raise ValueError("--shards must be 'auto', -1, or >= 0")
    return count


def _fleet_scan_via_server(args, keys, images=()):
    """fleet-scan --server: submit the fleet over HTTP and wait."""
    from repro.service import ServiceClient, ServiceError

    try:
        shards = _parse_shards(getattr(args, "shards", "0"))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    client = ServiceClient(args.server)
    try:
        client.healthz()
        submitted = []
        for key in keys:
            job = client.submit(kind="profile", key=key, scale=args.scale,
                                shards=shards,
                                alias_engine=args.alias_engine)
            submitted.append((key, job["job_id"]))
            print("submitted %s as job %d (%s)"
                  % (key, job["job_id"], job["outcome"]))
        for image_path in images:
            try:
                responses = client.submit_firmware(
                    image_path, shards=shards,
                    alias_engine=args.alias_engine,
                )
            except (OSError, ReproError) as exc:
                print("cannot submit image %s: %s" % (image_path, exc),
                      file=sys.stderr)
                return EXIT_ANALYSIS_FAILED
            for index, job in enumerate(responses):
                label = "%s#%d" % (image_path, index)
                submitted.append((label, job["job_id"]))
                print("submitted %s as job %d (%s)"
                      % (label, job["job_id"], job["outcome"]))
        failed = 0
        for key, job_id in submitted:
            job = client.wait(job_id, timeout=args.timeout or 600.0)
            findings = client.findings(job_id)
            sha = findings.get("findings_sha256", "")
            print("  %s: %s%s" % (
                key, job["state"], (" findings %s" % sha) if sha else ""))
            if job["state"] != "done":
                failed += 1
    except ServiceError as exc:
        print("fleet-scan --server failed: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    return EXIT_ANALYSIS_FAILED if failed else EXIT_OK


def _cmd_results_migrate(args):
    from repro.service import ResultsDB, migrate_output_dir

    try:
        with ResultsDB(args.db) as db:
            run_id, counts = migrate_output_dir(db, args.out_dir)
    except ReproError as exc:
        print("migrate failed: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    print("migrated %s -> %s as run %d (%d images, %d documents, "
          "rollup: %s)"
          % (args.out_dir, args.db, run_id, counts["images"],
             counts["documents"], "yes" if counts["rollup"] else "no"))
    return EXIT_OK


def _cmd_results_export(args):
    from repro.service import ResultsDB, export_run_dir

    try:
        with ResultsDB(args.db) as db:
            run_id = args.run if args.run is not None else db.latest_run_id()
            if run_id is None:
                print("no runs in %s" % args.db, file=sys.stderr)
                return EXIT_ANALYSIS_FAILED
            written = export_run_dir(db, run_id, args.out_dir)
    except ReproError as exc:
        print("export failed: %s" % exc, file=sys.stderr)
        return EXIT_ANALYSIS_FAILED
    print("exported run %d -> %s (%d files)"
          % (run_id, args.out_dir, len(written)))
    return EXIT_OK


def _baseline_documents(baseline):
    """``{job_id: per-image document}`` of the run ``--baseline`` names.

    A results database file, or a directory holding ``dtaint.sqlite``,
    yields the store's latest run; any other path is read as a JSON
    ``--out`` directory.  Raises :class:`PipelineError` when the path
    holds no usable per-image documents.
    """
    import os

    from repro.pipeline import read_run_dir
    from repro.service import ResultsDB, default_db_path

    db_path = baseline
    if os.path.isdir(baseline):
        db_path = default_db_path(baseline)
    if os.path.isfile(db_path):
        # ResultsDB quarantines (renames) a file that is not sqlite.
        with open(db_path, "rb") as handle:
            if handle.read(16) != b"SQLite format 3\x00":
                raise PipelineError("not a results database: %s" % db_path)
        with ResultsDB(db_path) as db:
            documents = db.image_documents(db.latest_run_id())
    else:
        _rollup, documents, _documents = read_run_dir(baseline)
    if not documents:
        raise PipelineError("no per-image results in %s" % baseline)
    return documents


def _fleet_baseline_delta(baseline, results, baseline_docs):
    """--baseline: diff and print; returns ``(delta doc, new count)``."""
    from repro.increment import classify_findings, classify_functions

    deltas = {}
    for result in results:
        if not result.ok or result.report is None:
            continue
        old_doc = baseline_docs.get(result.job.job_id)
        if old_doc is None:
            deltas[result.job.job_id] = {"status": "no_baseline"}
            continue
        new_findings = {
            section: result.report.get(section, [])
            for section in ("vulnerabilities", "vulnerable_paths")
        }
        findings = classify_findings(
            old_doc.get("findings", {}), new_findings
        )
        functions = classify_functions(
            old_doc.get("fingerprints", {}) or {},
            result.fingerprints or {},
        )
        deltas[result.job.job_id] = {
            "status": "ok",
            "functions": {
                kind: len(names) for kind, names in functions.items()
            },
            "changed": sorted(
                functions["body_changed"] + functions["callee_changed"]
                + functions["added"] + functions["removed"]
            ),
            "counts": {
                kind: len(items) for kind, items in findings.items()
            },
            "new": findings["new"],
            "fixed": findings["fixed"],
        }
    print("baseline delta vs %s:" % baseline)
    for job_id in sorted(deltas):
        delta = deltas[job_id]
        if delta.get("status") != "ok":
            print("  %s: %s" % (job_id, delta.get("status")))
            continue
        counts = delta["counts"]
        print("  %s: %d new, %d fixed, %d persisting (%d closures changed)"
              % (job_id, counts["new"], counts["fixed"],
                 counts["persisting"], len(delta["changed"])))
    return {"baseline": baseline, "images": deltas}, sum(
        d["counts"]["new"] for d in deltas.values()
        if d.get("status") == "ok"
    )


def _cmd_diffcheck(args):
    import json
    import os

    from repro.diffcheck import ARCHES, DiffCheck
    from repro.pipeline import Telemetry, write_run_dir
    from repro.pipeline.results import DIFFCHECK_JSON

    if args.count < 1:
        print("--count must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    telemetry_path = args.telemetry
    if telemetry_path is None and args.out:
        telemetry_path = os.path.join(args.out, "telemetry.jsonl")
    if telemetry_path:
        os.makedirs(os.path.dirname(telemetry_path) or ".", exist_ok=True)
    telemetry = Telemetry(path=telemetry_path)
    harness = DiffCheck(
        seed=args.seed,
        count=args.count,
        arches=tuple(args.arch) if args.arch else ARCHES,
        run_baseline=not args.no_baseline,
        shrink=not args.no_shrink,
        telemetry=telemetry,
        alias_engine=args.alias_engine,
    )
    report = harness.run()
    telemetry.close()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.out:
        written = write_run_dir(
            args.out, documents={DIFFCHECK_JSON: report.to_dict()}
        )
        print("triage report: %s" % written[-1])
    if telemetry_path:
        print("telemetry: %s" % telemetry_path)
    if not report.ok:
        return EXIT_FINDINGS
    if args.fail_on_any_divergence and report.divergences:
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_alias_compare(args):
    import json
    import os

    from repro.alias.compare import compare_engines, render_comparison

    if args.count < 1:
        print("--count must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    document = compare_engines(
        seed=args.seed,
        count=args.count,
        arches=tuple(args.arch) if args.arch else None,
        scale=args.scale,
        vendor=not args.no_vendor,
        log=None if args.json else print,
    )
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_comparison(document))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "alias_compare.json")
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("comparison: %s" % path)
    # The default engine drifting from the golden corpus is the one
    # divergence this command treats as a failure (CI gates on it).
    if document["gates"].get("dtaint_golden_identical") is False:
        print("dtaint engine diverged from the golden corpus: %s"
              % ", ".join(
                  document["engines"]["dtaint"]["vendor"]
                  ["golden_divergences"]),
              file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dtaint",
        description="DTaint: taint-style vulnerability detection in "
                    "embedded firmware binaries (DSN'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_alias_engine_option(command, default="dtaint"):
        command.add_argument(
            "--alias-engine", choices=("dtaint", "sse"), default=default,
            help="alias analysis engine: the paper's Algorithm-1 "
                 "heuristics (dtaint, default) or sparse "
                 "symbolic-execution aliasing (sse); part of the cache "
                 "identity")

    def add_degradation_options(command):
        command.add_argument(
            "--strict", action="store_true",
            help="exit %d if any function degraded" % EXIT_DEGRADED)
        command.add_argument(
            "--max-degraded", type=int, default=None, metavar="N",
            help="exit %d if more than N functions degraded"
                 % EXIT_DEGRADED)
        command.add_argument(
            "--inject", action="append", metavar="SPEC",
            help="deterministic fault injection spec "
                 "(fault@site:target, repeatable; chaos testing)")

    scan = sub.add_parser("scan", help="analyse an ELF binary")
    scan.add_argument("file")
    scan.add_argument("--modules", nargs="*",
                      help="function-name prefixes to analyse")
    scan.add_argument("--fail-on-findings", action="store_true")
    scan.add_argument("--json", action="store_true",
                      help="emit the report as JSON (same shape the "
                           "fleet pipeline stores)")
    scan.add_argument("--deadline", type=float, default=0.0,
                      help="per-function symexec soft deadline in "
                           "seconds; overruns truncate the summary "
                           "instead of failing (0 = unlimited)")
    scan.add_argument("--profile", action="store_true",
                      help="print the per-phase time/counter breakdown "
                           "(lift/symexec/alias/similarity/detect)")
    add_alias_engine_option(scan)
    add_degradation_options(scan)
    scan.set_defaults(func=_cmd_scan)

    firmware = sub.add_parser("firmware", help="extract + analyse firmware")
    firmware.add_argument("file")
    add_degradation_options(firmware)
    firmware.set_defaults(func=_cmd_firmware)

    unpack = sub.add_parser(
        "unpack",
        help="recursively extract a firmware image and print the tree",
    )
    unpack.add_argument("file")
    unpack.add_argument("--json", action="store_true",
                        help="print the canonical manifest instead of "
                             "the ASCII tree")
    unpack.add_argument("--out", metavar="DIR",
                        help="write manifest.json and every embedded "
                             "ELF into DIR")
    unpack.add_argument("--inject", action="append", metavar="SPEC",
                        help="fault spec(s) scoped to the extraction")
    unpack.set_defaults(func=_cmd_unpack)

    corpus = sub.add_parser("corpus", help="build + analyse a vendor profile")
    corpus.add_argument("key")
    corpus.add_argument("--scale", type=float, default=0.25)
    corpus.set_defaults(func=_cmd_corpus)

    fleet = sub.add_parser("fleet", help="Figure 1 emulation study")
    fleet.add_argument("--size", type=int, default=6529)
    fleet.set_defaults(func=_cmd_fleet)

    fleet_scan = sub.add_parser(
        "fleet-scan",
        help="analyse many vendor images in parallel, with caching",
    )
    fleet_scan.add_argument("profiles", nargs="*",
                            help="profile keys (default: all six, unless "
                                 "--image is given)")
    fleet_scan.add_argument("--image", action="append", metavar="FILE",
                            help="firmware image to unpack recursively "
                                 "and scan: one job per embedded ELF "
                                 "(repeatable)")
    fleet_scan.add_argument(
        "--shards", default="0", metavar="auto|N",
        help="split each image into cost-balanced shards scheduled "
             "across the worker pool ('auto' sizes from --jobs; 0 "
             "disables; findings are byte-identical either way)")
    fleet_scan.add_argument("--jobs", type=int, default=4,
                            help="concurrent worker processes")
    fleet_scan.add_argument("--scale", type=float, default=0.25)
    fleet_scan.add_argument("--cache-dir", default=".dtaint-cache",
                            help="content-addressed summary/report store")
    fleet_scan.add_argument("--no-cache", action="store_true",
                            help="disable all caching for this run")
    fleet_scan.add_argument("--incremental", action="store_true",
                            help="keep summaries in the content-addressed "
                                 "fleet index instead of per-binary "
                                 "bundles: summaries and whole-image "
                                 "findings are reused across binaries by "
                                 "position-independent fingerprint")
    fleet_scan.add_argument("--baseline", metavar="DIR",
                            help="previous --out directory or results "
                                 "database to diff against; writes "
                                 "<out>/delta.json with new/fixed/"
                                 "persisting findings per image "
                                 "(implies --incremental)")
    fleet_scan.add_argument("--fail-on-findings", action="store_true",
                            help="with --baseline: exit %d if any image "
                                 "gained a new finding" % EXIT_FINDINGS)
    fleet_scan.add_argument("--timeout", type=float, default=0.0,
                            help="per-job wall-clock budget in seconds "
                                 "(0 = unlimited)")
    fleet_scan.add_argument("--retries", type=int, default=1,
                            help="extra attempts after a crash/timeout")
    fleet_scan.add_argument("--out",
                            help="directory for per-image findings + "
                                 "fleet.json rollup")
    fleet_scan.add_argument("--results-db", metavar="PATH",
                            help="also record the run into a sqlite "
                                 "results store (usable later as "
                                 "--baseline)")
    fleet_scan.add_argument("--server", metavar="URL",
                            help="submit to a running 'dtaint serve' "
                                 "daemon over HTTP instead of running "
                                 "in-process")
    fleet_scan.add_argument("--telemetry",
                            help="JSONL event log path (default: "
                                 "<out>/telemetry.jsonl when --out is set)")
    fleet_scan.add_argument("--inject-crash", metavar="KEY",
                            help="chaos switch: make this job crash every "
                                 "attempt (demonstrates quarantine)")
    add_alias_engine_option(fleet_scan)
    add_degradation_options(fleet_scan)
    fleet_scan.set_defaults(func=_cmd_fleet_scan)

    delta = sub.add_parser(
        "delta",
        help="diff two firmware versions: classify functions by "
             "fingerprint and findings as new/fixed/persisting",
    )
    delta.add_argument("old", help="old-version ELF")
    delta.add_argument("new", help="new-version ELF")
    delta.add_argument("--modules", nargs="*",
                       help="function-name prefixes to analyse")
    delta.add_argument("--cache-dir",
                       help="fleet cache: unchanged closures reuse their "
                            "summaries instead of re-running symexec")
    delta.add_argument("--json", action="store_true",
                       help="emit the delta document as JSON")
    delta.add_argument("--out",
                       help="directory for delta.json")
    delta.add_argument("--fail-on-new", action="store_true",
                       help="exit %d if the new version introduces "
                            "findings" % EXIT_FINDINGS)
    delta.set_defaults(func=_cmd_delta)

    cache = sub.add_parser(
        "cache", help="cache maintenance (gc)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_sub.add_parser(
        "gc",
        help="prune .corrupt quarantine files, orphaned tmp files and "
             "cache records that are stale or do not read",
    )
    cache_gc.add_argument("--cache-dir", default=".dtaint-cache")
    cache_gc.add_argument("--results-db", metavar="PATH",
                          help="sqlite results store to apply retention "
                               "to as well")
    cache_gc.add_argument("--retain-runs", type=int, default=None,
                          metavar="N",
                          help="keep only the newest N runs in the "
                               "results store")
    cache_gc.add_argument("--retain-jobs", type=int, default=None,
                          metavar="N",
                          help="keep only the newest N finished queue "
                               "jobs (and their event feeds)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed, touch "
                               "nothing")
    cache_gc.set_defaults(func=_cmd_cache_gc)

    serve = sub.add_parser(
        "serve",
        help="run the persistent analysis daemon: durable job queue, "
             "warm worker pool, REST/JSON API",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8649,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--db", default="dtaint.sqlite",
                       help="sqlite results + queue store")
    serve.add_argument("--workers", type=int, default=2,
                       help="warm analysis worker processes")
    serve.add_argument("--cache-dir", default=".dtaint-cache",
                       help="content-addressed summary/report store")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the summary/report caches")
    serve.add_argument("--incremental", action="store_true",
                       help="layer the cross-binary fleet index over "
                            "the per-binary caches")
    serve.add_argument("--timeout", type=float, default=0.0,
                       help="per-job wall-clock budget in seconds "
                            "(0 = unlimited)")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra attempts after a crash/timeout")
    serve.add_argument("--scale", type=float, default=0.25,
                       help="default profile build scale for "
                            "submissions that omit one")
    serve.add_argument("--telemetry",
                       help="also append the event stream to this "
                            "JSONL file")
    serve.add_argument("--shards", default="0", metavar="auto|N",
                       help="default shard count for submissions that "
                            "omit one ('auto' sizes from --workers; "
                            "0 = unsharded)")
    serve.add_argument("--max-memory-mb", type=int, default=0,
                       help="per-worker RLIMIT_AS in MiB; exhaustion "
                            "degrades to a typed ResourceExhausted "
                            "(0 = ungoverned)")
    serve.add_argument("--max-cpu-seconds", type=int, default=0,
                       help="per-worker RLIMIT_CPU soft limit; a spent "
                            "budget recycles the worker (0 = off)")
    serve.add_argument("--max-file-mb", type=int, default=0,
                       help="per-worker RLIMIT_FSIZE in MiB (0 = off)")
    serve.add_argument("--heartbeat", type=float, default=0.0,
                       help="worker heartbeat interval in seconds; "
                            "silent workers are reaped SIGTERM→SIGKILL "
                            "(0 = off)")
    serve.add_argument("--max-queue-depth", type=int, default=0,
                       help="pending+running backlog beyond which "
                            "submissions get HTTP 429 + Retry-After "
                            "(0 = unbounded)")
    serve.add_argument("--max-attempts", type=int, default=5,
                       help="cross-restart retry budget before a job "
                            "dead-letters")
    serve.add_argument("--crash-threshold", type=int, default=3,
                       help="process-killing failures per image before "
                            "its fingerprint is quarantined")
    serve.add_argument("--drain-timeout", type=float, default=60.0,
                       help="seconds to wait for the in-flight jobs "
                            "on SIGTERM/SIGINT")
    serve.add_argument("--allow-shutdown", action="store_true",
                       help="enable POST /api/v1/shutdown (CI smoke)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each request to stderr")
    add_alias_engine_option(serve)
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="talk to a running 'dtaint serve' daemon",
    )
    client.add_argument("--url", default="http://127.0.0.1:8649",
                        help="daemon base URL")
    client.add_argument("--http-timeout", type=float, default=30.0)
    client_sub = client.add_subparsers(dest="client_command",
                                       required=True)
    c_submit = client_sub.add_parser("submit", help="submit a job")
    c_submit.add_argument("target",
                          help="profile key, or ELF path with --elf")
    c_submit.add_argument("--elf", action="store_true",
                          help="treat TARGET as an ELF path on the "
                               "daemon's host")
    c_submit.add_argument("--scale", type=float, default=None)
    c_submit.add_argument("--modules", nargs="*",
                          help="function-name prefixes to analyse")
    c_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs sooner")
    c_submit.add_argument("--wait", action="store_true",
                          help="block until the job finishes")
    c_submit.add_argument("--wait-timeout", type=float, default=600.0)
    c_submit.add_argument("--alias-engine", choices=("dtaint", "sse"),
                          default="",
                          help="alias engine for this submission "
                               "(default: the daemon's)")
    for name, extra in (("status", "show a job's queue row"),
                        ("wait", "block until a job finishes"),
                        ("findings", "fetch canonical findings"),
                        ("events", "print the job's progress stream"),
                        ("cancel", "cancel a job")):
        c = client_sub.add_parser(name, help=extra)
        c.add_argument("job_id", type=int)
        if name == "wait":
            c.add_argument("--wait-timeout", type=float, default=600.0)
        if name == "events":
            c.add_argument("--after", type=int, default=0,
                           help="resume after this event_id")
    client_sub.add_parser("stats", help="queue + store statistics")
    client_sub.add_parser("readyz", help="readiness probe (exit 1 "
                                         "while draining)")
    client_sub.add_parser("deadletter",
                          help="list dead-lettered jobs + breaker info")
    c_retry = client_sub.add_parser(
        "retry", help="requeue a dead-lettered job with a fresh budget"
    )
    c_retry.add_argument("job_id", type=int)
    client_sub.add_parser("quarantine",
                          help="show the per-image circuit breaker")
    c_qreset = client_sub.add_parser(
        "quarantine-reset", help="clear one image's circuit breaker"
    )
    c_qreset.add_argument("dedup_key")
    client_sub.add_parser("shutdown", help="stop the daemon (needs "
                                           "--allow-shutdown)")
    client.set_defaults(func=_cmd_client)

    results = sub.add_parser(
        "results",
        help="results-store maintenance (migrate, export)",
    )
    results_sub = results.add_subparsers(dest="results_command",
                                         required=True)
    r_migrate = results_sub.add_parser(
        "migrate",
        help="import a JSON --out directory into the sqlite store "
             "(lossless)",
    )
    r_migrate.add_argument("out_dir", help="previous --out directory")
    r_migrate.add_argument("--db", default="dtaint.sqlite")
    r_migrate.set_defaults(func=_cmd_results_migrate)
    r_export = results_sub.add_parser(
        "export",
        help="write a stored run back out as the JSON directory layout",
    )
    r_export.add_argument("out_dir", help="destination directory")
    r_export.add_argument("--db", default="dtaint.sqlite")
    r_export.add_argument("--run", type=int, default=None,
                          help="run id (default: latest)")
    r_export.set_defaults(func=_cmd_results_export)

    diffcheck = sub.add_parser(
        "diffcheck",
        help="differential sweep: static detector vs concrete-execution "
             "oracle vs top-down baseline on seeded labeled programs",
    )
    diffcheck.add_argument("--seed", type=int, default=0,
                           help="sweep seed (same seed, same programs)")
    diffcheck.add_argument("--count", type=int, default=20,
                           help="number of generated programs")
    diffcheck.add_argument("--arch", action="append",
                           choices=["arm", "mips"],
                           help="restrict generation to an architecture "
                                "(repeatable; default both)")
    diffcheck.add_argument("--no-baseline", action="store_true",
                           help="skip the top-down baseline judge")
    diffcheck.add_argument("--no-shrink", action="store_true",
                           help="attach full programs as reproducers "
                                "instead of shrinking them")
    diffcheck.add_argument("--json", action="store_true",
                           help="emit the triage report as JSON")
    diffcheck.add_argument("--out",
                           help="directory for diffcheck.json")
    diffcheck.add_argument("--telemetry",
                           help="JSONL event log path (default: "
                                "<out>/telemetry.jsonl when --out is set)")
    diffcheck.add_argument("--fail-on-any-divergence", action="store_true",
                           help="exit %d on any divergence, not just "
                                "unexplained static false negatives"
                                % EXIT_FINDINGS)
    add_alias_engine_option(diffcheck)
    diffcheck.set_defaults(func=_cmd_diffcheck)

    alias_cmp = sub.add_parser(
        "alias-compare",
        help="run every alias engine over the labeled corpora and "
             "report per-engine precision/recall/runtime",
    )
    alias_cmp.add_argument("--seed", type=int, default=1,
                           help="generator seed for the labeled programs")
    alias_cmp.add_argument("--count", type=int, default=20,
                           help="number of generated programs")
    alias_cmp.add_argument("--arch", action="append",
                           choices=["arm", "mips"],
                           help="restrict generation to an architecture "
                                "(repeatable; default both)")
    alias_cmp.add_argument("--scale", type=float, default=0.1,
                           help="vendor-corpus build scale (0.1 matches "
                                "the committed golden corpus; the "
                                "dtaint-engine golden identity gate only "
                                "runs at 0.1)")
    alias_cmp.add_argument("--no-vendor", action="store_true",
                           help="skip the vendor-corpus leg (labeled "
                                "programs + fixtures only)")
    alias_cmp.add_argument("--json", action="store_true",
                           help="emit the comparison document as JSON")
    alias_cmp.add_argument("--out",
                           help="directory for alias_compare.json")
    alias_cmp.set_defaults(func=_cmd_alias_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
