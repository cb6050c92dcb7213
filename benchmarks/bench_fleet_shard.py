"""Intra-image shard-scheduling benchmark: hikvision split over a pool.

Measures what the shard scheduler buys on the fleet's hot image
(hikvision dominates a cold scan of the vendor corpus):

* ``unsharded``  — the whole-image baseline (1 job slot, no sharding);
* ``sharded_1w`` — the sharded task graph (plan → N exec shards →
  merge) on a single worker: the pure cost of sharding, with the
  per-task walls recorded under ``tasks_1w``;
* ``sharded_<N>w`` — the same task graph on an N-worker pool
  (``--workers``, default: this host's core count).

Every number is measured.  The headline ``speedup`` is the unsharded
wall over the sharded N-worker wall on the same host, and the artifact
records the host's ``cores`` next to it.

Measurement hygiene: every run is a fresh subprocess, so each one
starts from identical cold interpreter state — no run inherits intern
pools, allocator arenas, or page-cache warmth from a predecessor.
``--trials`` rounds run the configurations in turn (so slow drift of
the host hits every configuration alike); ``runs`` keeps every wall
and ``wall_seconds`` is each configuration's minimum — the timeit
rationale: variance above the minimum is interference from the host,
not variability in the code under test.

Identity gate: the findings fingerprints of every run must be
byte-identical — sharding may only ever change the schedule, never the
findings.  The same ELF is also packed into a TRX firmware image and
scanned as a ``kind='firmware'`` job at the same shard count with no
retries (``firmware`` in the output): a quarantined job or a
fingerprint that differs from the ELF runs also fails.  A divergence
exits nonzero regardless of flags.  Outside
``--quick`` the run also fails unless ``speedup`` reaches
``--min-speedup`` (default 1.0: sharding must not lose to the
unsharded run).

Usage:
    python benchmarks/bench_fleet_shard.py [--quick] [--out out.json]
    python benchmarks/bench_fleet_shard.py --record    # update baseline
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.corpus.profiles import (  # noqa: E402
    PROFILES,
    analyzed_module_prefixes,
    build_firmware,
)
from repro.firmware.image import pack_trx  # noqa: E402
from repro.firmware.simplefs import SimpleFS  # noqa: E402
from repro.pipeline.results import findings_fingerprint  # noqa: E402
from repro.pipeline.scheduler import FleetJob, FleetScheduler  # noqa: E402
from repro.pipeline.telemetry import Telemetry  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_fleet_shard.json")

IMAGE = "hikvision"


def _run_config(path, modules, shards, jobs, kind="elf", retries=1):
    """One fleet run; returns (fingerprint, wall, task walls, report)."""
    events = []
    telemetry = Telemetry()
    telemetry.add_sink(lambda record: events.append(dict(record)))
    scheduler = FleetScheduler(jobs=jobs, retries=retries,
                               telemetry=telemetry)
    try:
        start = time.perf_counter()
        results = scheduler.run([
            FleetJob(job_id="bench", kind=kind, path=path,
                     modules=modules, shards=shards),
        ])
        wall = time.perf_counter() - start
    finally:
        scheduler.close()
    result = results[0]
    if not result.ok:
        raise SystemExit("bench run failed: %s" % result.error)

    starts, execs = {}, []
    plan = merge = 0.0
    for event in events:
        kind = event.get("event")
        if kind == "shard_task_start":
            starts[(event.get("phase"), event.get("shard"))] = event["ts"]
        elif kind == "shard_task_finish":
            execs.append(event["ts"] - starts[("exec", event.get("shard"))])
        elif kind == "shard_plan":
            plan = event["ts"] - starts[("plan", -1)]
        elif kind == "shard_merge_finish":
            merge = event["ts"] - starts[("merge", -1)]
    tasks = {"plan": plan, "exec": sorted(execs, reverse=True),
             "merge": merge}
    # The report's ``binary`` is the job's display name (the image
    # path, plus the member for firmware jobs), not analysis output.
    fingerprint = findings_fingerprint(dict(result.report, binary=""))
    return fingerprint, wall, tasks, result.report


def _run_isolated(elf_path, modules, shards, jobs):
    """Run one configuration in a fresh interpreter; returns its stats.

    Fresh-process isolation keeps every configuration's measurement
    honest: an in-process predecessor run leaves warmed intern pools
    and a grown allocator heap behind, which measurably shifts the
    walls of whatever runs next.
    """
    handle, result_path = tempfile.mkstemp(
        suffix=".json", dir=os.path.dirname(elf_path)
    )
    os.close(handle)
    command = [
        sys.executable, os.path.abspath(__file__), "--one-config",
        "--elf", elf_path, "--modules", ",".join(modules),
        "--one-shards", str(shards), "--one-jobs", str(jobs),
        "--result-out", result_path,
    ]
    status = subprocess.run(command).returncode
    if status != 0:
        raise SystemExit(
            "bench subprocess (shards=%d jobs=%d) failed with status %d"
            % (shards, jobs, status)
        )
    with open(result_path) as stream:
        data = json.load(stream)
    os.unlink(result_path)
    return data["fingerprint"], data["wall"], data["tasks"]


def run_bench(scale, shards, workers, quick=False, trials=1):
    built = build_firmware(IMAGE, scale=scale)
    workdir = tempfile.mkdtemp(prefix="dtaint-bench-shard-")
    elf_path = os.path.join(workdir, "%s.elf" % IMAGE)
    with open(elf_path, "wb") as handle:
        handle.write(built.elf_bytes)
    modules = analyzed_module_prefixes(IMAGE)

    many = "sharded_%dw" % workers
    configs = {"unsharded": (0, 1), "sharded_1w": (shards, 1),
               many: (shards, workers)}
    runs = {name: [] for name in configs}
    for _ in range(max(1, trials)):
        for name, (count, jobs) in configs.items():
            runs[name].append(
                _run_isolated(elf_path, modules, count, jobs)
            )

    fingerprints = {name: [run[0] for run in config_runs]
                    for name, config_runs in runs.items()}
    every = {fp for fps in fingerprints.values() for fp in fps}
    walls = {name: min(run[1] for run in config_runs)
             for name, config_runs in runs.items()}
    tasks_one = min(runs["sharded_1w"], key=lambda run: run[1])[2]
    speedup = walls["unsharded"] / walls[many] if walls[many] else 0.0

    # The same bytes as a firmware member: no retry budget, so a
    # failed shard task quarantines the job and exits nonzero.
    rootfs = SimpleFS()
    rootfs.add_file("/bin/%s" % PROFILES[IMAGE].binary_name,
                    built.elf_bytes)
    firmware_path = os.path.join(workdir, "%s.trx" % IMAGE)
    with open(firmware_path, "wb") as handle:
        handle.write(pack_trx(b"KERNELKERNEL", rootfs.pack()))
    firmware_fp, _wall, _tasks, _report = _run_config(
        firmware_path, modules, shards, workers, kind="firmware",
        retries=0,
    )
    return {
        "image": IMAGE,
        "scale": scale,
        "shards": shards,
        "workers": workers,
        "cores": os.cpu_count() or 1,
        "quick": quick,
        "trials": max(1, trials),
        "fingerprints": {name: fps[0] for name, fps in fingerprints.items()},
        "findings_identical": len(every) == 1,
        "firmware": {"fingerprint": firmware_fp,
                     "identical": every == {firmware_fp}},
        "runs": {name: [round(run[1], 3) for run in config_runs]
                 for name, config_runs in runs.items()},
        "wall_seconds": {name: round(wall, 3)
                         for name, wall in walls.items()},
        "tasks_1w": {
            "plan": round(tasks_one["plan"], 3),
            "merge": round(tasks_one["merge"], 3),
            "exec": [round(span, 3) for span in tasks_one["exec"]],
        },
        "speedup": round(speedup, 3),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small scale + identity gate only (CI)")
    parser.add_argument("--out", help="also write results JSON here")
    parser.add_argument("--record", action="store_true",
                        help="update %s" % os.path.basename(DEFAULT_BASELINE))
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--workers", type=int,
                        default=os.cpu_count() or 1,
                        help="pool size of the sharded_<N>w run "
                             "(default: core count)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="full-mode gate: unsharded wall over "
                             "sharded_<N>w wall")
    parser.add_argument("--trials", type=int, default=None,
                        help="timing rounds over every configuration "
                             "(default 2, 1 with --quick)")
    # Internal single-configuration mode used for fresh-process
    # isolation; the parent invokes this script recursively with it.
    parser.add_argument("--one-config", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--elf", help=argparse.SUPPRESS)
    parser.add_argument("--modules", help=argparse.SUPPRESS)
    parser.add_argument("--one-shards", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--one-jobs", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--result-out", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.one_config:
        modules = [m for m in (args.modules or "").split(",") if m]
        fingerprint, wall, tasks, _ = _run_config(
            args.elf, modules, args.one_shards, args.one_jobs
        )
        with open(args.result_out, "w") as handle:
            json.dump({"fingerprint": fingerprint, "wall": wall,
                       "tasks": tasks}, handle)
        return 0

    scale = args.scale if args.scale is not None else (
        0.1 if args.quick else 0.25
    )
    shards = args.shards if args.shards is not None else (
        4 if args.quick else 16
    )
    trials = args.trials if args.trials is not None else (
        1 if args.quick else 2
    )

    results = run_bench(scale, shards, args.workers, quick=args.quick,
                        trials=trials)
    results["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    blob = json.dumps(results, indent=2, sort_keys=True) + "\n"
    print(blob)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob)
    if args.record:
        with open(DEFAULT_BASELINE, "w") as handle:
            handle.write(blob)

    if not results["findings_identical"]:
        print("FAIL: sharded findings diverge from the unsharded run",
              file=sys.stderr)
        return 1
    if not results["firmware"]["identical"]:
        print("FAIL: the sharded firmware job diverges from the ELF runs",
              file=sys.stderr)
        return 1
    if not args.quick and results["speedup"] < args.min_speedup:
        print("FAIL: speedup %.2fx below gate %.2fx"
              % (results["speedup"], args.min_speedup), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
