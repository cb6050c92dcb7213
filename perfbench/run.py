"""perfbench: DTaint's end-to-end and per-layer benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``cold_scan``, ``rescan``, ``fleet``, ``service`` (see
``perfbench/README.md`` for why each exists).  A run sets its inputs
up from ``--seed`` several times (reporting the median as
``setup_s``), then measures iterations for about ``--seconds``
seconds, each in a fresh process and each checked by the correctness
gate.  A fixed calibration loop is timed before every set-up and
iteration, and CPU-bound timings are reported scaled to its reference
time (``host_scaled``).  ``--trace 0`` prints the end-to-end metrics
of untraced iterations; ``--trace 1`` alternates untraced and traced
iterations and prints the per-layer metrics, whose self times plus
``unattributed_s`` sum to ``trace.wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the host, seed and iteration details.  Any wrong
output, missing dependency or overrun exits nonzero without that
line.
"""

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# The benchmark runs from a plain checkout: no installed package.
for _path in (REPO, os.path.join(REPO, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import spans, workloads  # noqa: E402

# Seeds 1-10 are the ones the bounds were tuned on; claims should
# also hold on this one, which was never used while tuning.
HELDOUT_SEED = 20180625
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
RUN_BUDGET_SECONDS = 150.0

# Service load: a fixed open-loop rate at roughly half the daemon's
# measured capacity on a 2-worker host.
SERVICE_RATE = 12.0
SERVICE_TICK = 0.1
SERVICE_LATE_LIMIT = 0.5
SERVICE_DRAIN_SECONDS = 30.0

# The shared host's speed swings by up to 1.9x over seconds to minutes,
# and every CPU-bound timing swings with it.  A fixed pure-Python loop
# that uses no program code is timed in a fresh child before every
# set-up and iteration; CPU-bound timings are reported scaled to the
# loop's reference time, so that they read as seconds on a host at
# reference speed.  The loop takes about this long on a 2-vCPU x86_64
# host with Python 3.11.7.
REFERENCE_CALIBRATION_S = 0.5


# Workload and metric names with their units, as BENCHMARK.json lists them.
with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    _CATALOGUE = json.load(_handle)
WORKLOADS = [workload["name"] for workload in _CATALOGUE["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in _CATALOGUE["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CATALOGUE["per_layer"]}

# Imported before any child forks, so no iteration pays for importing
# the program inside its timed region.
PRELOAD = (
    "repro.core", "repro.firmware.binwalk", "repro.loader.binary",
    "repro.pipeline.scheduler", "repro.pipeline.results",
    "repro.pipeline.telemetry", "repro.increment", "repro.increment.reuse",
    "repro.alias.dtaint", "repro.alias.sse", "repro.eval.resources",
    "perfbench.inputs",
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def host_facts():
    return {
        "nproc": workers(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def workers():
    return len(os.sched_getaffinity(0))


def percentile(values, fraction):
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- child processes ----------------------------------------------------------


def _child_main(conn, cpus, target, args):
    try:
        os.sched_setaffinity(0, cpus)
        conn.send((True, target(*args)))
    except BaseException:
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


def in_children(deadline, target, calls):
    """``target(*args)`` for every ``(cpus, args)`` in ``calls``, each
    in a new forked process bound to ``cpus``, all at once; returns
    their values in order.

    Fork, not spawn: this process stays single-threaded and never runs
    analysis itself, so a child starts with the program's modules
    imported but every interning arena and memo empty, and without
    paying interpreter start-up between iterations.
    """
    ctx = multiprocessing.get_context("fork")
    children, outcomes = [], []
    try:
        for cpus, args in calls:
            receive, send = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_child_main,
                                  args=(send, cpus, target, args))
            process.start()
            send.close()
            children.append((process, receive))
        for _process, receive in children:
            if not receive.poll(max(deadline - time.monotonic(), 0.0)):
                raise BenchError("%s overran the run budget"
                                 % target.__name__)
            try:
                outcomes.append(receive.recv())
            except EOFError:
                outcomes.append((False, "child exited without a result"))
    finally:
        for process, receive in children:
            process.join(5)
            if process.is_alive():
                process.kill()
                process.join()
            receive.close()
    for ok, value in outcomes:
        if not ok:
            raise BenchError(value)
    return [value for _ok, value in outcomes]


def in_child(deadline, cpus, target, *args):
    return in_children(deadline, target, [(cpus, args)])[0]


def _calibration_main():
    """Seconds for a fixed loop mixing integer arithmetic, dict inserts
    with tuple and string keys, and list churn, like the analysis."""
    started = time.perf_counter()
    total, table, window = 0, {}, []
    for i in range(200000):
        total += i * i % 7
        table[(i, "k%d" % (i % 5000))] = [i, total]
        window.append((total, i))
        if len(window) > 1000:
            window = window[500:]
    return time.perf_counter() - started


def calibrate(deadline, cpus):
    """Mean seconds of the calibration loop, one copy on each of
    ``cpus`` at once."""
    return statistics.mean(in_children(deadline, _calibration_main,
                                       [({cpu}, ()) for cpu in cpus]))


def run_cpus(name):
    """The CPUs a run's set-ups, iterations and calibration use.
    ``cold_scan`` and ``rescan`` analyse in one process: they share one
    CPU with their calibration, so that it times the CPU the work ran
    on.  The pool workloads use, and calibrate, every CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1:] if name in ("cold_scan", "rescan") else cpus


def _setup_main(name, seed, out_dir, kwargs):
    from perfbench import inputs

    inputs.SETUPS[name](seed, out_dir, **kwargs)
    return inputs.read_json(os.path.join(out_dir, "setup.json"))


# -- the service daemon -------------------------------------------------------


class Daemon:
    """A ``dtaint serve`` subprocess on a free localhost port."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        self._log = open(os.path.join(work_dir, "daemon.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(workers()),
             "--db", os.path.join(work_dir, "db.sqlite"),
             "--cache-dir", os.path.join(work_dir, "cache")],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        ready, _w, _x = select.select([self.process.stdout], [], [], 60)
        line = (self.process.stdout.readline().decode("utf-8", "replace")
                if ready else "")
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            self.stop()
            raise BenchError("daemon did not start: %r" % line)
        self.url = match.group(1)

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# -- one run ------------------------------------------------------------------


def set_up(name, seed, work_dir, seconds, deadline, cpus):
    """Set up SETUP_REPEATS times; returns (times, calibrations, setup
    doc, daemon)."""
    kwargs = {}
    if name == "service":
        kwargs["count"] = int(round(SERVICE_RATE * seconds))
    times, calibrations = [], []
    setup = daemon = None
    for _ in range(SETUP_REPEATS):
        calibrations.append(calibrate(deadline, cpus))
        out_dir = os.path.join(work_dir, "setup")
        shutil.rmtree(out_dir, ignore_errors=True)
        if daemon is not None:
            daemon.stop()
            daemon = None
        shutil.rmtree(os.path.join(work_dir, "daemon"), ignore_errors=True)
        started = time.perf_counter()
        setup = in_child(deadline, cpus, _setup_main, name, seed, out_dir,
                         kwargs)
        if name == "service":
            daemon = Daemon(os.path.join(work_dir, "daemon"))
        times.append(time.perf_counter() - started)
    return times, calibrations, setup, daemon


def plan_service(seconds, trace):
    """(traced, first, last) submission slices for the service run."""
    count = int(round(SERVICE_RATE * seconds))
    if not trace:
        return [(False, 0, count)]
    half = count // 2
    return [(False, 0, half), (True, half, count)]


def measure(name, setup, work_dir, seconds, trace, deadline, daemon,
            cpus):
    params = {"workers": workers()}
    if name == "service":
        params.update({
            "url": daemon.url, "daemon_pid": daemon.process.pid,
            "rate": SERVICE_RATE, "tick": SERVICE_TICK,
            "late_limit": SERVICE_LATE_LIMIT,
            "drain_seconds": SERVICE_DRAIN_SECONDS,
        })
        results = []
        for traced, first, last in plan_service(seconds, trace):
            params.update(first=first, last=last)
            result = in_child(deadline, cpus, workloads.iterate, name,
                              setup, work_dir, traced, dict(params))
            result["traced"] = traced
            results.append(result)
        return results

    results = []
    started = time.monotonic()
    traced = False
    while True:
        begun = time.monotonic()
        calibration = calibrate(deadline, cpus)
        result = in_child(deadline, cpus, workloads.iterate, name, setup,
                          work_dir, traced, params)
        result["calibration"] = calibration
        result["traced"] = traced
        result["elapsed"] = time.monotonic() - begun
        results.append(result)
        untraced = sum(1 for r in results if not r["traced"])
        tracedn = len(results) - untraced
        enough = (untraced >= MIN_ITERATIONS if not trace
                  else min(untraced, tracedn) >= 1)
        typical = statistics.median(r["elapsed"] for r in results)
        if enough and time.monotonic() - started + typical > seconds:
            return results
        if trace:
            traced = not traced


def _mean_dict(documents):
    keys = set().union(*documents) if documents else set()
    return {key: sum(d.get(key, 0.0) for d in documents) / len(documents)
            for key in keys}


def end_to_end(results, setup_times):
    """Medians over the untraced iterations; a latency percentile is
    taken within each iteration first, so one slow iteration cannot
    decide it."""
    untraced = [r for r in results if not r["traced"]]

    def median_of(value):
        return statistics.median(value(r) for r in untraced)

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": median_of(lambda r: r["wall"]),
        "jobs_per_s": median_of(lambda r: len(r["latencies"]) / r["wall"]),
        "latency_p50_s": median_of(
            lambda r: percentile(r["latencies"], 0.5)),
        "latency_p90_s": median_of(
            lambda r: percentile(r["latencies"], 0.9)),
        "peak_rss_mb": median_of(lambda r: r["rss_mb"]),
    }


def host_scaled(name, measured, calibrations):
    """``measured`` end-to-end metrics with CPU-bound timings scaled by
    REFERENCE_CALIBRATION_S / median calibration.  Set-up is CPU-bound
    everywhere.  The service's latencies are mostly fixed waits (poll
    intervals, ticks) and its wall and rate are pinned by the schedule,
    so they stay as measured."""
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
    scaled = dict(measured, setup_s=measured["setup_s"] * scale)
    if name != "service":
        for key in ("wall_s", "latency_p50_s", "latency_p90_s"):
            scaled[key] = measured[key] * scale
        scaled["jobs_per_s"] = measured["jobs_per_s"] / scale
    return scaled


def per_layer(results, calibrations):
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(_mean_dict([r["layers"] for r in untraced]))
    metrics.update(_mean_dict([r["spans"] for r in traced]))
    self_total = sum(value for key, value in metrics.items()
                     if key in spans.SELF_TIME_METRICS)
    if abs(self_total - metrics["trace.wall_s"]) > 1e-6 * max(
            1.0, metrics["trace.wall_s"]):
        raise BenchError("layer self times sum to %.6fs, traced wall is "
                         "%.6fs" % (self_total, metrics["trace.wall_s"]))
    # Iterations alternate untraced, traced: compare neighbours, which
    # share the host's state, then take the median pair.
    metrics["trace_overhead_ratio"] = statistics.median(
        t["wall"] / u["wall"] for u, t in zip(untraced, traced)
    ) - 1.0
    attempted = sum(r["attempted"] for r in results)
    metrics["failed_ratio"] = sum(r["failed"] for r in results) / attempted
    metrics["host.calibration_s"] = statistics.median(calibrations)
    return metrics


def run(name, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    work_dir = os.path.join(os.getcwd(), ".perfbench",
                            "work-%s-%d" % (name, os.getpid()))
    daemon = None
    cpus = run_cpus(name)
    try:
        setup_times, calibrations, setup, daemon = set_up(
            name, seed, work_dir, seconds, deadline, cpus)
        results = measure(name, setup, work_dir, seconds, trace, deadline,
                          daemon, cpus)
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass                 # another run still works there
    calibrations += [r["calibration"] for r in results
                     if "calibration" in r]
    if trace:
        measured = None
        values = per_layer(results, calibrations)
    else:
        measured = end_to_end(results, setup_times)
        values = host_scaled(name, measured, calibrations)
    units = PER_LAYER if trace else END_TO_END
    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: %s" % sorted(
            set(values) ^ set(units)))
    bad = sorted(name for name in values if not NAME.match(name))
    if bad:
        raise BenchError("malformed metric names: %s" % bad)
    document = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": host_facts(),
        "setup_seconds": setup_times,
        "calibration_seconds": calibrations,
        "measured": measured,
        "iterations": [{"traced": r["traced"], "wall": r["wall"],
                        "jobs": len(r["latencies"])} for r in results],
        "heldout_seed": HELDOUT_SEED,
    }
    result = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in sorted(values.items())},
    }
    return document, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        for module in PRELOAD:
            importlib.import_module(module)
    except ImportError as exc:
        print("perfbench: cannot import the program: %s" % exc,
              file=sys.stderr)
        return 2
    # Children inherit the imported modules; frozen, the collector in
    # each child never rescans (and copy-on-write faults) them.
    gc.freeze()
    try:
        document, result = run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(document, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
