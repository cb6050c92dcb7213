"""A persistent pool of warm, resource-governed analysis workers.

The original scheduler forked one process per job attempt: perfect
crash isolation, but every attempt paid the full interpreter +
import + intern-pool warm-up cost.  For a long-running service that
cost dominates small jobs, so the pool keeps workers alive between
jobs: a worker loops ``recv job -> execute -> send payload`` over a
duplex pipe until told to stop.

Crash isolation is preserved because isolation never came from the
one-shot lifecycle — it comes from the process boundary.  A worker
that segfaults, ``os._exit``-s, or blows its deadline is *discarded*
(killed and forgotten) and a fresh worker is spawned on demand; only
the job it was holding is affected.  A worker that merely reports a
typed analysis error stays warm and goes back to the idle list.

Two service-grade governors ride on top of the loop:

* **resource limits** — each worker applies ``resource.setrlimit``
  (RLIMIT_AS / RLIMIT_CPU / RLIMIT_FSIZE, from the pool's ``rlimits``
  dict) before serving its first job.  A memory-bomb binary then hits
  ``MemoryError`` inside one function and degrades to a typed
  :class:`~repro.errors.ResourceExhausted` instead of OOM-killing the
  host; CPU exhaustion (``SIGXCPU``) likewise surfaces typed, and the
  worker flags itself for recycling because the CPU clock is
  process-cumulative and cannot be reset.
* **heartbeats** — while executing a job, a sidecar thread sends
  ``{"control": "heartbeat"}`` messages over the same pipe every
  ``heartbeat`` seconds.  The scheduler reaps workers whose beat goes
  silent (process frozen, stopped, or deadlocked in native code)
  independent of the per-job deadline, escalating SIGTERM→SIGKILL.

Within-worker state that persists across jobs is safe by design:

* the hash-consing arenas (:mod:`repro.symexec.value`) are
  content-addressed, so pre-existing interned nodes can never change
  an analysis result, only make it cheaper;
* the phase profiler is read via snapshot deltas
  (:class:`repro.core.detector.DTaint` takes a baseline snapshot), so
  accumulated counters from earlier jobs cancel out;
* fault injectors are installed/uninstalled inside
  :func:`~repro.pipeline.scheduler.execute_job`'s ``try/finally``.

The ``fork`` start method is preferred for the same reason as before:
workers inherit loaded modules and the parent's hash seed.  A service
imports the analysis (:func:`~repro.pipeline.scheduler.import_job_modules`)
and :meth:`WorkerPool.prewarm`-s its slots before it takes work.
"""

import itertools
import multiprocessing
import os
import signal
import threading
import time

from repro.errors import PipelineError, ReproError, ResourceExhausted

_STOP = None        # sentinel message: worker exits its loop

# Grace between the soft RLIMIT_CPU (typed SIGXCPU degradation) and
# the hard limit (kernel SIGKILL): room to report and be recycled.
_CPU_HARD_GRACE = 10

# Set by the SIGXCPU handler: the process burned its CPU budget, so
# the payload asks the supervisor to recycle it after this job.
_CPU_EXHAUSTED = False


def _on_sigxcpu(signum, frame):
    """Soft CPU limit hit: degrade typed instead of dying silently."""
    global _CPU_EXHAUSTED
    _CPU_EXHAUSTED = True
    raise ResourceExhausted(
        "per-worker CPU budget exhausted", resource="cpu"
    )


def apply_rlimits(rlimits):
    """Apply the ``rlimits`` dict to this process; returns what stuck.

    Keys: ``as_mb`` (RLIMIT_AS, MiB), ``cpu_seconds`` (RLIMIT_CPU;
    soft raises SIGXCPU, hard is soft + grace), ``fsize_mb``
    (RLIMIT_FSIZE, MiB).  Limits the kernel refuses (above the hard
    limit of an unprivileged process) are skipped, not fatal — a
    governed worker on a constrained host still starts.
    """
    applied = {}
    if not rlimits:
        return applied
    import resource as _resource

    def _set(name, which, soft, hard):
        try:
            _resource.setrlimit(which, (soft, hard))
            applied[name] = soft
        except (ValueError, OSError):
            pass

    as_mb = rlimits.get("as_mb")
    if as_mb:
        limit = int(as_mb) << 20
        _set("as_bytes", _resource.RLIMIT_AS, limit, limit)
    cpu_seconds = rlimits.get("cpu_seconds")
    if cpu_seconds:
        soft = int(cpu_seconds)
        _set("cpu_seconds", _resource.RLIMIT_CPU, soft,
             soft + _CPU_HARD_GRACE)
        signal.signal(signal.SIGXCPU, _on_sigxcpu)
    fsize_mb = rlimits.get("fsize_mb")
    if fsize_mb:
        limit = int(fsize_mb) << 20
        _set("fsize_bytes", _resource.RLIMIT_FSIZE, limit, limit)
    return applied


class _Heartbeat:
    """Sidecar thread beating over the worker's pipe during jobs."""

    def __init__(self, conn, send_lock, interval):
        self.conn = conn
        self.send_lock = send_lock
        self.interval = interval
        self.busy = threading.Event()
        self.stopped = threading.Event()
        self.thread = None
        if interval and interval > 0:
            self.thread = threading.Thread(
                target=self._run, name="dtaint-heartbeat", daemon=True
            )
            self.thread.start()

    def _run(self):
        while not self.stopped.is_set():
            if not self.busy.wait(0.2):
                continue
            while self.busy.is_set() and not self.stopped.is_set():
                try:
                    with self.send_lock:
                        self.conn.send(
                            {"control": "heartbeat", "ts": time.time()}
                        )
                except (BrokenPipeError, OSError):
                    return
                self.stopped.wait(self.interval)

    def __enter__(self):
        self.busy.set()
        return self

    def __exit__(self, *exc):
        self.busy.clear()

    def stop(self):
        self.stopped.set()
        self.busy.clear()


def _control_reply(message, rlimits_applied):
    """Handle one parent control message; returns the reply payload."""
    command = message[0]
    if command == "ping":
        return {
            "control": "pong",
            "pid": os.getpid(),
            "rlimits": dict(rlimits_applied),
        }
    if command == "alloc":
        # Diagnostic: try one big allocation under the armed rlimits.
        # Proves the memory governor converts exhaustion to the typed
        # fault without needing a real memory-bomb binary.
        try:
            block = bytearray(int(message[1]))
            size = len(block)
            del block
            return {"control": "alloc", "ok": True, "bytes": size}
        except MemoryError:
            return {
                "control": "alloc", "ok": False,
                "error_type": ResourceExhausted.__name__,
            }
    return {"control": "error", "error": "unknown control %r" % (command,)}


def _pool_worker_main(conn, rlimits=None, heartbeat=0.0,
                      inherited_parent_end=None):
    """Worker process entry: serve jobs until stopped or orphaned."""
    from repro.pipeline.scheduler import execute_job

    if inherited_parent_end is not None:
        # Under the fork start method the child inherits *both* ends
        # of its own pipe.  The copy of the parent end must be closed
        # here, or a worker orphaned by a dead supervisor would keep
        # its own pipe alive and never see the EOF that tells it to
        # exit (chaos kill-9 runs leak worker processes forever).
        inherited_parent_end.close()
    rlimits_applied = apply_rlimits(rlimits)
    send_lock = threading.Lock()
    beat = _Heartbeat(conn, send_lock, heartbeat)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break                    # parent died or closed us: exit
        if message is _STOP:
            break
        if isinstance(message, tuple) and isinstance(message[0], str):
            payload = _control_reply(message, rlimits_applied)
        else:
            job, attempt, options = message
            try:
                with beat:
                    payload = execute_job(job, attempt=attempt, **options)
            except ResourceExhausted as exc:
                payload = {"status": "error", "error": str(exc),
                           "error_type": ResourceExhausted.__name__,
                           "recycle": True}
            except MemoryError:
                # Job-level exhaustion (outside the per-function
                # degradation scope): report typed, then ask to be
                # recycled — the heap high-water mark is suspect.
                payload = {"status": "error",
                           "error": "job exhausted the worker memory "
                                    "limit",
                           "error_type": ResourceExhausted.__name__,
                           "recycle": True}
            except ReproError as exc:
                payload = {"status": "error", "error": str(exc),
                           "error_type": type(exc).__name__}
            except Exception as exc:
                import traceback

                payload = {"status": "error", "error": str(exc),
                           "error_type": type(exc).__name__,
                           "traceback": traceback.format_exc()}
        if _CPU_EXHAUSTED:
            payload["recycle"] = True
        try:
            with send_lock:
                conn.send(payload)
        except (BrokenPipeError, OSError):
            break
    beat.stop()
    conn.close()


class PoolWorker:
    """One live worker process + its duplex command/result pipe."""

    __slots__ = ("process", "conn", "worker_id")

    def __init__(self, process, conn, worker_id):
        self.process = process
        self.conn = conn
        self.worker_id = worker_id

    @property
    def pid(self):
        return self.process.pid

    def send_job(self, job, attempt, options):
        self.conn.send((job, attempt, options))

    def control(self, *message, timeout=10.0):
        """Round-trip one control message (``ping`` / ``alloc``).

        Only valid while the worker is idle (no job in flight on the
        pipe).  Heartbeat frames that race the reply are skipped.
        """
        self.conn.send(tuple(message))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.conn.poll(0.1):
                continue
            payload = self.conn.recv()
            if payload.get("control") == "heartbeat":
                continue
            return payload
        raise PipelineError(
            "worker %d did not answer %r" % (self.worker_id, message)
        )

    def kill(self):
        """Terminate escalating SIGTERM -> SIGKILL; close the pipe.

        The signal goes out before the pipe closes: a healthy worker
        blocked in ``recv`` would otherwise see EOF and exit on its own
        first, so the exit code would not say how it was stopped.
        """
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(5)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Spawns, recycles, and reaps warm analysis workers.

    ``acquire()`` hands out an idle warm worker when one exists and
    forks a new one otherwise; the *caller* bounds concurrency (the
    scheduler never holds more workers than its slot count), so the
    pool itself imposes no cap.  ``release()`` returns a healthy
    worker to the idle list; ``discard()`` destroys a worker whose
    process can no longer be trusted (crash, timeout, torn pipe).

    ``rlimits`` (``{"as_mb": .., "cpu_seconds": .., "fsize_mb": ..}``)
    is applied inside every spawned worker; ``heartbeat`` > 0 starts
    the per-worker heartbeat sidecar at that interval in seconds.
    """

    def __init__(self, ctx=None, rlimits=None, heartbeat=0.0):
        if ctx is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
        self._ctx = ctx
        self.rlimits = dict(rlimits) if rlimits else None
        self.heartbeat = max(float(heartbeat or 0.0), 0.0)
        self._idle = []
        self._ids = itertools.count(1)
        self.spawned_total = 0
        self.recycled_total = 0
        self.discarded_total = 0
        self._closed = False

    # ------------------------------------------------------------------

    def acquire(self):
        """An idle warm worker, or a freshly spawned one."""
        if self._closed:
            raise PipelineError("worker pool is closed")
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                return worker
            # Died while idle (OOM killer, operator): silently replace.
            worker.kill()
            self.discarded_total += 1
        return self._spawn()

    def release(self, worker):
        """Return a healthy worker to the warm idle list."""
        if self._closed or not worker.process.is_alive():
            worker.kill()
            self.discarded_total += 1
            return
        self._idle.append(worker)

    def recycle(self, worker):
        """Retire a spent-but-cooperative worker (resource budget gone).

        Unlike :meth:`discard` this is an orderly stop counted as a
        recycle: the worker asked for it (CPU clock burned, heap
        high-water suspect), it did nothing untrustworthy.
        """
        self._stop(worker)
        self.recycled_total += 1

    def discard(self, worker):
        """Destroy a worker whose process is no longer trustworthy."""
        worker.kill()
        self.discarded_total += 1

    @property
    def warm_count(self):
        return len(self._idle)

    def prewarm(self, count):
        """Fork ``count`` idle workers ahead of the first job."""
        need = max(count - len(self._idle), 0)
        for _ in range(need):
            self._idle.append(self._spawn())

    def close(self):
        """Stop every idle worker; the pool refuses further acquires."""
        self._closed = True
        while self._idle:
            self._stop(self._idle.pop())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------

    def _spawn(self):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        worker_id = next(self._ids)
        # Under fork, hand the worker its copy of the parent end so it
        # can close it (see _pool_worker_main); under spawn the fd is
        # not inherited and Connections don't pickle, so pass nothing.
        forked = self._ctx.get_start_method() == "fork"
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.rlimits, self.heartbeat,
                  parent_conn if forked else None),
            name="dtaint-worker-%d" % worker_id,
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.spawned_total += 1
        return PoolWorker(process, parent_conn, worker_id)

    def _stop(self, worker):
        """Ask a worker to exit its loop, then make sure it did."""
        try:
            worker.conn.send(_STOP)
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(2)
        worker.kill()
