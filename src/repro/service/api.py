"""The REST/JSON frontend over :class:`AnalysisDaemon`.

Deliberately dependency-light: stdlib ``http.server`` with a threaded
server, JSON bodies, and an NDJSON progress stream — the same wire
format the telemetry file uses, so ``curl .../events`` reads exactly
like ``tail -f telemetry.jsonl``.

API surface (all under ``/api/v1``):

====== =========================== =====================================
POST   /jobs                        submit ``{kind, key|path, scale,
                                    modules, priority}``; idempotent
GET    /jobs?state=&limit=          recent jobs, optionally by state
GET    /jobs/<id>                   one job's queue row
POST   /jobs/<id>/cancel            cancel pending / request-cancel
                                    running
GET    /jobs/<id>/events?after=     NDJSON progress stream (resume
                                    with the last ``event_id``)
GET    /jobs/<id>/findings          canonical findings + fingerprint
POST   /jobs/<id>/retry             requeue a dead-lettered job with a
                                    fresh budget (operator action)
GET    /deadletter                  the dead-letter queue + breaker info
GET    /quarantine                  per-image circuit-breaker table
POST   /quarantine/reset            clear one ``{dedup_key}`` breaker
GET    /findings?function=&kind=    fleet-wide indexed findings query
GET    /stats                       queue + store + pool statistics
GET    /healthz                     liveness probe
GET    /readyz                      readiness probe (503 while
                                    draining / dispatcher dead)
POST   /shutdown                    clean stop (only with
                                    ``allow_shutdown``; CI smoke uses
                                    this)
====== =========================== =====================================

Backpressure: when the daemon's queue depth is at its configured
limit, ``POST /jobs`` returns **429** with a ``Retry-After`` header —
durable submission is the client's to retry, not the server's to
buffer unboundedly.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import faultinject
from repro.errors import PipelineError, QueueFull
from repro.service.queue import STATES, job_spec

API_PREFIX = "/api/v1"


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the daemon it serves."""

    protocol_version = "HTTP/1.1"
    server_version = "dtaintd/1"

    # -- plumbing ----------------------------------------------------------

    @property
    def daemon(self):
        return self.server.analysis_daemon

    def log_message(self, format, *args):     # noqa: A002 (stdlib name)
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, payload, status=200):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_ndjson(self, records, status=200):
        body = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, message, status=400):
        self._send_json({"error": message}, status=status)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if not length:
            return {}
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError:
            raise PipelineError("request body is not valid JSON")

    # -- dispatch ----------------------------------------------------------

    def do_GET(self):
        self._route("GET")

    def do_POST(self):
        self._route("POST")

    def _route(self, method):
        url = urlparse(self.path)
        if not url.path.startswith(API_PREFIX):
            return self._error("unknown path %s" % url.path, status=404)
        parts = [p for p in url.path[len(API_PREFIX):].split("/") if p]
        query = {
            key: values[-1]
            for key, values in parse_qs(url.query).items()
        }
        try:
            # Chaos probe: a ``disconnect@service.api`` spec tears this
            # connection mid-request, exercising the client's
            # retry/resume machinery against a real dropped socket.
            faultinject.check("service.api", url.path)
            handler = self._resolve(method, parts)
            if handler is None:
                return self._error(
                    "no route %s %s" % (method, url.path), status=404
                )
            handler(query)
        except QueueFull as exc:
            body = (json.dumps({
                "error": str(exc), "retry_after": exc.retry_after,
            }, sort_keys=True) + "\n").encode("utf-8")
            self.send_response(429)
            self.send_header("Content-Type", "application/json")
            self.send_header("Retry-After",
                             str(int(max(exc.retry_after, 1))))
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except PipelineError as exc:
            self._error(str(exc), status=400)
        except (BrokenPipeError, ConnectionResetError):
            # Torn client connection (or an injected one): close the
            # socket without a response; the client retries.
            self.close_connection = True
        except Exception as exc:      # never kill the serving thread
            self._error("internal error: %s" % exc, status=500)

    def _resolve(self, method, parts):
        if method == "GET":
            if parts == ["healthz"]:
                return self._get_healthz
            if parts == ["readyz"]:
                return self._get_readyz
            if parts == ["stats"]:
                return self._get_stats
            if parts == ["jobs"]:
                return self._get_jobs
            if parts == ["findings"]:
                return self._get_findings
            if parts == ["deadletter"]:
                return self._get_deadletter
            if parts == ["quarantine"]:
                return self._get_quarantine
            if len(parts) == 2 and parts[0] == "jobs":
                return lambda q: self._get_job(parts[1], q)
            if len(parts) == 3 and parts[0] == "jobs":
                if parts[2] == "events":
                    return lambda q: self._get_job_events(parts[1], q)
                if parts[2] == "findings":
                    return lambda q: self._get_job_findings(parts[1], q)
        if method == "POST":
            if parts == ["jobs"]:
                return self._post_job
            if parts == ["shutdown"]:
                return self._post_shutdown
            if parts == ["quarantine", "reset"]:
                return self._post_quarantine_reset
            if len(parts) == 3 and parts[0] == "jobs":
                if parts[2] == "cancel":
                    return lambda q: self._post_cancel(parts[1], q)
                if parts[2] == "retry":
                    return lambda q: self._post_retry(parts[1], q)
        return None

    @staticmethod
    def _job_id(raw):
        try:
            return int(raw)
        except ValueError:
            raise PipelineError("job id must be an integer, got %r" % raw)

    # -- endpoints ---------------------------------------------------------

    def _get_healthz(self, query):
        self._send_json({"ok": True, "service": "dtaint"})

    def _get_readyz(self, query):
        ready, reason = self.daemon.ready()
        self._send_json(
            {"ready": ready, "reason": reason},
            status=200 if ready else 503,
        )

    def _get_deadletter(self, query):
        self._send_json({
            "jobs": self.daemon.queue.dead_letter(
                limit=int(query.get("limit", 200))
            ),
        })

    def _get_quarantine(self, query):
        self._send_json({
            "images": self.daemon.queue.quarantined_images(),
        })

    def _post_retry(self, raw_id, query):
        outcome = self.daemon.retry_dead(self._job_id(raw_id))
        if outcome == "missing":
            return self._error("no such job", status=404)
        if outcome == "not_dead":
            return self._error("job is not dead-lettered", status=409)
        self._send_json({
            "job_id": self._job_id(raw_id), "outcome": outcome,
        })

    def _post_quarantine_reset(self, query):
        body = self._read_body()
        key = body.get("dedup_key", "")
        if not key:
            raise PipelineError("dedup_key is required")
        removed = self.daemon.reset_quarantine(key)
        self._send_json({"dedup_key": key, "removed": removed})

    def _get_stats(self, query):
        self._send_json(self.daemon.stats())

    def _get_jobs(self, query):
        state = query.get("state")
        if state and state not in STATES:
            raise PipelineError(
                "unknown state %r; choices: %s" % (state, ", ".join(STATES))
            )
        jobs = self.daemon.queue.list_jobs(
            state=state, limit=int(query.get("limit", 200))
        )
        self._send_json({"jobs": jobs})

    def _get_job(self, raw_id, query):
        job = self.daemon.job_status(self._job_id(raw_id))
        if job is None:
            return self._error("no such job", status=404)
        self._send_json(job)

    def _get_job_events(self, raw_id, query):
        events = self.daemon.job_events(
            self._job_id(raw_id),
            after=int(query.get("after", 0)),
            limit=int(query.get("limit", 1000)),
        )
        self._send_ndjson(events)

    def _get_job_findings(self, raw_id, query):
        response = self.daemon.job_findings(self._job_id(raw_id))
        if response is None:
            return self._error("no such job", status=404)
        self._send_json(response)

    def _get_findings(self, query):
        rows = self.daemon.db.query_findings(
            function=query.get("function"),
            kind=query.get("kind"),
            section=query.get("section"),
            run_id=int(query["run_id"]) if "run_id" in query else None,
            limit=int(query.get("limit", 200)),
        )
        self._send_json({"findings": rows})

    def _post_job(self, query):
        body = self._read_body()
        spec = job_spec(
            kind=body.get("kind", "profile"),
            key=body.get("key", ""),
            path=body.get("path", ""),
            scale=body.get("scale", self.daemon.default_scale or 0.25),
            modules=body.get("modules") or (),
            shards=int(body.get("shards") or 0),
            member=body.get("member", ""),
            alias_engine=body.get(
                "alias_engine", self.daemon.default_alias_engine
            ),
        )
        job = self.daemon.submit(spec, priority=int(body.get("priority", 0)))
        status = 201 if job["outcome"] == "created" else 200
        self._send_json(job, status=status)

    def _post_cancel(self, raw_id, query):
        disposition = self.daemon.queue.cancel(self._job_id(raw_id))
        if disposition == "missing":
            return self._error("no such job", status=404)
        self._send_json({
            "job_id": self._job_id(raw_id), "disposition": disposition,
        })

    def _post_shutdown(self, query):
        if not self.server.allow_shutdown:
            return self._error("shutdown disabled", status=403)
        self._send_json({"stopping": True})
        # Shut down from another thread: shutdown() blocks until the
        # serve loop exits, which can't happen from inside a handler.
        threading.Thread(target=self.server.shutdown, daemon=True).start()


class ServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one daemon."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, daemon, allow_shutdown=False,
                 verbose=False):
        ThreadingHTTPServer.__init__(self, address, ServiceHandler)
        self.analysis_daemon = daemon
        self.allow_shutdown = allow_shutdown
        self.verbose = verbose


def serve(daemon, host="127.0.0.1", port=0, allow_shutdown=False,
          verbose=False):
    """Bind the API server (port 0 picks a free port); caller runs it.

    Returns the server; run ``server.serve_forever()`` (blocking) or
    hand it to a thread.  ``server.server_address`` carries the bound
    port.
    """
    return ServiceServer((host, port), daemon,
                         allow_shutdown=allow_shutdown, verbose=verbose)
