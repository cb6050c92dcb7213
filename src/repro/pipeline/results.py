"""The results codec: canonical per-image findings, the fleet rollup,
and the JSON run directory they are exported to.

A run directory holds:

* ``images/<job-id>.json`` — one file per analysed image holding the
  *canonical* findings document (see :func:`canonical_report`) plus
  run metadata (status, attempts, timings, cache counters);
* ``fleet.json`` — the fleet-level rollup: per-image rows, aggregate
  counters, and the cache totals;
* ``delta.json`` / ``diffcheck.json`` — auxiliary run documents.

Only this module knows that layout: :func:`write_run_dir` is its one
writer, :func:`read_run_dir` its one reader.  The sqlite store
(:mod:`repro.service.store`) holds the same documents; JSON is their
export format.

Canonicalisation exists for one hard requirement: a parallel fleet
run must produce **byte-identical** findings to a serial run.  Wall
times, RSS and cache counters obviously differ between runs, so the
canonical document carries only run-independent analysis output, with
findings sorted under a total order, and is serialised with sorted
keys.  :func:`findings_fingerprint` hashes exactly that document.
"""

import hashlib
import json
import os

from repro import faultinject
from repro.errors import PipelineError

_FINDING_SORT_KEYS = (
    "function", "sink_name", "sink_addr", "source_name", "source_addr",
    "kind", "expr", "hops",
)

# Run-independent counters copied from a report dict verbatim.
_REPORT_COUNTERS = (
    "binary", "arch", "analyzed_functions", "total_functions", "blocks",
    "call_graph_edges", "sinks", "indirect_resolved",
)


def _finding_key(finding):
    return tuple(finding.get(name, "") for name in _FINDING_SORT_KEYS)


# Coverage counters carried into the canonical document (the
# "analyzed 45/48, 3 degraded" accounting); elapsed times stay out.
_COVERAGE_FIELDS = (
    "analyzed", "selected", "total", "degraded", "truncated",
    "deadline_truncated", "degraded_callee_sites",
)


_FINDING_SECTIONS = ("vulnerable_paths", "vulnerabilities",
                     "sanitized_paths")


def canonical_report(report_dict):
    """Strip a report dict down to its run-independent analysis output."""
    canonical = {
        name: report_dict.get(name) for name in _REPORT_COUNTERS
    }
    for section in _FINDING_SECTIONS:
        findings = report_dict.get(section, []) or []
        canonical[section] = sorted(findings, key=_finding_key)
    coverage = report_dict.get("coverage", {}) or {}
    canonical["coverage"] = {
        name: coverage.get(name, 0) for name in _COVERAGE_FIELDS
    }
    canonical["degraded"] = sorted(
        (
            {
                "function": d.get("function", ""),
                "addr": d.get("addr", 0),
                "phase": d.get("phase", ""),
                "error_type": d.get("error_type", ""),
                "reason": d.get("reason", ""),
            }
            for d in report_dict.get("degraded_functions", []) or []
        ),
        key=lambda d: (d["addr"], d["function"]),
    )
    return canonical


def canonical_digest(document):
    """SHA-256 over a document's canonical (sorted, compact) JSON bytes."""
    blob = json.dumps(
        document, sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def findings_fingerprint(report_dict):
    """SHA-256 over the canonical findings document."""
    return canonical_digest(canonical_report(report_dict))


def image_document(result):
    """The per-image results document for one terminal job result.

    This is the *only* builder of the per-image shape: the JSON run
    directory (:func:`write_run_dir`), the sqlite store
    (:class:`repro.service.store.ResultsDB`) and the analysis daemon
    all persist exactly this document, which is what makes migration
    between the two lossless.
    """
    document = {
        "job_id": result.job.job_id,
        "target": result.job.describe_target(),
        "alias_engine": getattr(result.job, "alias_engine", "dtaint"),
        "status": result.status,
        "attempts": result.attempts,
        "error": result.error,
        "error_type": result.error_type,
        "elapsed_seconds": result.elapsed,
        "resources": result.resources,
        "cache": result.cache,
        "fired_faults": list(getattr(result, "fired_faults", [])),
    }
    if result.report is not None:
        document["findings"] = canonical_report(result.report)
        document["findings_sha256"] = findings_fingerprint(result.report)
    fingerprints = getattr(result, "fingerprints", None)
    if fingerprints:
        # Position-independent closure fingerprints (incremental
        # runs): the baseline a later --baseline diff matches on.
        document["fingerprints"] = fingerprints
    return document


def rollup_document(results, wall_seconds):
    """The fleet-level rollup document for a batch of job results."""
    rows = []
    totals = {
        "jobs": len(results), "ok": 0, "quarantined": 0,
        "vulnerable_paths": 0, "vulnerabilities": 0,
        "summary_hits": 0, "summary_misses": 0, "report_cache_hits": 0,
        "cache_corrupt": 0,
        "fleet_hits": 0, "fleet_misses": 0,
        "analyzed_functions": 0, "selected_functions": 0,
        "degraded_functions": 0, "truncated_summaries": 0,
    }
    for result in results:
        report = result.report or {}
        paths = len(report.get("vulnerable_paths", []))
        vulns = len(report.get("vulnerabilities", []))
        coverage = report.get("coverage", {}) or {}
        row = {
            "job_id": result.job.job_id,
            "target": result.job.describe_target(),
            "status": result.status,
            "attempts": result.attempts,
            "elapsed_seconds": result.elapsed,
            "vulnerable_paths": paths,
            "vulnerabilities": vulns,
            "degraded": coverage.get("degraded", 0),
            "cache": result.cache,
        }
        if result.report is not None:
            row["findings_sha256"] = findings_fingerprint(result.report)
        rows.append(row)
        totals["ok" if result.status == "ok" else "quarantined"] += 1
        totals["vulnerable_paths"] += paths
        totals["vulnerabilities"] += vulns
        totals["summary_hits"] += result.cache.get("summary_hits", 0)
        totals["summary_misses"] += result.cache.get("summary_misses", 0)
        totals["report_cache_hits"] += int(
            bool(result.cache.get("report_cache_hit"))
        )
        totals["cache_corrupt"] += result.cache.get("cache_corrupt", 0)
        totals["fleet_hits"] += result.cache.get("fleet_hits", 0)
        totals["fleet_misses"] += result.cache.get("fleet_misses", 0)
        totals["analyzed_functions"] += coverage.get("analyzed", 0)
        totals["selected_functions"] += coverage.get("selected", 0)
        totals["degraded_functions"] += coverage.get("degraded", 0)
        totals["truncated_summaries"] += coverage.get("truncated", 0)
    lookups = totals["summary_hits"] + totals["summary_misses"]
    totals["reuse_ratio"] = (
        round(totals["summary_hits"] / lookups, 4) if lookups else 0.0
    )
    return {
        "wall_seconds": wall_seconds,
        "totals": totals,
        "images": rows,
    }


# ---------------------------------------------------------------------------
# The JSON run directory: the one writer, the one reader.

IMAGES_DIR = "images"
ROLLUP_JSON = "fleet.json"
DELTA_JSON = "delta.json"
DIFFCHECK_JSON = "diffcheck.json"


def _write_json(path, document):
    """Atomic JSON write: tmp + ``os.replace``.

    Concurrent fleet workers and a mid-write crash can therefore never
    leave a torn per-image document or rollup on disk — readers see
    either the previous complete file or the new complete file.  The
    ``results`` fault probe sits between serialisation and the rename,
    modelling a worker dying with the tmp file written but the
    publication step not taken.
    """
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            faultinject.check("results", os.path.basename(path))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def write_run_dir(out_dir, rollup=None, images=(), documents=None):
    """Write a run as the JSON directory layout; returns the paths.

    ``images`` are per-image documents (:func:`image_document`);
    ``documents`` maps :data:`DELTA_JSON`/:data:`DIFFCHECK_JSON` to
    documents; the ``rollup`` is written last, so its path is the last
    one returned.
    """
    images_dir = os.path.join(out_dir, IMAGES_DIR)
    os.makedirs(images_dir, exist_ok=True)
    written = []
    for document in images:
        # A job id with path separators (e.g. derived from an image
        # path) must not escape images/ — os.path.join silently
        # discards every prefix before an absolute component.
        safe_id = str(document["job_id"]).replace(os.sep, "_").lstrip("_")
        path = os.path.join(images_dir, "%s.json" % (safe_id or "job"))
        written.append(_write_json(path, document))
    for name, document in sorted((documents or {}).items()):
        written.append(_write_json(os.path.join(out_dir, name), document))
    if rollup:
        path = os.path.join(out_dir, ROLLUP_JSON)
        written.append(_write_json(path, rollup))
    return written


def read_run_dir(path):
    """Read a JSON run directory: ``(rollup, {job_id: doc}, {name: doc})``.

    ``rollup`` is ``None`` without a ``fleet.json``.  Raises
    :class:`PipelineError` on a missing directory or one holding no
    run documents, undecodable JSON, a document that is not an
    object, a per-image ``job_id`` that is not a string, a per-image
    ``findings`` that is not an object, and a findings section that is
    not a list of objects.
    """
    if not os.path.isdir(path):
        raise PipelineError("not a results directory: %s" % path)
    rollup = _read_json(os.path.join(path, ROLLUP_JSON))
    images = {}
    images_dir = os.path.join(path, IMAGES_DIR)
    if os.path.isdir(images_dir):
        for name in sorted(os.listdir(images_dir)):
            if name.endswith(".json"):
                document = _read_json(os.path.join(images_dir, name))
                if not isinstance(document.get("job_id"), str):
                    raise PipelineError("results document %s: job_id is "
                                        "not a string" % name)
                _check_findings(name, document.get("findings"))
                images[document["job_id"]] = document
    documents = {}
    for name in (DELTA_JSON, DIFFCHECK_JSON):
        document = _read_json(os.path.join(path, name))
        if document is not None:
            documents[name] = document
    if rollup is None and not images and not documents:
        raise PipelineError("no results in %s" % path)
    return rollup, images, documents


def _check_findings(name, findings):
    """Reject a per-image ``findings`` its consumers cannot walk."""
    if findings is None:
        return
    if not isinstance(findings, dict):
        raise PipelineError("results document %s: findings is not an "
                            "object" % name)
    for section in _FINDING_SECTIONS:
        entries = findings.get(section)
        if entries is not None and not (
            isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)
        ):
            raise PipelineError("results document %s: findings.%s is not "
                                "a list of objects" % (name, section))


def _read_json(path):
    """One run document as a dict; ``None`` when the file is absent."""
    try:
        with open(path, "r") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise PipelineError("unreadable results document %s: %s"
                            % (path, exc))
    if not isinstance(document, dict):
        raise PipelineError("results document %s is a %s, not an object"
                            % (path, type(document).__name__))
    return document
