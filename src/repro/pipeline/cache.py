"""Content-addressed stores for per-function summaries and reports.

DTaint's bottom-up design (paper Algorithm 2) makes every per-function
symbolic summary context-independent, so a summary is fully determined
by the binary's bytes, the function's address, and the analysis knobs
that shape symbolic exploration.  That triple —
``(binary-sha256, function-addr, config-fingerprint)`` — is the cache
key: re-scanning an unchanged binary turns the symexec hot path into a
sequence of near-free lookups, and a single flipped byte anywhere in
the binary invalidates everything (content addressing, no mtime
games).

Stores
------

Each cache mode keeps each artefact in exactly one store:

* :class:`ReportCache` — the exact-bytes report record, keyed by
  ``(binary-sha256, report-fingerprint)``
  (``<dir>/reports/<xx>/<sha>-<reportfp>.json``).  Both modes read it
  first; a hit skips the entire analysis.  Fleet-index runs also store
  the closure fingerprints (``name -> {local, closure}``) that
  ``--baseline`` deltas compare, and read a record without them as a
  miss, which their publish then overwrites.
* Per-binary runs keep summaries in :class:`SummaryCache` bundles, one
  file per ``(binary, summary-fingerprint)`` pair so a warm lookup
  costs one read, not thousands
  (``<dir>/summaries/<xx>/<sha>-<cfgfp>.pkl``).
* Fleet-index runs (``--incremental``) keep summaries only in the
  content-addressed index (:mod:`repro.increment.index`), keyed by
  *what* the code is rather than where it was found: per-function
  summaries by closure fingerprint (``fleet/sum``), dataflow records
  (``fleet/flow``) and whole reports by the image's closure-set
  fingerprint (``fleet/img``), which also matches relinked and rebased
  images.  :class:`repro.pipeline.scheduler.JobCache` holds the policy.

Both modes share ``config-fingerprint`` semantics (only the knobs that
shape the artefact participate) and ``CACHE_FORMAT_VERSION``.

Records
-------

Every cache file is one record, written by :func:`write_record` and
read by :func:`read_record`: a one-line header
``DTREC <version> <codec> <crc32>`` followed by the payload, JSON or
pickle.  The payload is decoded only after its ``zlib.crc32`` matches,
so a torn write, a flipped bit or a record of another format version
is rejected before any decoder sees it.  Writes are atomic (tmp +
``os.replace``) so parallel fleet workers never expose torn files to
each other.  A record that fails to read, or whose payload has the
wrong shape, is **quarantined** by its store: renamed to
``<name>.corrupt``, counted in ``cache_corrupt``, and read as a miss,
so the fault is visible in telemetry and the next run rebuilds a clean
record instead of tripping over the same bytes forever.  ``dtaint
cache gc`` deletes quarantined files, stray temporaries and every
record :func:`read_record` rejects.
"""

import hashlib
import json
import os
import pickle
import zlib

from repro.core.interproc import (
    SUMMARY_FORMAT_VERSION,
    deserialize_summary,
    serialize_summary,
)
from repro.errors import PipelineError
from repro.pipeline.results import _check_findings

# v2: reports grew coverage/degraded sections; summaries carry
# deadline_hit (see SUMMARY_FORMAT_VERSION).
# v3: hash-consed SymExpr pickle layout; reports carry phase_profile.
# v4: deadline_seconds joined the summary fingerprint — a summary
# truncated under a tight deadline must never serve a deadline-free
# run (or vice versa).
# v5: alias_engine joined the summary fingerprint — warm caches, the
# increment dedup index and service idempotent submission keys are all
# engine-aware, so artifacts produced under one alias engine are never
# served to a run using the other.
# v6: every cache file is a checksummed record (read_record); the
# exact-bytes report record moved from fleet/img/sha/ to reports/.
CACHE_FORMAT_VERSION = 6

# DTaintConfig knobs that shape the *per-function* summaries (symbolic
# exploration limits) vs. the ones that only steer later whole-report
# stages.  Keeping the summary fingerprint narrow maximises reuse: a
# different trace depth or ablation switch re-detects over the same
# cached summaries.  deadline_seconds belongs here because the soft
# deadline truncates path exploration mid-function.  alias_engine
# belongs here because the increment layer's dedup/reuse records are
# derived from summaries whose downstream life (alias pass, enrich,
# findings reuse) depends on the engine; sharing them across engines
# would let one engine's warm artifacts answer for the other.
_SUMMARY_FIELDS = (
    "max_paths", "max_blocks_per_path", "deadline_seconds", "alias_engine",
)
_REPORT_FIELDS = _SUMMARY_FIELDS + (
    "max_trace_depth", "enable_aliasing", "enable_structure_similarity",
)


def binary_sha256(data):
    """Content address of a binary: hex SHA-256 of its bytes."""
    return hashlib.sha256(data).hexdigest()


def _fingerprint(fields):
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def summary_fingerprint(config):
    """Fingerprint of the config knobs that shape function summaries."""
    fields = {name: getattr(config, name) for name in _SUMMARY_FIELDS}
    fields["cache_version"] = CACHE_FORMAT_VERSION
    fields["summary_version"] = SUMMARY_FORMAT_VERSION
    return _fingerprint(fields)


def report_fingerprint(config):
    """Fingerprint of the full config, or ``None`` when uncacheable.

    A ``function_filter`` callable cannot be fingerprinted reliably,
    so configs carrying one opt out of whole-report caching (summary
    caching still applies — the filter only selects functions).
    """
    if config.function_filter is not None:
        return None
    fields = {name: getattr(config, name) for name in _REPORT_FIELDS}
    fields["modules"] = list(config.modules)
    fields["cache_version"] = CACHE_FORMAT_VERSION
    return _fingerprint(fields)


def _atomic_write(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# The record format every cache file uses.

_RECORD_MAGIC = b"DTREC"
# The record version covers the summary blob format too, so bumping
# either makes every older record stale to ``cache gc``.
_RECORD_VERSION = b"%d.%d" % (CACHE_FORMAT_VERSION, SUMMARY_FORMAT_VERSION)
_CODECS = {
    b"json": (lambda payload: json.dumps(payload, sort_keys=True)
              .encode("utf-8"), json.loads),
    b"pickle": (lambda payload: pickle.dumps(payload, protocol=4),
                pickle.loads),
}


def encode_record(payload, codec):
    """The bytes of one record holding ``payload``, encoded with
    ``codec`` (``"json"`` or ``"pickle"``)."""
    codec = codec.encode("ascii")
    body = _CODECS[codec][0](payload)
    return b"%s %s %s %08x\n%s" % (_RECORD_MAGIC, _RECORD_VERSION, codec,
                                   zlib.crc32(body), body)


def write_record(path, payload, codec):
    """Atomically write one record holding ``payload`` to ``path``."""
    _atomic_write(path, encode_record(payload, codec))


def read_record(path, data=None):
    """The payload of the record at ``path``, or of its bytes ``data``.

    Raises ``FileNotFoundError`` when the record is absent and
    ``ValueError`` when its header is not a current-format record
    header, its checksum does not match, or its payload does not
    decode.  Nothing is decoded before the checksum passes.
    """
    if data is None:
        with open(path, "rb") as handle:
            data = handle.read()
    header, _newline, body = data.partition(b"\n")
    fields = header.split(b" ")
    if (len(fields) != 4 or fields[0] != _RECORD_MAGIC
            or fields[2] not in _CODECS):
        raise ValueError("not a cache record: %s" % path)
    if fields[1] != _RECORD_VERSION:
        raise ValueError("stale cache record %s" % path)
    if fields[3] != b"%08x" % zlib.crc32(body):
        raise ValueError("checksum mismatch in cache record %s" % path)
    try:
        return _CODECS[fields[2]][1](body)
    except (pickle.UnpicklingError, EOFError, ValueError, TypeError,
            AttributeError, ImportError) as exc:
        raise ValueError("undecodable cache record %s: %s"
                         % (path, exc)) from exc


def _quarantine(path):
    """Move a corrupt cache file aside to ``<path>.corrupt``.

    Keeps the evidence for debugging while guaranteeing the bad bytes
    are never re-read; racing workers may both try, so a lost rename
    is fine (the other worker already moved or replaced it).
    """
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        pass


class RecordStore:
    """A store of records that quarantines the ones it cannot use."""

    def __init__(self):
        self.corrupt = 0

    def _read(self, path, check, data=None):
        """The payload at ``path`` (or in ``data``), or ``None``.

        ``None`` when the record is absent; a record that does not
        read, or whose payload fails ``check``, is also ``None``,
        after being quarantined and counted.
        """
        try:
            payload = read_record(path, data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            payload = None
        if payload is not None and check(payload):
            return payload
        self._reject(path)
        return None

    def _reject(self, path):
        """Quarantine and count the record at ``path``."""
        self.corrupt += 1
        _quarantine(path)


def report_ok(report):
    """True when ``report`` has the shape every reader of a report
    dict walks: the findings rules :func:`~repro.pipeline.results.
    read_run_dir` applies, object-typed ``coverage`` and
    ``phase_profile``, and a list of objects as ``degraded_functions``."""
    if not isinstance(report, dict):
        return False
    degraded = report.get("degraded_functions", [])
    if not (isinstance(report.get("coverage", {}), dict)
            and isinstance(report.get("phase_profile", {}), dict)
            and isinstance(degraded, list)
            and all(isinstance(entry, dict) for entry in degraded)):
        return False
    try:
        _check_findings("cached report", report)
    except PipelineError:
        return False
    return True


def _report_record_ok(record):
    return (isinstance(record, dict) and report_ok(record.get("report"))
            and isinstance(record.get("fingerprints"), (dict, type(None))))


def _is_dict(payload):
    return isinstance(payload, dict)


# ---------------------------------------------------------------------------
# The stores.


class BoundSummaryCache(RecordStore):
    """The summary store scoped to one ``(binary, fingerprint)`` pair.

    This is the object handed to :class:`~repro.core.detector.DTaint`:
    the detector keys by function address only, keeping ``repro.core``
    free of any pipeline-layer concepts.  Summaries are pickled at
    ``put`` time, so later in-place mutation of the live object (the
    alias passes rewrite summaries) never leaks into the cache.
    """

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.hits = 0
        self.misses = 0
        self._bundle = None      # addr -> serialized blob
        self._dirty = False

    def _load(self):
        if self._bundle is None:
            self._bundle = self._read(self.path, _is_dict) or {}
        return self._bundle

    def get(self, addr):
        """Deserialized summary for ``addr``, or ``None`` (counted)."""
        blob = self._load().get(addr)
        summary = deserialize_summary(blob) if blob is not None else None
        if summary is None:
            self.misses += 1
        else:
            self.hits += 1
        return summary

    def put(self, addr, summary):
        self._load()[addr] = serialize_summary(summary)
        self._dirty = True

    def export_blobs(self, addrs=None):
        """Serialized blobs for ``addrs`` (all when ``None``).

        Shard workers use this to ship their freshly-``put`` pre-alias
        blobs to the merge task, which preloads them and performs the
        single whole-file flush (the bundle's write protocol is
        replace-whole-file — concurrent shard flushes would clobber
        each other).
        """
        bundle = self._load()
        if addrs is None:
            return dict(bundle)
        return {
            addr: bundle[addr] for addr in addrs if addr in bundle
        }

    def preload(self, blobs):
        """Adopt shipped blobs; existing entries win, new ones dirty."""
        bundle = self._load()
        for addr, blob in blobs.items():
            if addr not in bundle:
                bundle[addr] = blob
                self._dirty = True

    def flush(self):
        """Persist the bundle atomically; no-op when nothing changed."""
        if not self._dirty:
            return
        write_record(self.path, self._bundle, "pickle")
        self._dirty = False

    @property
    def stats(self):
        return {
            "summary_hits": self.hits,
            "summary_misses": self.misses,
            "cache_corrupt": self.corrupt,
        }


class SummaryCache:
    """Root of the on-disk summary store (``<dir>/summaries/``)."""

    def __init__(self, root):
        self.root = root

    def for_binary(self, sha, config):
        """A :class:`BoundSummaryCache` for one binary + config."""
        name = "%s-%s.pkl" % (sha, summary_fingerprint(config))
        return BoundSummaryCache(
            os.path.join(self.root, "summaries", sha[:2], name)
        )


class ReportCache(RecordStore):
    """Exact-bytes report records keyed by ``(binary-sha256,
    report-fingerprint)``, with the closure fingerprints of fleet-index
    runs."""

    def __init__(self, root):
        super().__init__()
        self.root = root

    def _path(self, sha, fingerprint):
        name = "%s-%s.json" % (sha, fingerprint)
        return os.path.join(self.root, "reports", sha[:2], name)

    def get(self, sha, fingerprint):
        """``(report, fingerprints)`` stored for these bytes, or ``None``.

        ``fingerprints`` is ``None`` in a record a per-binary run wrote.
        """
        if fingerprint is None:
            return None
        record = self._read(self._path(sha, fingerprint), _report_record_ok)
        return None if record is None else (record["report"],
                                            record.get("fingerprints"))

    def put(self, sha, fingerprint, report_dict, fingerprints=None):
        if fingerprint is None:
            return
        write_record(self._path(sha, fingerprint),
                     {"report": report_dict, "fingerprints": fingerprints},
                     "json")


# ---------------------------------------------------------------------------
# Garbage collection (``dtaint cache gc``).

# The top-level directories under a cache root that hold records.
_RECORD_DIRS = ("summaries", "reports", "fleet")


def _unreadable(path):
    try:
        read_record(path)
    except FileNotFoundError:
        return False
    except (OSError, ValueError):
        return True
    return False


def collect_garbage(root, dry_run=False):
    """Prune quarantine leftovers and every record that does not read.

    Removes ``*.corrupt`` quarantine files and orphaned ``*.tmp.*``
    writes anywhere under ``root``, and every file in a record
    directory (``summaries/``, ``reports/``, ``fleet/``) that
    :func:`read_record` rejects: undecodable, checksum-damaged, or
    written under another record version.  With ``dry_run`` nothing is
    touched; the returned stats describe what *would* happen either
    way: ``corrupt_removed``, ``tmp_removed``, ``files_removed`` (the
    rejected records) and ``bytes_freed``.
    """
    stats = {
        "corrupt_removed": 0, "tmp_removed": 0, "files_removed": 0,
        "bytes_freed": 0,
    }
    if not os.path.isdir(root):
        return stats
    for dirpath, _dirnames, filenames in os.walk(root):
        top = os.path.relpath(dirpath, root).split(os.sep)[0]
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            if filename.endswith(".corrupt"):
                counter = "corrupt_removed"
            elif ".tmp." in filename:
                counter = "tmp_removed"
            elif top in _RECORD_DIRS and _unreadable(path):
                counter = "files_removed"
            else:
                continue
            stats[counter] += 1
            try:
                stats["bytes_freed"] += os.path.getsize(path)
                if not dry_run:
                    os.unlink(path)
            except OSError:
                pass
    return stats
