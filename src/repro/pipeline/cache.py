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

Cache-key hierarchy
-------------------

Two addressing schemes coexist, from most to least specific:

* **Binary-scoped** (this module) — keyed by *where* the code was
  found: ``(binary-sha256, function-addr, config-fingerprint)``.
  Exact, cheap (one dict probe per function), invalidated wholesale
  by any rebuild.

  - :class:`SummaryCache` — per-function :class:`FunctionSummary`
    blobs, bundled one file per ``(binary, fingerprint)`` pair so a
    warm lookup costs one read, not thousands
    (``<dir>/summaries/<xx>/<sha>-<cfgfp>.pkl``).
  - :class:`ReportCache` — whole-run report dicts keyed by
    ``(binary-sha256, report-fingerprint)``; a hit skips the entire
    analysis, not just symexec
    (``<dir>/reports/<xx>/<sha>-<reportfp>.json``).

* **Content-addressed** (:mod:`repro.increment.index`) — keyed by
  *what* the code is: the function's position-independent Merkle
  closure fingerprint (``<dir>/fleet/sum/...``) or the whole image's
  closure-set fingerprint (``<dir>/fleet/img/...``).  Survives
  relinking, version rebuilds and cross-image duplication; a hit pays
  a relocation pass.  :class:`repro.increment.reuse.
  IncrementalSummaryCache` layers it behind the binary-scoped bundle,
  back-filling the bundle on every fleet hit.  With the fleet index
  on, its image layer replaces :class:`ReportCache` as the one
  whole-report store, for reads and writes alike
  (:class:`repro.pipeline.scheduler.JobCache` holds that policy).
  The image layer has two keys.  The exact-bytes key
  ``(binary-sha256, report-fingerprint)``
  (``<dir>/fleet/img/sha/...``) is probed first, straight after the
  binary is loaded: a byte-identical rescan is served with no
  lifting, CFG recovery or fingerprinting.  Only on its miss does the
  job recover the CFG and probe the closure-set key, which also
  matches relinked and rebased images.
  Between function summaries and whole images sits the dataflow
  layer (``<dir>/fleet/flow/...``): one function's summaries as the
  alias and interprocedural stages leave them, keyed by the name,
  entry address, closure fingerprint and literal table of every
  function in its direct callee closure, plus the knobs those stages
  read.  It is probed before the summary: a hit skips the summary
  read, both alias passes and interproc for that function, and needs
  no relocation.  A patched image misses only where a closure member
  changed or moved.

Both layers share ``config-fingerprint`` semantics (only the knobs
that shape the artefact participate) and ``CACHE_FORMAT_VERSION``.

Writes are atomic (tmp + ``os.replace``) so parallel fleet workers
never expose torn files to each other.  A bundle that fails to load
(torn write survived a crash, disk corruption, stale format) is
**quarantined**: renamed to ``<name>.corrupt`` and counted, so the
fault is visible in telemetry and the next run rebuilds a clean bundle
instead of tripping over the same bytes forever.
"""

import hashlib
import json
import os
import pickle

from repro.core.interproc import (
    SUMMARY_FORMAT_VERSION,
    deserialize_summary,
    serialize_summary,
)

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
CACHE_FORMAT_VERSION = 5

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


def _load_json_record(path, fields=None):
    """The current-format JSON cache record stored at ``path``.

    Raises ``FileNotFoundError`` when the record is absent and
    ``ValueError`` when its bytes do not decode, its ``version`` is not
    :data:`CACHE_FORMAT_VERSION`, or a field named in ``fields``
    (``name -> type``) has another type.  The fleet index's image layer
    quarantines on ``ValueError``; ``cache gc`` deletes.
    """
    with open(path, "rb") as handle:
        record = json.loads(handle.read())
    if (not isinstance(record, dict)
            or record.get("version") != CACHE_FORMAT_VERSION):
        raise ValueError("stale cache record %s" % path)
    for name, kind in (fields or {}).items():
        if not isinstance(record.get(name), kind):
            raise ValueError("ill-typed %r in cache record %s"
                             % (name, path))
    return record


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


class BoundSummaryCache:
    """The summary store scoped to one ``(binary, fingerprint)`` pair.

    This is the object handed to :class:`~repro.core.detector.DTaint`:
    the detector keys by function address only, keeping ``repro.core``
    free of any pipeline-layer concepts.  Summaries are pickled at
    ``put`` time, so later in-place mutation of the live object (the
    alias passes rewrite summaries) never leaks into the cache.
    """

    def __init__(self, path):
        self.path = path
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._bundle = None      # addr -> serialized blob
        self._dirty = False

    def _load(self):
        if self._bundle is not None:
            return self._bundle
        self._bundle = {}
        try:
            with open(self.path, "rb") as handle:
                loaded = pickle.load(handle)
        except FileNotFoundError:
            return self._bundle  # absent == empty cache
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            self.corrupt += 1
            _quarantine(self.path)
            return self._bundle
        if isinstance(loaded, dict):
            self._bundle = loaded
        else:
            self.corrupt += 1
            _quarantine(self.path)
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
        _atomic_write(self.path, pickle.dumps(self._bundle, protocol=4))
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


class ReportCache:
    """Whole-report results keyed by ``(binary-sha256, fingerprint)``."""

    def __init__(self, root):
        self.root = root
        self.corrupt = 0

    def _path(self, sha, fingerprint):
        name = "%s-%s.json" % (sha, fingerprint)
        return os.path.join(self.root, "reports", sha[:2], name)

    def get(self, sha, fingerprint):
        if fingerprint is None:
            return None
        path = self._path(sha, fingerprint)
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.corrupt += 1
            _quarantine(path)
            return None

    def put(self, sha, fingerprint, report_dict):
        if fingerprint is None:
            return
        blob = json.dumps(report_dict, sort_keys=True).encode("utf-8")
        _atomic_write(self._path(sha, fingerprint), blob)


# ---------------------------------------------------------------------------
# Garbage collection (``dtaint cache gc``).


def _summary_blob_stale(blob):
    """True when a bundled blob predates the current summary format."""
    if not isinstance(blob, (bytes, bytearray)) or len(blob) <= 6:
        return True
    if blob[:5] != b"DTSUM":
        return True
    return blob[5] != SUMMARY_FORMAT_VERSION


def _gc_bundle(path, dry_run, stats):
    """Prune stale per-function blobs inside one summary bundle."""
    try:
        with open(path, "rb") as handle:
            bundle = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, ValueError,
            AttributeError, ImportError):
        stats["files_removed"] += 1
        stats["bytes_freed"] += _file_size(path)
        if not dry_run:
            os.unlink(path)
        return
    if not isinstance(bundle, dict):
        stats["files_removed"] += 1
        stats["bytes_freed"] += _file_size(path)
        if not dry_run:
            os.unlink(path)
        return
    stale = [
        addr for addr, blob in bundle.items() if _summary_blob_stale(blob)
    ]
    if not stale:
        return
    stats["stale_summaries"] += len(stale)
    if len(stale) == len(bundle):
        stats["files_removed"] += 1
        stats["bytes_freed"] += _file_size(path)
        if not dry_run:
            os.unlink(path)
        return
    if not dry_run:
        for addr in stale:
            del bundle[addr]
        _atomic_write(path, pickle.dumps(bundle, protocol=4))


def _gc_fleet_record(path, dry_run, stats, has_blob=True):
    """Drop an undecodable fleet-index pickle record, or one written
    under an older cache format (or, with ``has_blob``, an older
    summary format)."""
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
        stale = (not isinstance(record, dict)
                 or record.get("version") != CACHE_FORMAT_VERSION
                 or (has_blob and _summary_blob_stale(record.get("blob"))))
    except (OSError, pickle.UnpicklingError, EOFError, ValueError,
            AttributeError, ImportError):
        stale = True
    if stale:
        stats["stale_summaries"] += 1
        stats["files_removed"] += 1
        stats["bytes_freed"] += _file_size(path)
        if not dry_run:
            os.unlink(path)


def _gc_image_record(path, dry_run, stats):
    """Drop a stale-format or undecodable fleet image record."""
    try:
        _load_json_record(path)
    except FileNotFoundError:
        pass
    except (OSError, ValueError):
        stats["files_removed"] += 1
        stats["bytes_freed"] += _file_size(path)
        if not dry_run:
            os.unlink(path)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def collect_garbage(root, dry_run=False):
    """Prune quarantine leftovers and stale-format cache entries.

    Removes ``*.corrupt`` quarantine files and orphaned ``*.tmp.*``
    writes anywhere under ``root``, deletes fleet-index records (per-
    function summaries, dataflow records and whole-image reports of
    both keys) that do not decode or whose format version is not
    :data:`CACHE_FORMAT_VERSION`, and rewrites
    summary bundles dropping blobs older than the current summary
    format (deleting bundles left empty).  With ``dry_run`` nothing is
    touched; the returned stats describe what *would* happen either
    way: ``corrupt_removed``, ``tmp_removed``, ``stale_summaries``,
    ``files_removed``, ``bytes_freed``.
    """
    stats = {
        "corrupt_removed": 0, "tmp_removed": 0, "stale_summaries": 0,
        "files_removed": 0, "bytes_freed": 0,
    }
    if not os.path.isdir(root):
        return stats
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            if filename.endswith(".corrupt"):
                stats["corrupt_removed"] += 1
                stats["bytes_freed"] += _file_size(path)
                if not dry_run:
                    os.unlink(path)
            elif ".tmp." in filename:
                stats["tmp_removed"] += 1
                stats["bytes_freed"] += _file_size(path)
                if not dry_run:
                    os.unlink(path)
            elif (os.sep + "summaries" + os.sep in path
                    and filename.endswith(".pkl")):
                _gc_bundle(path, dry_run, stats)
            elif (os.sep + os.path.join("fleet", "sum") + os.sep in path
                    and filename.endswith(".pkl")):
                _gc_fleet_record(path, dry_run, stats)
            elif (os.sep + os.path.join("fleet", "flow") + os.sep in path
                    and filename.endswith(".pkl")):
                _gc_fleet_record(path, dry_run, stats, has_blob=False)
            elif (os.sep + os.path.join("fleet", "img") + os.sep in path
                    and filename.endswith(".json")):
                _gc_image_record(path, dry_run, stats)
    return stats
