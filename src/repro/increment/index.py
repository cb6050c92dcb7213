"""The fleet dedup index: content-addressed cross-binary stores.

Layered *in front of* the per-binary caches in
:mod:`repro.pipeline.cache`, this index keys artefacts by what the
code **is** rather than where it was found:

* ``<cache>/fleet/sum/<xx>/<closure>-<cfgfp>.pkl`` — one function
  summary per (closure fingerprint, summary-config fingerprint); any
  image containing an isomorphic function with an unchanged callee
  closure can rebase and reuse it;
* ``<cache>/fleet/img/<xx>/<imagefp>-<reportfp>.json`` — one whole
  findings document per (image fingerprint, report-config
  fingerprint); reused when a rebuilt image has an identical function
  closure set and the layout shifted rigidly;
* ``<cache>/fleet/img/sha/<xx>/<sha>-<reportfp>.json`` — the same
  findings document keyed by the exact bytes (binary sha256, report-
  config fingerprint), together with the closure fingerprints
  (``name -> {local, closure}``) that ``--baseline`` deltas compare.
  It needs no CFG to compute, so a byte-identical rescan is answered
  before CFG recovery; both image keys live under ``fleet/img``, so
  deleting that directory drops every whole-report record;
* ``<cache>/fleet/flow/<xx>/<key>.pkl`` — one function's dataflow
  record: its :class:`~repro.core.interproc.EnrichedSummary` as
  callers import it, whose ``base`` is the summary after the first
  alias pass, plus the definition pairs after the second alias pass
  and the stray addresses of its callee closure.  The key
  (:func:`repro.increment.reuse.flow_keys`) covers the name, entry
  address, closure fingerprint and literal table of every function in
  that closure, so a hit is served as is, with no relocation.

Records are self-describing (``version`` = ``CACHE_FORMAT_VERSION``);
stale, undecodable or ill-typed records read as misses and are
quarantined the same way the per-binary bundles are.  Writes are
atomic and content-addressed, so racing fleet workers can only ever
write the same bytes to the same key.
"""

import json
import os
import pickle

from repro.core.interproc import (
    EnrichedSummary,
    deserialize_summary,
    serialize_summary,
)
from repro.pipeline.cache import (
    CACHE_FORMAT_VERSION,
    _atomic_write,
    _load_json_record,
    _quarantine,
)
from repro.symexec.state import FunctionSummary


class FleetIndex:
    """On-disk content-addressed store for summaries + findings."""

    def __init__(self, root, config_fp):
        self.root = os.path.join(root, "fleet")
        self.config_fp = config_fp
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stored = 0
        self._pending = {}    # path -> serialized record bytes

    # -- paths -------------------------------------------------------------

    def _summary_path(self, closure):
        name = "%s-%s.pkl" % (closure, self.config_fp)
        return os.path.join(self.root, "sum", closure[:2], name)

    def _image_path(self, image_fp, report_fp):
        name = "%s-%s.json" % (image_fp, report_fp)
        return os.path.join(self.root, "img", image_fp[:2], name)

    def _exact_path(self, sha, report_fp):
        name = "%s-%s.json" % (sha, report_fp)
        return os.path.join(self.root, "img", "sha", sha[:2], name)

    def _flow_path(self, key):
        return os.path.join(self.root, "flow", key[:2], "%s.pkl" % key)

    # -- pickled records ---------------------------------------------------

    def _read_pickle(self, path):
        """The current-format record at ``path`` (staged or on disk).

        ``None`` when absent; an undecodable or stale record is also
        ``None``, after being quarantined and counted.
        """
        record = self._pending.get(path)
        try:
            if record is not None:
                record = pickle.loads(record)
            else:
                with open(path, "rb") as handle:
                    record = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            record = None
        if (not isinstance(record, dict)
                or record.get("version") != CACHE_FORMAT_VERSION):
            self._reject(path)
            return None
        return record

    def _reject(self, path):
        self.corrupt += 1
        _quarantine(path)

    def _stage_pickle(self, path, **fields):
        """Stage one record (first writer wins); ``False`` if present."""
        if path in self._pending or os.path.exists(path):
            return False
        record = dict(fields, version=CACHE_FORMAT_VERSION)
        self._pending[path] = pickle.dumps(record, protocol=4)
        return True

    # -- summaries ---------------------------------------------------------

    def get_summary(self, closure):
        """(summary, literals, strays) for a closure key, or ``None``."""
        path = self._summary_path(closure)
        record = self._read_pickle(path)
        summary = None
        if record is not None:
            summary = deserialize_summary(record.get("blob"))
            if summary is None:
                self._reject(path)
        if summary is None:
            self.misses += 1
            return None
        self.hits += 1
        return (summary, tuple(record.get("literals", ())),
                tuple(record.get("strays", ())))

    def put_summary(self, closure, summary, literals, strays=()):
        """Stage one summary for the closure key (first writer wins)."""
        if self._stage_pickle(
            self._summary_path(closure),
            name=summary.name,
            addr=summary.addr,
            blob=serialize_summary(summary),
            literals=tuple(literals),
            strays=tuple(strays),
        ):
            self.stored += 1

    # -- dataflow records --------------------------------------------------

    def get_flow(self, key, name, addr):
        """(enriched, def_pairs, strays) stored under ``key``, or ``None``.

        A record whose summary is not the function ``name`` at
        ``addr`` that the key was computed for is ill-typed: it is
        quarantined and counted like an undecodable one.
        """
        path = self._flow_path(key)
        record = self._read_pickle(path)
        if record is None:
            return None
        enriched = record.get("enriched")
        base = getattr(enriched, "base", None)
        if (not isinstance(enriched, EnrichedSummary)
                or not isinstance(base, FunctionSummary)
                or base.name != name or base.addr != addr
                or not isinstance(record.get("def_pairs"), list)
                or not isinstance(record.get("strays"), tuple)):
            self._reject(path)
            return None
        return enriched, record["def_pairs"], record["strays"]

    def put_flow(self, key, enriched, def_pairs, strays):
        """Stage one dataflow record (first writer wins).

        ``enriched`` is the summary as callers import it (before the
        second alias pass), ``def_pairs`` its definitions after it.
        """
        self._stage_pickle(self._flow_path(key), enriched=enriched,
                           def_pairs=def_pairs, strays=tuple(strays))

    # -- whole-image findings ----------------------------------------------

    def get_image_report(self, image_fp, report_fp):
        """(report_dict, entries {name: old_addr}) or ``None``."""
        if not image_fp or not report_fp:
            return None
        record = self._read_json(self._image_path(image_fp, report_fp),
                                 {"report": dict, "entries": dict})
        return None if record is None else (record["report"],
                                            record["entries"])

    def put_image_report(self, image_fp, report_fp, report_dict, entries):
        if image_fp and report_fp:
            self._write_json(self._image_path(image_fp, report_fp),
                             report=report_dict, entries=entries)

    def get_exact_report(self, sha, report_fp):
        """(report_dict, fingerprints) for these exact bytes, or ``None``."""
        if not report_fp:
            return None
        record = self._read_json(self._exact_path(sha, report_fp),
                                 {"report": dict, "fingerprints": dict})
        return None if record is None else (record["report"],
                                            record["fingerprints"])

    def put_exact_report(self, sha, report_fp, report_dict, fingerprints):
        if report_fp:
            self._write_json(self._exact_path(sha, report_fp),
                             report=report_dict, fingerprints=fingerprints)

    def _read_json(self, path, fields):
        try:
            return _load_json_record(path, fields)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.corrupt += 1
            _quarantine(path)
            return None

    def _write_json(self, path, **fields):
        if os.path.exists(path):
            return
        record = dict(fields, version=CACHE_FORMAT_VERSION)
        _atomic_write(
            path, json.dumps(record, sort_keys=True).encode("utf-8")
        )

    # -- lifecycle ---------------------------------------------------------

    def flush(self):
        """Persist staged summaries; racing writers write equal bytes."""
        for path, data in self._pending.items():
            if not os.path.exists(path):
                _atomic_write(path, data)
        self._pending.clear()

    @property
    def stats(self):
        return {
            "fleet_hits": self.hits,
            "fleet_misses": self.misses,
            "fleet_stored": self.stored,
            "cache_corrupt": self.corrupt,
        }

