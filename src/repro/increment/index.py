"""The fleet dedup index: content-addressed cross-binary stores.

A fleet-index run (``--incremental``) keeps its summaries only here.
The index keys artefacts by what the code **is** rather than where it
was found:

* ``<cache>/fleet/sum/<xx>/<closure>-<cfgfp>.pkl`` — one function
  summary per (closure fingerprint, summary-config fingerprint); any
  image containing an isomorphic function with an unchanged callee
  closure can rebase and reuse it;
* ``<cache>/fleet/img/<xx>/<imagefp>-<reportfp>.json`` — one whole
  findings document per (image fingerprint, report-config
  fingerprint); reused when a rebuilt image has an identical function
  closure set and the layout shifted rigidly.  The exact-bytes report
  record, which answers a byte-identical rescan before any CFG
  recovery, is :class:`repro.pipeline.cache.ReportCache`'s, shared
  with per-binary runs;
* ``<cache>/fleet/flow/<xx>/<key>.pkl`` — one function's dataflow
  record: its :class:`~repro.core.interproc.EnrichedSummary` as
  callers import it, whose ``base`` is the summary after the first
  alias pass, plus the definition pairs after the second alias pass
  and the stray addresses of its callee closure.  The key
  (:func:`repro.increment.reuse.flow_keys`) covers the name, entry
  address, closure fingerprint and literal table of every function in
  that closure, so a hit is served as is, with no relocation.

Every file is a checked record (:func:`repro.pipeline.cache.
read_record`); a record that does not read or is ill-typed reads as a
miss and is quarantined and counted.  Writes are atomic and content-
addressed, so racing fleet workers can only ever write the same bytes
to the same key.
"""

import os

from repro.core.interproc import (
    EnrichedSummary,
    deserialize_summary,
    serialize_summary,
)
from repro.pipeline.cache import (
    RecordStore,
    _atomic_write,
    _is_dict,
    encode_record,
    report_ok,
    write_record,
)
from repro.symexec.state import FunctionSummary


class FleetIndex(RecordStore):
    """On-disk content-addressed store for summaries + findings."""

    def __init__(self, root, config_fp):
        super().__init__()
        self.root = os.path.join(root, "fleet")
        self.config_fp = config_fp
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self._pending = {}    # path -> encoded record bytes

    # -- paths -------------------------------------------------------------

    def _summary_path(self, closure):
        name = "%s-%s.pkl" % (closure, self.config_fp)
        return os.path.join(self.root, "sum", closure[:2], name)

    def _image_path(self, image_fp, report_fp):
        name = "%s-%s.json" % (image_fp, report_fp)
        return os.path.join(self.root, "img", image_fp[:2], name)

    def _flow_path(self, key):
        return os.path.join(self.root, "flow", key[:2], "%s.pkl" % key)

    # -- staged records ----------------------------------------------------

    def _read_staged(self, path, check):
        """The record at ``path``, staged or on disk (see ``_read``)."""
        return self._read(path, check, self._pending.get(path))

    def _stage(self, path, **fields):
        """Stage one record (first writer wins); ``False`` if present."""
        if path in self._pending or os.path.exists(path):
            return False
        self._pending[path] = encode_record(fields, "pickle")
        return True

    # -- summaries ---------------------------------------------------------

    def get_summary(self, closure):
        """(summary, literals, strays) for a closure key, or ``None``."""
        path = self._summary_path(closure)
        record = self._read_staged(path, _is_dict)
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
        if self._stage(
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
        def check(record):
            enriched = _is_dict(record) and record.get("enriched")
            base = getattr(enriched, "base", None)
            return (isinstance(enriched, EnrichedSummary)
                    and isinstance(base, FunctionSummary)
                    and base.name == name and base.addr == addr
                    and isinstance(record.get("def_pairs"), list)
                    and isinstance(record.get("strays"), tuple))

        record = self._read_staged(self._flow_path(key), check)
        if record is None:
            return None
        return record["enriched"], record["def_pairs"], record["strays"]

    def put_flow(self, key, enriched, def_pairs, strays):
        """Stage one dataflow record (first writer wins).

        ``enriched`` is the summary as callers import it (before the
        second alias pass), ``def_pairs`` its definitions after it.
        """
        self._stage(self._flow_path(key), enriched=enriched,
                    def_pairs=def_pairs, strays=tuple(strays))

    # -- whole-image findings ----------------------------------------------

    def get_image_report(self, image_fp, report_fp):
        """(report_dict, entries {name: old_addr}) or ``None``."""
        if not image_fp or not report_fp:
            return None
        record = self._read(
            self._image_path(image_fp, report_fp),
            lambda record: (_is_dict(record)
                            and report_ok(record.get("report"))
                            and _is_dict(record.get("entries"))),
        )
        return None if record is None else (record["report"],
                                            record["entries"])

    def put_image_report(self, image_fp, report_fp, report_dict, entries):
        if not image_fp or not report_fp:
            return
        path = self._image_path(image_fp, report_fp)
        if not os.path.exists(path):
            write_record(path, {"report": report_dict, "entries": entries},
                         "json")

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
