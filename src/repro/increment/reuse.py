"""The incremental summary cache: the fleet index, bound to one binary.

:class:`IncrementalSummaryCache` presents the exact ``get(addr)`` /
``put(addr, summary)`` / ``hits`` / ``misses`` surface the detector
already binds to, so ``repro.core`` stays free of pipeline concepts.
The additions are duck-typed hooks the detector looks up by name.
``bind_functions``, called right after call-graph construction,
computes the position-independent fingerprints this cache keys the
fleet layer by (timed under the ``increment`` profiler phase); the
dataflow-record hooks are described below.

A summary is looked up in the fleet index by closure fingerprint and
rebased onto this binary's layout on a hit; a fleet-index run keeps no
per-binary bundle.  A byte-identical rescan normally reads no
summary at all: the exact-bytes report record answers it first
(:class:`repro.pipeline.scheduler.JobCache`).

In front of the summary, the detector asks ``get_flow`` for a function's
dataflow record: its summaries as the alias and interprocedural stages
left them.  ``bind_functions`` also computes the record keys
(:func:`flow_keys`); ``put_flow`` stages a record for every function
the detector enriched itself, unless a function its record depends on
degraded.  The detector serves a recursion SCC all or nothing.  A
patched image thus re-runs alias and interproc only for functions
whose callee closure changed or moved.
"""

import hashlib
from dataclasses import dataclass, replace

from repro import profiling
from repro.increment.fingerprint import (
    fingerprint_functions,
    image_fingerprint,
)
from repro.increment.index import FleetIndex
from repro.increment.relocate import (
    relocate_summary,
    stray_addresses,
    strays_compatible,
)
from repro.pipeline.cache import summary_fingerprint


class IncrementalSummaryCache:
    """The fleet index as the detector's summary store."""

    def __init__(self, index, flow_config):
        self.index = index
        self.flow_config = flow_config  # salts the dataflow keys
        self.binary = None
        self.fingerprints = {}          # name -> FunctionFingerprint
        self.flows = {}                 # name -> FlowKey
        self._by_addr = {}              # entry addr -> FunctionFingerprint
        self._strays = {}               # name -> strays of its summary
        self._seeded = False
        self.hits = 0
        self.misses = 0
        self.flow_hits = 0

    # -- detector hooks ----------------------------------------------------

    def seed_fingerprints(self, binary, fingerprints, flows=None):
        """Adopt fingerprints and dataflow keys computed elsewhere.

        Shard workers recover only their subset of the CFG; closure
        digests and dataflow keys recomputed over such a partial call
        graph would be wrong (cross-shard callee edges missing).  The
        plan task computes both once on the full graph and ships them,
        and this seeding makes the subsequent ``bind_functions`` hook a
        no-op.  A seeded cache writes dataflow records (the merge runs
        the dataflow stages) but never serves them: shard tasks only
        run part of the pipeline.
        """
        self.binary = binary
        self.fingerprints = dict(fingerprints)
        self.flows = dict(flows or {})
        self._by_addr = {fp.addr: fp for fp in self.fingerprints.values()}
        self._seeded = True

    def bind_functions(self, binary, functions, call_graph):
        """Fingerprint the recovered functions (detector build_cfg hook)."""
        if self._seeded:
            return
        with profiling.PROFILER.phase("increment"):
            self.binary = binary
            self.fingerprints = fingerprint_functions(
                binary, functions, call_graph
            )
            self._by_addr = {
                fp.addr: fp for fp in self.fingerprints.values()
            }
            self.flows = flow_keys(binary, functions, self.fingerprints,
                                   self.flow_config)
            profiling.PROFILER.count(
                "fingerprinted_functions", len(self.fingerprints)
            )

    def get(self, addr):
        fingerprint = self._by_addr.get(addr)
        if fingerprint is None:
            self.misses += 1
            return None
        with profiling.PROFILER.phase("increment"):
            hit = self.index.get_summary(fingerprint.closure)
            summary = None
            if hit is not None:
                stored, old_literals, strays = hit
                if strays_compatible(self.binary, strays):
                    summary = relocate_summary(
                        stored, fingerprint.name, addr,
                        old_literals, fingerprint.literals,
                    )
        if summary is None:
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, addr, summary):
        fingerprint = self._by_addr.get(addr)
        if fingerprint is None or self.binary is None:
            return
        with profiling.PROFILER.phase("increment"):
            strays = stray_addresses(
                summary, self.binary, fingerprint.literals
            )
            self.index.put_summary(
                fingerprint.closure, summary, fingerprint.literals,
                strays=strays,
            )

    # -- dataflow records --------------------------------------------------

    def get_flow(self, addr):
        """``(enriched, def_pairs, watch, group)`` stored for ``addr``,
        or ``None``.

        The detector installs ``enriched`` (and its ``base``) instead
        of reading, aliasing and enriching the summary, then
        ``def_pairs`` in place of the second alias pass.  ``watch``
        names the functions whose degradation in this run voids the
        record, ``group`` the recursion SCC served all or nothing
        (:meth:`drop_flow` un-counts a voided hit).  A hit counts as a
        summary hit.
        """
        fingerprint = self._by_addr.get(addr)
        flow = None if fingerprint is None else self.flows.get(
            fingerprint.name
        )
        if flow is None or self._seeded:
            return None
        with profiling.PROFILER.phase("increment"):
            hit = self.index.get_flow(flow.key, fingerprint.name, addr)
            if hit is None or not strays_compatible(self.binary, hit[2]):
                return None
        self.hits += 1
        self.flow_hits += 1
        return hit[0], hit[1], flow.watch, flow.group

    def drop_flow(self):
        """Un-count a :meth:`get_flow` hit the detector did not use."""
        self.hits -= 1
        self.flow_hits -= 1

    def put_flow(self, enriched, imported, summaries, degraded):
        """Stage ``enriched``'s dataflow record, if it may have one.

        ``imported`` is its definition list as callers imported it,
        before the second alias pass; ``summaries`` maps names to the
        base summaries after the first alias pass, which the record's
        strays are computed from (once per closure member and run).
        Nothing is written when a function the record depends on is in
        ``degraded``.
        """
        flow = self.flows.get(enriched.name)
        if (flow is None or self.binary is None
                or not degraded.keys().isdisjoint(flow.watch)):
            return
        with profiling.PROFILER.phase("increment"):
            strays = set()
            for member in flow.closure:
                member_strays = self._strays.get(member)
                if member_strays is None:
                    summary = summaries.get(member)
                    if summary is None:
                        return
                    member_strays = self._strays[member] = stray_addresses(
                        summary, self.binary,
                        self.fingerprints[member].literals,
                    )
                strays.update(member_strays)
            self.index.put_flow(
                flow.key, replace(enriched, def_pairs=imported),
                enriched.def_pairs, sorted(strays),
            )

    def flush(self):
        """Persist staged records (content addressed, first writer
        wins, so shard workers flush concurrently)."""
        self.index.flush()

    # -- whole-image findings reuse ----------------------------------------

    def image_fingerprint(self, report_fp):
        """Content address of this image's analysis identity, or ``None``."""
        if not self.fingerprints or self.binary is None or not report_fp:
            return None
        with profiling.PROFILER.phase("increment"):
            return image_fingerprint(
                self.fingerprints, self.binary, report_fp
            )

    def lookup_image_report(self, report_fp):
        """A relocated cached findings document, or ``None``."""
        image_fp = self.image_fingerprint(report_fp)
        if image_fp is None:
            return None
        hit = self.index.get_image_report(image_fp, report_fp)
        if hit is None:
            return None
        report_dict, entries = hit
        new_entries = {
            name: fp.addr for name, fp in self.fingerprints.items()
        }
        return relocate_report(report_dict, entries, new_entries)

    def store_image_report(self, report_fp, report_dict):
        image_fp = self.image_fingerprint(report_fp)
        if image_fp is None:
            return
        entries = {
            name: fp.addr for name, fp in self.fingerprints.items()
        }
        self.index.put_image_report(
            image_fp, report_fp, report_dict, entries
        )

    # -- accounting --------------------------------------------------------

    @property
    def stats(self):
        lookups = self.hits + self.misses
        stats = {
            "summary_hits": self.hits,
            "summary_misses": self.misses,
            "flow_hits": self.flow_hits,
            "reuse_ratio": round(self.hits / lookups, 4) if lookups else 0.0,
        }
        stats.update(self.index.stats)
        return stats

    def closure_fingerprints(self):
        """name -> {local, closure} digests (shipped in fleet image
        documents; the shape :func:`repro.increment.delta.classify_functions`
        compares directly)."""
        return {
            name: {"local": fp.local, "closure": fp.closure}
            for name, fp in self.fingerprints.items()
        }


_ADDR_FIELDS = ("sink_addr", "source_addr")


def relocate_report(report_dict, old_entries, new_entries):
    """Shift a cached findings document onto a new layout, or ``None``.

    Sound only when every matched function moved by the same offset
    (findings carry cross-function addresses — a forwarded sink's
    source can live in a different function — so per-function deltas
    cannot be applied field-by-field).  The common cases are covered:
    the identical binary (offset 0) and a rigidly rebased one.
    """
    deltas = set()
    for name, old_addr in old_entries.items():
        new_addr = new_entries.get(name)
        if new_addr is None:
            return None
        deltas.add(new_addr - old_addr)
    if len(deltas) > 1:
        return None
    offset = deltas.pop() if deltas else 0
    if offset == 0:
        return report_dict
    import copy

    shifted = copy.deepcopy(report_dict)
    for section in ("vulnerable_paths", "vulnerabilities",
                    "sanitized_paths"):
        for finding in shifted.get(section, []) or []:
            for fld in _ADDR_FIELDS:
                if isinstance(finding.get(fld), int) and finding[fld]:
                    finding[fld] += offset
    for degraded in shifted.get("degraded_functions", []) or []:
        if isinstance(degraded.get("addr"), int) and degraded["addr"]:
            degraded["addr"] += offset
    return shifted


def open_incremental_cache(cache_dir, config):
    """The fleet-index summary store for ``config`` under ``cache_dir``."""
    config_fp = summary_fingerprint(config)
    index = FleetIndex(cache_dir, config_fp)
    flow_config = "%s:aliasing=%d:similarity=%d" % (
        config_fp, config.enable_aliasing,
        config.enable_structure_similarity,
    )
    return IncrementalSummaryCache(index, flow_config)


@dataclass(frozen=True)
class FlowKey:
    """Where one function's dataflow record lives and what voids it.

    ``closure`` is the function and every analysed function it reaches
    over direct calls; ``watch`` adds their direct callees by symbol,
    including functions whose CFG could not be recovered.  ``group``
    is the function's recursion SCC: a cold run enriches its members
    in a fixed order, each importing only the members enriched before
    it, so the group is served all or nothing.
    """

    key: str
    closure: frozenset
    watch: frozenset
    group: frozenset


def flow_keys(binary, functions, fingerprints, flow_config):
    """``name -> FlowKey`` for every function eligible for a record.

    An enriched summary is a function of the summaries in its direct
    callee closure (``FunctionFingerprint.reach``) and of where they
    sit, so the key hashes ``flow_config`` and, for each closure
    member sorted by name, its name, entry address, closure
    fingerprint and literal table.  A function gets no key when a
    closure member has an indirect call site: similarity resolution
    may add edges there.
    """
    names_by_addr = {s.addr: s.name for s in binary.functions.values()}
    indirect, targets = set(), {}
    for name in fingerprints:
        named = set()
        for site in functions[name].call_sites:
            if site.is_indirect:
                indirect.add(name)
            elif site.target_addr in names_by_addr:
                named.add(names_by_addr[site.target_addr])
        targets[name] = named

    keys = {}
    for name, fingerprint in fingerprints.items():
        closure = fingerprint.reach
        if not indirect.isdisjoint(closure):
            continue
        rows = [flow_config, name]
        for member in sorted(closure):
            fp = fingerprints[member]
            rows.append("%s@%x=%s:%s" % (
                member, fp.addr, fp.closure,
                ",".join("%x" % value for value in fp.literals),
            ))
        keys[name] = FlowKey(
            key=hashlib.sha256("\n".join(rows).encode("utf-8"))
            .hexdigest()[:32],
            closure=closure,
            watch=closure.union(*(targets[m] for m in closure)),
            group=fingerprint.scc,
        )
    return keys

