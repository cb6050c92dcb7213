"""Interprocedural data flow (paper §III-E, Algorithm 2).

The call graph is traversed bottom-up (callees before callers) and
every function is analysed exactly once.  At each callsite the
callee's exportable definition pairs — those whose defined variable
roots at a formal argument, at the return value, or at a heap object —
are imported into the caller with formals replaced by the callsite's
actual arguments, and ``ret_{callsite}`` symbols are replaced by the
callee's actual return expression.  Library calls apply their
behavioural models instead: sources introduce :class:`SymTaint`
definitions, copies introduce propagation pairs, allocators return
heap objects identified by the hash of the callsite chain.
"""

import pickle
import zlib
from dataclasses import dataclass, field, replace

from repro import faultinject
from repro.core import libc
from repro.profiling import PROFILER
from repro.core.types import root_pointer
from repro.symexec.state import Constraint, DefPair, FunctionSummary
from repro.symexec.value import (
    SymConst,
    SymDeref,
    SymHeap,
    SymRet,
    SymTaint,
    SymVar,
    mk_deref,
    node_set,
    pretty,
    substitute,
)

_ARG_NAMES = tuple("arg%d" % i for i in range(10))
_MAX_IMPORTED_DEFS = 2000
# The engine records one callsite summary per explored path; only the
# first few distinct (addr, args) variants of each call site are
# imported, or the work compounds with the path count.
MAX_VARIANTS_PER_CALLSITE = 4


@dataclass
class EnrichedSummary:
    """A function summary after callee effects were folded in."""

    base: object                       # the FunctionSummary
    def_pairs: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    callsites: list = field(default_factory=list)
    ret_value: object = None           # representative return expression
    taint_objects: set = field(default_factory=set)
    # Callsites whose callee degraded: its effects were replaced by the
    # conservative empty summary (no defs, no constraints, no taint).
    degraded_callee_sites: int = 0

    @property
    def name(self):
        return self.base.name


def _actual_mapping(callsite):
    """formal ``argN`` -> actual expression at this callsite."""
    mapping = {}
    for index, value in enumerate(callsite.args):
        if value is not None:
            mapping[SymVar(_ARG_NAMES[index])] = value
    for index, value in enumerate(callsite.stack_args):
        if value is not None and 4 + index < len(_ARG_NAMES):
            mapping[SymVar(_ARG_NAMES[4 + index])] = value
    return mapping


# Expressions are interned (identity == structural equality), so the
# exportability of a destination is a pure function of the object —
# memoised id-keyed, pinning the expression via the stored reference.
_EXPORTABLE_MEMO = {}


def _exportable(dest):
    """Algorithm 2's check: d.rootPtr is an argument/return/heap pointer."""
    memo = _EXPORTABLE_MEMO.get(id(dest))
    if memo is not None and memo[0] is dest:
        return memo[1]
    root = root_pointer(dest)
    if root is None:
        result = False
    elif isinstance(root, (SymRet, SymHeap, SymTaint)):
        result = True
    else:
        result = isinstance(root, SymVar) and root.name in _ARG_NAMES
    _EXPORTABLE_MEMO[id(dest)] = (dest, result)
    return result


def _chain_hash(function_name, callsite_addr):
    """Heap identity: hash of the callsite chain (paper Listing 1).

    CRC32 rather than ``hash()``: heap identities end up in findings
    and in cached summaries, so they must be stable across interpreter
    runs (``hash()`` of a str is randomised per process).
    """
    key = ("%s@0x%x" % (function_name, callsite_addr)).encode("utf-8")
    return zlib.crc32(key) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Summary serialization (the unit of reuse for the fleet cache).

SUMMARY_FORMAT_VERSION = 3    # v3: hash-consed SymExpr pickle layout
_SUMMARY_MAGIC = b"DTSUM"


def serialize_summary(summary):
    """Encode a :class:`FunctionSummary` as a self-describing blob.

    The header carries a magic and a format version so stale cache
    entries written by an older summary layout decode to ``None``
    (a cache miss) instead of poisoning an analysis.
    """
    payload = pickle.dumps(summary, protocol=4)
    return _SUMMARY_MAGIC + bytes([SUMMARY_FORMAT_VERSION]) + payload


def deserialize_summary(blob):
    """Decode a blob from :func:`serialize_summary`; ``None`` if stale.

    Any mismatch — wrong magic, old format version, undecodable
    pickle, wrong object type — is reported as ``None`` so callers
    fall back to re-analysis.
    """
    header_len = len(_SUMMARY_MAGIC) + 1
    if not isinstance(blob, bytes) or len(blob) <= header_len:
        return None
    if not blob.startswith(_SUMMARY_MAGIC):
        return None
    if blob[len(_SUMMARY_MAGIC)] != SUMMARY_FORMAT_VERSION:
        return None
    try:
        summary = pickle.loads(blob[header_len:])
    except Exception:
        return None
    if not isinstance(summary, FunctionSummary):
        return None
    return summary


class InterproceduralAnalysis:
    """Bottom-up definition updating over the whole call graph."""

    def __init__(self, summaries, call_graph, max_imported=_MAX_IMPORTED_DEFS,
                 degraded=()):
        self.summaries = summaries
        self.call_graph = call_graph
        self.enriched = {}
        self.max_imported = max_imported
        # Names of functions earlier phases gave up on.  Their callsites
        # get the conservative empty summary (skip the import, count the
        # substitution) instead of poisoning the caller.
        self.degraded = set(degraded)
        # (expr, frozen mapping) -> substituted expr.  The same callee
        # definitions get rebased onto the same actual arguments at
        # many call sites (helpers called with the canonical arg tuple
        # everywhere), so this pure-function memo removes most of the
        # substitution work on hot call graphs.
        self._subst_memo = {}
        # Per-callee views that every callsite import would otherwise
        # recompute: the exportable subset of its def pairs and the
        # constraints that mention a formal argument at all (the only
        # ones a callsite mapping can ever rewrite).  Both are pure
        # functions of the finished callee, which bottom-up order
        # guarantees is immutable by the time any caller imports it.
        self._export_memo = {}
        self._argcon_memo = {}

    def _substitute(self, expr, mapping, key):
        # No key of the mapping occurs in the expression: identity.
        # Same check substitute() opens with, hoisted here so no-op
        # rewrites never pay the memo (or bloat it with x -> x rows).
        if not mapping or node_set(expr).isdisjoint(mapping):
            return expr
        token = (expr, key)
        hit = self._subst_memo.get(token)
        if hit is None:
            hit = substitute(expr, mapping)
            if len(self._subst_memo) > 2_000_000:
                self._subst_memo.clear()
            self._subst_memo[token] = hit
        return hit

    def _export_pairs(self, callee):
        pairs = self._export_memo.get(callee.name)
        if pairs is None:
            pairs = tuple(
                pair for pair in callee.def_pairs
                if _exportable(pair.dest)
            )
            self._export_memo[callee.name] = pairs
        return pairs

    def _arg_constraints(self, callee):
        constraints = self._argcon_memo.get(callee.name)
        if constraints is None:
            args = set(SymVar(name) for name in _ARG_NAMES)
            constraints = tuple(
                constraint for constraint in callee.base.constraints
                if not node_set(constraint.expr).isdisjoint(args)
            )
            self._argcon_memo[callee.name] = constraints
        return constraints

    def run(self, names=None, on_fault=None):
        """Process functions callees-first; every function exactly once.

        Names that already have an enriched summary (installed from a
        stored dataflow record) are skipped; their callers import them
        like any other finished callee.  With ``on_fault`` set, a fault
        while enriching one function calls ``on_fault(name, summary,
        exc)`` and drops only that function — its callers then see it
        as a degraded callee.
        """
        order = self.call_graph.bottom_up_order(names)
        with PROFILER.phase("interproc"):
            for name in order:
                summary = self.summaries.get(name)
                if summary is None or name in self.enriched:
                    continue  # import stub, unanalysed or reused
                if on_fault is None:
                    faultinject.check("interproc", name)
                    self.enriched[name] = self._enrich(summary)
                    continue
                try:
                    faultinject.check("interproc", name)
                    self.enriched[name] = self._enrich(summary)
                except Exception as exc:
                    self.degraded.add(name)
                    on_fault(name, summary, exc)
        return self.enriched

    # ------------------------------------------------------------------

    def _enrich(self, summary):
        enriched = EnrichedSummary(base=summary)
        enriched.def_pairs = list(summary.def_pairs)
        enriched.constraints = list(summary.constraints)
        enriched.callsites = list(summary.callsites)

        ret_substitutions = {}
        import_budget = [self.max_imported]
        # Imports are applied per *distinct* (address, arguments) pair,
        # capped at MAX_VARIANTS_PER_CALLSITE per call site.
        variant_counts = {}   # callsite addr -> distinct variants imported
        seen_variants = set()  # (addr, args) pairs already imported
        for callsite in summary.callsites:
            target = callsite.target
            if not isinstance(target, str):
                continue  # unresolved indirect call
            variant_key = (callsite.addr, tuple(callsite.args))
            if variant_key in seen_variants:
                continue
            count = variant_counts.get(callsite.addr, 0)
            if count >= MAX_VARIANTS_PER_CALLSITE:
                continue
            seen_variants.add(variant_key)
            variant_counts[callsite.addr] = count + 1
            first_variant = count == 0
            model = libc.model_for(target)
            if model is not None:
                self._apply_libc(enriched, summary, callsite, model,
                                 ret_substitutions)
                continue
            if target in self.degraded:
                # Conservative empty-summary substitution: the callee
                # contributes no defs, constraints or taint, and its
                # return value stays the opaque ``ret_{callsite}``.
                if first_variant:
                    enriched.degraded_callee_sites += 1
                continue
            callee = self.enriched.get(target)
            if callee is None:
                continue  # recursion inside an SCC, or unanalysed callee
            self._import_callee(enriched, callsite, callee,
                                ret_substitutions, import_budget,
                                import_constraints=first_variant)

        if ret_substitutions:
            # ``ret_substitutions`` is final here, so its frozen form
            # is a stable memo key for the closing rewrite pass.
            rkey = frozenset(ret_substitutions.items())
            enriched.def_pairs = [
                DefPair(
                    dest=self._substitute(p.dest, ret_substitutions, rkey),
                    value=self._substitute(p.value, ret_substitutions,
                                           rkey),
                    site=p.site,
                )
                for p in enriched.def_pairs
            ]
            enriched.constraints = [
                Constraint(
                    expr=self._substitute(c.expr, ret_substitutions, rkey),
                    taken=c.taken, site=c.site,
                )
                for c in enriched.constraints
            ]
            # Rewritten callsites are copies: the base summary's
            # callsites stay exactly as symbolic execution left them.
            callsites = []
            for callsite in enriched.callsites:
                args = [
                    self._substitute(a, ret_substitutions, rkey)
                    if a is not None else None
                    for a in callsite.args
                ]
                if any(new is not old
                       for new, old in zip(args, callsite.args)):
                    callsite = replace(callsite, args=args)
                callsites.append(callsite)
            enriched.callsites = callsites

        enriched.ret_value = self._representative_ret(summary,
                                                      ret_substitutions)
        return enriched

    def _representative_ret(self, summary, ret_substitutions):
        rkey = frozenset(ret_substitutions.items())
        values = []
        for value in summary.ret_values:
            values.append(self._substitute(value, ret_substitutions, rkey))
        distinct = [v for v in dict.fromkeys(values) if v != SymConst(0)]
        if not distinct:
            return SymConst(0)
        # Stable sort by the printable form so the fallback choice does
        # not depend on path-exploration order.
        distinct.sort(key=pretty)
        # Prefer a tainted/heap return among several paths.
        for value in distinct:
            if isinstance(value, (SymTaint, SymHeap)):
                return value
        return distinct[0]

    # ------------------------------------------------------------------

    def _apply_libc(self, enriched, summary, callsite, model,
                    ret_substitutions):
        """Fold a library call's behavioural model into the caller."""
        def arg(index):
            if index < len(callsite.args):
                return callsite.args[index]
            stack_index = index - len(callsite.args)
            if stack_index < len(callsite.stack_args):
                return callsite.stack_args[stack_index]
            return None

        # Sources: the pointee of an argument becomes tainted.
        for index in model.taints_args:
            pointer = arg(index)
            if pointer is None:
                continue
            taint = SymTaint(source=model.name, callsite=callsite.addr)
            enriched.def_pairs.append(
                DefPair(dest=mk_deref(pointer), value=taint,
                        site=callsite.addr)
            )
            enriched.taint_objects.add(pointer)
        # Sources returning a pointer to attacker data.
        if model.taints_ret:
            taint = SymTaint(source=model.name, callsite=callsite.addr)
            ret_sym = SymRet(callsite.addr)
            enriched.def_pairs.append(
                DefPair(dest=mk_deref(ret_sym), value=taint,
                        site=callsite.addr)
            )
            enriched.taint_objects.add(ret_sym)
        # Attacker-influenced byte counts (recv's return).
        if model.ret_attacker_len:
            ret_substitutions[SymRet(callsite.addr)] = SymTaint(
                source="%s:ret" % model.name, callsite=callsite.addr
            )
        # Copies: deref(dst) = deref(src).
        for dst_index, src_index in model.copies:
            dst = SymRet(callsite.addr) if dst_index == -1 else arg(dst_index)
            src = arg(src_index)
            if dst is None or src is None:
                continue
            enriched.def_pairs.append(
                DefPair(dest=mk_deref(dst), value=mk_deref(src),
                        site=callsite.addr)
            )
        # Allocation: unique heap object per callsite chain.
        if model.allocates:
            ret_substitutions[SymRet(callsite.addr)] = SymHeap(
                chain_hash=_chain_hash(summary.name, callsite.addr)
            )

    def _import_callee(self, enriched, callsite, callee, ret_substitutions,
                       budget, import_constraints=True):
        """Algorithm 2: push the callee's exportable defs into the caller.

        ``budget`` is a one-element list holding the caller's remaining
        import allowance — a shared cap across all its callsites, which
        keeps the definition sets from compounding up deep call chains.
        """
        mapping = _actual_mapping(callsite)
        mkey = frozenset(mapping.items())

        # The callee's return expression replaces ret_{callsite}
        # (ReplaceRetVariable) — rebased onto the actual arguments.
        ret_value = callee.ret_value
        if ret_value is not None and not isinstance(ret_value, SymConst):
            rebased = self._substitute(ret_value, mapping, mkey)
            ret_substitutions[SymRet(callsite.addr)] = rebased

        seen = set(
            (p.dest, p.value) for p in enriched.def_pairs[-256:]
        )
        for pair in self._export_pairs(callee):
            if budget[0] <= 0:
                break
            new_dest = self._substitute(pair.dest, mapping, mkey)
            new_value = self._substitute(pair.value, mapping, mkey)
            if (new_dest, new_value) in seen:
                continue
            seen.add((new_dest, new_value))
            enriched.def_pairs.append(
                DefPair(dest=new_dest, value=new_value, site=pair.site)
            )
            budget[0] -= 1

        # Taint objects seen by the callee become visible to the caller
        # under the actual-argument names.
        for pointer in callee.taint_objects:
            enriched.taint_objects.add(
                self._substitute(pointer, mapping, mkey)
            )

        # Constraints the callee applies to its *arguments* travel up
        # (a sanitizing helper counts as sanitization at the caller).
        # Only the callee's own constraints are considered — cascading
        # the transitive closure explodes exponentially on deep call
        # DAGs, and a check more than one level below the sink seldom
        # guards it.
        count = 0
        for constraint in self._arg_constraints(callee):
            if not import_constraints or count >= 32:
                break
            rewritten = self._substitute(constraint.expr, mapping, mkey)
            if rewritten != constraint.expr:
                enriched.constraints.append(
                    Constraint(expr=rewritten, taken=constraint.taken,
                               site=constraint.site)
                )
                count += 1
