"""Paper Algorithm 1's shared halves, and the engine registry.

The symbolic names already unify "move"-style aliases (``int *p = x;
q = p``).  What Algorithm 1 recovers is the second kind: a pointer
*stored to memory*, ``deref(base1 + offset1) = base2 + offset2``
(Formula 1).  Whenever another definition writes through ``base2``,
the same cell is also reachable through the stored name, so the
definition is re-expressed with ``base2`` replaced by
``deref(base1 + offset1) - offset2`` and added to the definition
pairs.

Both engines run the algorithm in the same three steps, and only the
middle one differs:

* :func:`candidate_stores` (lines 4-7) collects the Formula-1 stores;
* an engine's ``query(summary, types)`` decides which of them it
  believes and returns an :class:`AliasResult` over interned symexec
  values, without touching the summary;
* :func:`apply_entries` (lines 8-13) appends the re-expressed pairs.

An engine's ``apply(summary, types, max_new=512)`` runs its ``query``
and the rewrite on ``summary.def_pairs`` in place (an engine may also
prune the pairs it proved dead) and returns the appended pairs, so
summaries keep one cacheable shape for the increment/dedup layers.
Each engine defines ``apply`` in its own class body: perfbench's span
recorder wraps the two by class attribute.

Engine identity is part of cache identity: ``alias_engine`` is in the
config fingerprint (see ``pipeline/cache.py``), so summaries and
reports produced under one engine are never served to a run using the
other.
"""

from dataclasses import dataclass

from repro.errors import PipelineError
from repro.symexec.state import DefPair
from repro.symexec.value import (
    SymConst,
    SymDeref,
    SymHeap,
    _sort_key,
    base_offset,
    mk_add,
    mk_sub,
    node_set,
    substitute,
)

DEFAULT_ENGINE = "dtaint"
ENGINE_NAMES = ("dtaint", "sse")


@dataclass(frozen=True)
class AliasEntry:
    """``alias = base + offset``: ``alias`` names the cell ``base+offset``."""

    alias: object   # a SymDeref: the stored-to location
    base: object    # the pointer atom stored
    offset: int


@dataclass(frozen=True)
class AliasResult:
    """One engine's verdict over one function summary.

    ``entries`` are the surviving :class:`AliasEntry` rows; ``killed``
    are the definition pairs the engine proved dead (always empty for
    the ``dtaint`` engine, which never prunes).
    """

    engine: str
    entries: tuple = ()
    killed: tuple = ()


def candidate_stores(def_pairs, types):
    """The ALIAS set of Algorithm 1 (lines 4-7), in def-pair order.

    Returns ``(pair, entry)`` for every pointer-valued store through a
    symbolic destination; the defining pair stays attached so an
    engine can prune a store it proves dead.
    """
    candidates = []
    for pair in def_pairs:
        if not isinstance(pair.dest, SymDeref):
            continue
        value = pair.value
        view = base_offset(value)
        if view is None:
            continue
        base, offset = view
        if base is None:
            continue  # constant address, nothing symbolic to alias
        is_pointer = (
            types.is_pointer(base)
            or types.is_pointer(value)
            or isinstance(base, (SymHeap,))
        )
        if not is_pointer:
            continue
        candidates.append(
            (pair, AliasEntry(alias=pair.dest, base=base, offset=offset))
        )
    return candidates


def rewrite_map(aliases):
    """Symmetric rewrite closure over a set of :class:`AliasEntry`.

    A stored pointer gives the cell two names.  Forward (Algorithm 1
    as written): base -> alias - offset, so a definition through the
    original pointer is also visible through the stored name.
    Reverse: alias -> base + offset, so imported definitions expressed
    through the stored name connect to local uses of the original
    pointer.  Returns ``atom -> [(origin, replacement)]``.
    """
    rewrites = {}  # atom -> replacement expr
    for entry in aliases:
        forward = (
            entry.alias if entry.offset == 0
            else mk_sub(entry.alias, SymConst(entry.offset))
        )
        rewrites.setdefault(entry.base, []).append((entry.alias, forward))
        reverse = (
            entry.base if entry.offset == 0
            else mk_add(entry.base, SymConst(entry.offset))
        )
        rewrites.setdefault(entry.alias, []).append((entry.base, reverse))
    return rewrites


def apply_entries(summary, aliases, max_new=512):
    """Append re-expressed definition pairs for ``aliases`` in place.

    The rewrite half of Algorithm 1 (lines 8-13), shared by every
    alias engine: the engines differ only in which :class:`AliasEntry`
    rows they pass in (and which definition pairs survive to be
    rewritten).  Returns the list of added pairs.
    """
    def_pairs = summary.def_pairs
    if not aliases:
        return []

    rewrites = rewrite_map(aliases)

    # Index: which rewritable atoms appear in a destination is a set
    # intersection against its interned sub-node set, not a re-walk —
    # every pointer atom of ``dest`` is one of its sub-nodes, so
    # ``nodes(dest) ∩ rewrite_keys`` covers both halves of the old
    # union and destinations without aliased atoms are skipped in O(1).
    rewrite_keys = frozenset(rewrites)
    existing = set(def_pairs)
    added = []
    for pair in list(def_pairs):
        if not isinstance(pair.dest, SymDeref):
            continue
        mentioned = node_set(pair.dest) & rewrite_keys
        if not mentioned:
            continue
        for ptr in sorted(mentioned, key=_sort_key):
            for origin, replacement in rewrites.get(ptr, ()):
                if origin is pair.dest or replacement is pair.dest:
                    continue  # would rewrite the defining store itself
                new_dest = substitute(pair.dest, {ptr: replacement})
                if new_dest is pair.dest:
                    continue
                new_pair = DefPair(
                    dest=new_dest, value=pair.value, site=pair.site
                )
                if new_pair in existing:
                    continue
                existing.add(new_pair)
                added.append(new_pair)
                if len(added) >= max_new:
                    def_pairs.extend(added)
                    return added
    def_pairs.extend(added)
    return added


_INSTANCES = {}


def get_engine(name):
    """Resolve an engine by name; engines are stateless singletons."""
    name = name or DEFAULT_ENGINE
    engine = _INSTANCES.get(name)
    if engine is None:
        if name == "dtaint":
            from repro.alias.dtaint import DTaintAliasEngine as cls
        elif name == "sse":
            from repro.alias.sse import SseAliasEngine as cls
        else:
            raise PipelineError(
                "unknown alias engine %r (expected one of %s)"
                % (name, ", ".join(ENGINE_NAMES))
            )
        engine = _INSTANCES[name] = cls()
    return engine
