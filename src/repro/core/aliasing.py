"""Pointer-alias recognition (paper Algorithm 1).

The symbolic names already unify "move"-style aliases (``int *p = x;
q = p``).  What Algorithm 1 recovers is the second kind: a pointer
*stored to memory*, ``deref(base1 + offset1) = base2 + offset2``
(Formula 1).  Whenever another definition writes through ``base2``,
the same cell is also reachable through the stored name, so the
definition is re-expressed with ``base2`` replaced by
``deref(base1 + offset1) - offset2`` and added to the definition
pairs.
"""

from dataclasses import dataclass

from repro.profiling import PROFILER
from repro.symexec.state import DefPair
from repro.symexec.value import (
    SymDeref,
    SymHeap,
    _sort_key,
    base_offset,
    mk_add,
    mk_sub,
    node_set,
    substitute,
    SymConst,
)


@dataclass(frozen=True)
class AliasEntry:
    """``alias = base + offset``: ``alias`` names the cell ``base+offset``."""

    alias: object   # a SymDeref: the stored-to location
    base: object    # the pointer atom stored
    offset: int


def find_aliases(def_pairs, types):
    """Collect the ALIAS set of Algorithm 1 (lines 4-7)."""
    aliases = []
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
        aliases.append(AliasEntry(alias=pair.dest, base=base, offset=offset))
    return aliases


def alias_replace(summary, types, max_new=512):
    """Run Algorithm 1 over ``summary.def_pairs`` in place.

    For every definition whose variable mentions an aliased base
    pointer, a new definition pair naming the same object through the
    alias is appended.  Returns the list of added pairs.
    """
    with PROFILER.phase("alias"):
        PROFILER.count("alias_queries")
        return _alias_replace(summary, types, max_new)


def _alias_replace(summary, types, max_new):
    aliases = find_aliases(summary.def_pairs, types)
    return apply_entries(summary, aliases, max_new)


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
