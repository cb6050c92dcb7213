"""Sparse symbolic-execution alias engine (arXiv:2109.12209).

The dtaint engine treats every Formula-1 store (``deref(base1+off1) =
base2+off2``) it can pattern-match as a live alias.  That is the
paper's acknowledged precision bottleneck: a pointer field that is
*overwritten* before the function returns still contributes its stale
alias, and every definition reached through it becomes a false path.

This engine re-executes, sparsely, only the statements that define the
queried pointer cells: for each candidate cell (an interned
``SymDeref`` destination — equality is identity via the PR 3 interning
arenas, so "same cell" is pointer comparison, not a base+offset
pattern match) it replays the function's stores to that cell in site
order and keeps only the reaching definition.  A candidate store that
is definitely superseded by a later store to the *identical* cell is
dead: its :class:`AliasEntry` is dropped and the definition pair
itself is pruned from the summary, so neither the local rewrite pass
nor the interprocedural export ever propagates the stale name.

A kill is suppressed whenever the replay cannot prove the overwrite
executes on every path that executed the candidate:

* either store sits in a loop (``summary.loop_stores``) — iteration
  order is not replayed;
* a path constraint is recorded between the two sites — the overwrite
  may be conditional (``store; if (c) store``);
* on enriched summaries, either pair was imported from a callee —
  sites from different functions are not comparable, so only the
  caller's own stores participate.

Everything that survives goes through the same symmetric rewrite
(``apply_entries``) as the dtaint engine, which keeps the two engines
comparable: they differ only in which stores they believe.
"""

import bisect

from repro.alias.base import AliasResult, apply_entries, candidate_stores
from repro.profiling import PROFILER
from repro.symexec.value import SymDeref


def _constraint_between(con_sites, lo, hi):
    """Any recorded path constraint with a site in ``(lo, hi]``?"""
    index = bisect.bisect_right(con_sites, lo)
    return index < len(con_sites) and con_sites[index] <= hi


def _sparse_resolve(summary, types):
    """Split the candidate stores into (surviving entries, dead pairs)."""
    def_pairs = summary.def_pairs
    base = getattr(summary, "base", None)
    # On an enriched summary only the caller's own pairs have
    # comparable sites; imported callee pairs are never killed and
    # never kill.
    local = None if base is None else set(base.def_pairs)
    origin = summary if base is None else base
    loop_dests = {dest for (_site, dest, _value) in origin.loop_stores}
    con_sites = sorted(c.site for c in origin.constraints)

    candidates = candidate_stores(def_pairs, types)

    # The sparse replay: walk the killable stores per identical cell
    # and remember the last (reaching) definition's site.
    last_site = {}
    for pair in def_pairs:
        if not isinstance(pair.dest, SymDeref):
            continue
        if local is not None and pair not in local:
            continue
        if pair.dest in loop_dests:
            continue
        prev = last_site.get(pair.dest)
        if prev is None or pair.site > prev:
            last_site[pair.dest] = pair.site

    entries, dead = [], []
    for pair, entry in candidates:
        killer = last_site.get(pair.dest, pair.site)
        is_dead = (
            (local is None or pair in local)
            and pair.dest not in loop_dests
            and pair.site < killer
            and not _constraint_between(con_sites, pair.site, killer)
        )
        if is_dead:
            dead.append(pair)
        else:
            entries.append(entry)
    return entries, dead


class SseAliasEngine:
    """Sparse re-execution of pointer-defining statements."""

    name = "sse"

    def query(self, summary, types):
        entries, dead = _sparse_resolve(summary, types)
        return AliasResult(
            engine=self.name, entries=tuple(entries), killed=tuple(dead)
        )

    def apply(self, summary, types, max_new=512):
        with PROFILER.phase("alias"):
            PROFILER.count("alias_queries")
            PROFILER.count("sse_queries")
            result = self.query(summary, types)
            if result.killed:
                dead = set(result.killed)
                summary.def_pairs[:] = [
                    p for p in summary.def_pairs if p not in dead
                ]
                PROFILER.count("sse_killed_stores", len(result.killed))
            return apply_entries(summary, result.entries, max_new)
