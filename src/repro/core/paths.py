"""Sink-to-source path generation.

DTaint "tracks the sinks and performs backward depth-first traversal
to generate paths from sinks to sources" (paper §I).  Here the
traversal rewrites a sink's dangerous expression backwards through the
(interprocedurally enriched) definition pairs: each step replaces a
``deref`` sub-expression with its reaching definition, recording the
definition site, until the expression exposes a :class:`SymTaint` — a
source — or no definitions apply.
"""

from dataclasses import dataclass, field

from repro.symexec.value import (
    SymDeref,
    SymTaint,
    derefs_in,
    pretty,
    substitute,
    taints_in,
)


@dataclass
class TaintPath:
    """One resolved source → sink data path."""

    function: str
    sink: object                # the Sink
    source: SymTaint
    expr: object                # the fully rewritten dangerous expression
    steps: list = field(default_factory=list)   # (site, dest, value) hops
    arg_index: int = -1

    @property
    def source_name(self):
        return self.source.source

    @property
    def source_site(self):
        return self.source.callsite

    def describe(self):
        return {
            "function": self.function,
            "sink": "%s@0x%x" % (self.sink.name, self.sink.addr),
            "source": "%s@0x%x" % (self.source_name, self.source_site),
            "expr": pretty(self.expr),
            "hops": len(self.steps),
        }


class PathFinder:
    """Backward DFS over definition pairs."""

    def __init__(self, enriched, taint_objects=None, max_depth=12,
                 max_paths_per_sink=12, max_expansions=800,
                 max_defs_per_var=12):
        self.enriched = enriched
        self.max_depth = max_depth
        self.max_paths_per_sink = max_paths_per_sink
        self.max_expansions = max_expansions
        self.max_defs_per_var = max_defs_per_var
        self._defs_by_dest = {}
        for pair in enriched.def_pairs:
            self._defs_by_dest.setdefault(pair.dest, []).append(pair)
        self.taint_objects = set(taint_objects or enriched.taint_objects)

    # ------------------------------------------------------------------

    def trace(self, sink, expr, arg_index=-1):
        """All taint paths reaching ``expr`` at ``sink``."""
        results = []
        self._expansions = 0
        self._dfs(sink, expr, arg_index, [], set(), results, 0)
        return results

    def _dfs(self, sink, expr, arg_index, steps, visited, results, depth):
        if len(results) >= self.max_paths_per_sink or depth > self.max_depth:
            return
        if self._expansions > self.max_expansions:
            return
        self._expansions += 1
        taints = taints_in(expr)
        if not taints:
            taints = self._object_taints(expr)
        if taints:
            for taint in taints[:1]:
                results.append(
                    TaintPath(
                        function=self.enriched.name, sink=sink, source=taint,
                        expr=expr, steps=list(steps), arg_index=arg_index,
                    )
                )
            return
        rewritten_any = False
        for deref in derefs_in(expr):
            for pair in self._lookup(deref):
                # ``visited`` is scoped to the *current chain*: a key is
                # live only while its rewrite is on the stack (cycle
                # guard), then backtracked so sibling branches may chase
                # the same definition.  The global ``_expansions`` budget
                # bounds total work instead.
                key = (deref, pair.dest, pair.value)
                if key in visited:
                    continue
                new_expr = substitute(expr, {deref: pair.value})
                if new_expr == expr:
                    continue
                rewritten_any = True
                visited.add(key)
                steps.append((pair.site, pair.dest, pair.value))
                self._dfs(sink, new_expr, arg_index, steps, visited,
                          results, depth + 1)
                steps.pop()
                visited.discard(key)
        return rewritten_any

    def _lookup(self, deref):
        """Reaching definitions for a deref (exact canonical match).

        A stack slot redefined on many explored paths can carry dozens
        of definitions; only the first few distinct ones are chased.
        """
        return self._defs_by_dest.get(deref, ())[:self.max_defs_per_var]

    def _object_taints(self, expr):
        """Taint through objects: a tainted pointer, or a deref rooted
        at one.

        Sources taint whole objects (``deref(buf) = taint``): passing
        the pointer itself to a sink (``system(cmd)``) is tainted, and
        so is any load from inside the object (``deref(buf + k)``).
        """
        from repro.symexec.value import base_offset, walk

        for node in walk(expr):
            if node in self.taint_objects:
                return [
                    SymTaint(source=_object_source(self, node),
                             callsite=_object_site(self, node))
                ]
        for deref in derefs_in(expr):
            candidates = [deref.addr]
            view = base_offset(deref.addr)
            if view is not None and view[0] is not None:
                candidates.append(view[0])
            for pointer in candidates:
                if pointer in self.taint_objects:
                    return [
                        SymTaint(source=_object_source(self, pointer),
                                 callsite=_object_site(self, pointer))
                    ]
        return []


def _object_source(finder, pointer):
    for pair in finder.enriched.def_pairs:
        if isinstance(pair.value, SymTaint) and isinstance(
            pair.dest, SymDeref
        ) and pair.dest.addr == pointer:
            return pair.value.source
    return "source"


def _object_site(finder, pointer):
    for pair in finder.enriched.def_pairs:
        if isinstance(pair.value, SymTaint) and isinstance(
            pair.dest, SymDeref
        ) and pair.dest.addr == pointer:
            return pair.value.callsite
    return 0
