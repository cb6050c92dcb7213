"""Top-down worklist DDG construction (the angr-style baseline).

The paper (§V-B): "Angr leverages a worklist-based and iterative
approach to generate interprocedural data flows ... it builds data
dependence on every variable (in the register and memory).  When the
binary complexity is high, it needs to repeatedly build the data flows
for the same block and function with different context."

This module reproduces exactly that cost model on our substrate:

* traversal starts at call-graph roots and descends to callees;
* a function is analysed once per *context* — the last
  ``context_depth`` callsites of the chain that reached it — so shared
  helpers are re-analysed many times;
* the per-function symbolic analysis is re-run from scratch for every
  (function, context) pair (no summary reuse), with register-level
  definition tracking enabled;
* the def-use graph is built over every recorded definition, and the
  whole pass iterates until no context produces new definitions.
"""

import time
from dataclasses import dataclass, field

from repro.symexec import SymbolicEngine
from repro.symexec.value import SymDeref, derefs_in, walk


@dataclass
class DDGStats:
    contexts_analyzed: int = 0
    reanalyses: int = 0          # analyses beyond the first per function
    definitions: int = 0
    edges: int = 0
    iterations: int = 0
    ssa_seconds: float = 0.0
    ddg_seconds: float = 0.0


@dataclass
class TopDownDDG:
    """Builds the baseline DDG for one binary."""

    binary: object
    functions: dict                 # name -> Function (CFGs built)
    call_graph: object
    context_depth: int = 2
    max_contexts_per_function: int = 24
    max_total_contexts: int = 2000  # global budget (keeps benches finite)
    max_iterations: int = 3
    max_fanin: int = 8             # def-use edges chased per dependency
    max_edges_per_context: int = 20000
    stats: DDGStats = field(default_factory=DDGStats)
    graph: object = None
    # (name, context) -> raw per-context summary, filled by build().
    # Differential tooling (repro.diffcheck) derives the baseline's
    # vulnerability verdicts from these.
    analyzed: dict = field(default_factory=dict)

    def roots(self):
        """Functions nobody calls (analysis entry points)."""
        roots = []
        for name, function in self.functions.items():
            if function.is_import:
                continue
            callers = [
                c for c in self.call_graph.callers(name)
                if not self.functions[c].is_import
            ] if name in self.call_graph else []
            if not callers:
                roots.append(name)
        return roots or [
            name for name, function in self.functions.items()
            if not function.is_import
        ][:1]

    # ------------------------------------------------------------------

    def build(self):
        """Run the full baseline; returns the def-use graph."""
        engine = SymbolicEngine(self.binary, track_register_defs=True)
        started = time.perf_counter()

        analyzed = {}           # (name, context) -> summary
        seen_per_function = {}  # name -> context count

        def analyze(name, context):
            function = self.functions.get(name)
            if function is None or function.is_import:
                return None
            if self.stats.contexts_analyzed >= self.max_total_contexts:
                return None
            count = seen_per_function.get(name, 0)
            if count >= self.max_contexts_per_function:
                return None
            seen_per_function[name] = count + 1
            self.stats.contexts_analyzed += 1
            if count:
                self.stats.reanalyses += 1
            # Re-run the symbolic analysis from scratch: this is the
            # per-context cost the paper attributes to angr.
            summary = engine.analyze_function(function)
            analyzed[(name, context)] = summary
            return summary

        for iteration in range(self.max_iterations):
            self.stats.iterations += 1
            changed = False
            worklist = [(name, ()) for name in self.roots()]
            visited = set()
            while worklist:
                name, context = worklist.pop()
                if (name, context) in visited:
                    continue
                visited.add((name, context))
                if (name, context) in analyzed and iteration == 0:
                    summary = analyzed[(name, context)]
                else:
                    summary = analyze(name, context)
                    if summary is not None:
                        changed = True
                if summary is None:
                    continue
                for callsite in summary.callsites:
                    if not isinstance(callsite.target, str):
                        continue
                    callee = self.functions.get(callsite.target)
                    if callee is None or callee.is_import:
                        continue
                    new_context = (context + (callsite.addr,))[
                        -self.context_depth:
                    ]
                    worklist.append((callsite.target, new_context))
            if not changed:
                break
        self.stats.ssa_seconds = time.perf_counter() - started
        self.analyzed = analyzed

        started = time.perf_counter()
        self.graph = self._link_definitions(analyzed)
        self.stats.ddg_seconds = time.perf_counter() - started
        self.stats.edges = sum(len(uses) for uses in self.graph.values())
        return self.graph

    # ------------------------------------------------------------------

    def _link_definitions(self, analyzed):
        """Def-use linking over every variable in every context.

        Returns the def-use graph as a dict: each definition node maps
        to the set of definition nodes that use it.
        """
        graph = {}
        for (name, context), summary in analyzed.items():
            defs_by_var = {}    # defined location -> [(node, value)]
            defs_by_value = {}  # produced value    -> [node]
            node_id = 0

            def add_def(var, value):
                nonlocal node_id
                node = (name, context, "def", node_id)
                node_id += 1
                graph[node] = set()
                defs_by_var.setdefault(var, []).append((node, value))
                if value is not None:
                    defs_by_value.setdefault(value, []).append(node)
                self.stats.definitions += 1
                return node

            for pair in summary.def_pairs:
                add_def(pair.dest, pair.value)
            for reg, site, value in summary.register_defs:
                add_def(("reg", reg, site), value)

            # Link every definition whose value mentions either a
            # defined location or a value another definition produced —
            # the per-context def-use pass angr's DDG performs over
            # registers and memory alike.
            edges_here = 0
            for var, entries in defs_by_var.items():
                if edges_here >= self.max_edges_per_context:
                    break
                for node, value in entries:
                    if value is None:
                        continue
                    for dep in self._mentioned_vars(value):
                        sources = (
                            [n for n, _ in defs_by_var.get(dep, ())]
                            + defs_by_value.get(dep, [])
                        )[:self.max_fanin]
                        for other_node in sources:
                            if other_node != node:
                                graph[other_node].add(node)
                                edges_here += 1
        return graph

    @staticmethod
    def _mentioned_vars(value):
        mentioned = list(derefs_in(value))
        mentioned.extend(
            node for node in walk(value)
            if not isinstance(node, SymDeref)
        )
        return mentioned
