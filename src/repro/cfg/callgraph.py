"""Whole-binary call graph.

Direct call edges come from resolved call sites; indirect call sites
are kept aside for DTaint's data-structure-similarity resolution, which
adds edges later via :meth:`CallGraph.add_indirect_edge`.

The graph is plain dicts, and :func:`condense` is the one call-graph
condensation every bottom-up walk uses (symbolic summaries,
fingerprint closures, shard planning).  Nothing here refers back to
itself, so a finished scan's graph is freed by reference counting
alone.
"""


def condense(adjacency):
    """Strongly connected components of a digraph, callees first.

    ``adjacency`` maps each node to an iterable of its successors;
    successors that are not keys are ignored, so a dict restricted to
    some nodes condenses their induced subgraph.  Returns the SCCs as
    lists, ordered so that for every edge ``u -> v`` the SCC of ``v``
    comes no later than the SCC of ``u``.  Iterative Tarjan: no
    recursion limit, and the output depends only on the order of the
    keys and of each successor iterable.
    """
    index = {}
    low = {}
    stack = []
    on_stack = set()
    sccs = []
    for root in adjacency:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in adjacency:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(scc)
    return sccs


class CallGraph:
    """A directed call graph over function names."""

    def __init__(self):
        self._functions = {}   # name -> Function
        self._callees = {}     # name -> {callee: None}, in edge order
        self._callers = {}     # name -> {caller: None}, in edge order
        self.indirect_sites = []  # (caller_name, CallSite)

    def _add_node(self, name):
        if name not in self._callees:
            self._callees[name] = {}
            self._callers[name] = {}

    def add_function(self, function):
        self._add_node(function.name)
        self._functions[function.name] = function

    def add_edge(self, caller, callee):
        self._add_node(caller)
        self._add_node(callee)
        self._callees[caller][callee] = None
        self._callers[callee][caller] = None

    def add_indirect_edge(self, caller, callee, callsite):
        """Record an indirect-call edge resolved by layout similarity."""
        self.add_edge(caller, callee)
        callsite.target_name = callee

    def __contains__(self, name):
        return name in self._callees

    def callees(self, name):
        return list(self._callees[name])

    def callers(self, name):
        return list(self._callers[name])

    def edges(self):
        """Every ``(caller, callee)`` pair, callers in node order."""
        return [
            (caller, callee)
            for caller, callees in self._callees.items()
            for callee in callees
        ]

    def function(self, name):
        return self._functions[name]

    @property
    def edge_count(self):
        return sum(len(callees) for callees in self._callees.values())

    def bottom_up_order(self, names=None):
        """Functions in callees-before-callers order (paper §III-E).

        Cycles (recursion) are collapsed into SCCs whose members are
        emitted together, in reverse name order.
        """
        adjacency = self._callees
        if names is not None:
            adjacency = {
                name: adjacency[name] for name in names if name in adjacency
            }
        order = []
        for scc in condense(adjacency):
            order.extend(sorted(scc, reverse=True))
        return order


def build_call_graph(functions):
    """Build the call graph from recovered functions.

    ``functions`` maps name to :class:`~repro.cfg.model.Function`
    (imports included).  Returns a :class:`CallGraph`.
    """
    by_addr = {f.addr: f for f in functions.values()}
    call_graph = CallGraph()
    for function in functions.values():
        call_graph.add_function(function)
    for function in functions.values():
        for callsite in function.call_sites:
            if callsite.is_indirect:
                call_graph.indirect_sites.append((function.name, callsite))
                continue
            callee = by_addr.get(callsite.target_addr)
            if callee is None:
                continue
            callsite.target_name = callee.name
            call_graph.add_edge(function.name, callee.name)
    return call_graph
