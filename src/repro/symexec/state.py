"""Symbolic machine state and the per-function analysis records."""

from dataclasses import dataclass, field

from repro.symexec.value import mk_deref


@dataclass(frozen=True)
class DefPair:
    """The paper's definition pair ``(d, u)``.

    ``dest`` is what was defined (a ``deref(...)`` for memory writes,
    a :class:`~repro.symexec.value.SymVar` named ``ret`` for the return
    value); ``value`` is the defining expression; ``site`` the
    instruction/block address it came from.
    """

    dest: object
    value: object
    site: int = 0


@dataclass(frozen=True)
class VarUse:
    """A use of a memory variable (a load that found no definition)."""

    var: object
    site: int = 0


@dataclass(frozen=True)
class Constraint:
    """A path constraint: branch guard ``expr`` evaluated to ``taken``."""

    expr: object
    taken: bool
    site: int = 0


@dataclass
class CallSiteSummary:
    """One observed call: target, evaluated arguments, machine context."""

    addr: int
    target: object            # function name (str) or a symbolic expr
    args: list
    return_addr: int = None
    constraints: tuple = ()
    stack_args: list = field(default_factory=list)

    @property
    def is_indirect(self):
        return not isinstance(self.target, str)


class SymMemory:
    """Symbolic memory: canonical address expression -> value.

    Matching is syntactic, which is exactly the paper's model — its
    Algorithm 1 exists to recover the aliases this model misses.
    """

    def __init__(self, parent=None):
        self._store = dict(parent._store) if parent is not None else {}

    def write(self, addr_expr, value, size=4):
        self._store[addr_expr] = (value, size)

    def read(self, addr_expr, size=4):
        """Return the stored value, or a fresh ``deref`` on a miss."""
        hit = self._store.get(addr_expr)
        if hit is not None:
            value, stored_size = hit
            if stored_size == size:
                return value, True
        return mk_deref(addr_expr, size), False

    def items(self):
        return self._store.items()

    def __len__(self):
        return len(self._store)


class SymState:
    """Registers + memory + path records for one exploration path."""

    def __init__(self, parent=None):
        if parent is not None:
            self.regs = dict(parent.regs)
            self.memory = SymMemory(parent.memory)
            self.constraints = list(parent.constraints)
            self.visited = set(parent.visited)
        else:
            self.regs = {}
            self.memory = SymMemory()
            self.constraints = []
            self.visited = set()

    def fork(self):
        return SymState(parent=self)

    def get_reg(self, name, default=None):
        return self.regs.get(name, default)

    def set_reg(self, name, value):
        self.regs[name] = value


@dataclass
class FunctionSummary:
    """Everything the interprocedural layers need about one function."""

    name: str
    addr: int
    def_pairs: list = field(default_factory=list)
    uses: list = field(default_factory=list)
    callsites: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    ret_values: list = field(default_factory=list)
    paths_explored: int = 0
    truncated: bool = False
    deadline_hit: bool = False   # truncation caused by the soft deadline
    loop_stores: list = field(default_factory=list)  # (site, dest, value)
    register_defs: list = field(default_factory=list)  # (reg, site, value)
    _def_index: set = field(default_factory=set, repr=False, compare=False)

    def __getstate__(self):
        # The dedup index is derivable; keep cached blobs lean.
        state = dict(self.__dict__)
        state["_def_index"] = set()
        return state

    def add_def(self, pair):
        if pair not in self._def_set():
            self.def_pairs.append(pair)
            self._def_index.add(pair)

    def _def_set(self):
        # Incremental: def_pairs is append-mostly, so the set is grown
        # to match rather than rebuilt per insertion.  Code that extends
        # def_pairs directly (aliasing, enrichment) is still covered —
        # the delta is absorbed on the next call.
        index = self._def_index
        if len(index) != len(self.def_pairs):
            index = self._def_index = set(self.def_pairs)
        return index

    def defs_of(self, dest):
        return [p for p in self.def_pairs if p.dest == dest]
