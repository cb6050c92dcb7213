"""Canonical symbolic values, hash-consed.

The paper describes variables "through the memory" with address
expressions of the form ``base + offset`` and ``deref`` for memory
access (§III-B, Fig. 6).  This module is that representation:

* :class:`SymVar` — free symbols: ``arg0``..``arg9``, the stack base
  ``sp0``, and initial register contents.
* :class:`SymRet` — the unique ``ret_{callsite}`` return symbols.
* :class:`SymDeref` — ``deref(addr)``, a memory read at a canonical
  address expression.
* :class:`SymLin` — a canonical linear combination ``Σ coef·atom +
  const``; all additive arithmetic normalises into it, which makes the
  ``base + offset`` view (:func:`base_offset`) syntactic.
* :class:`SymOp` — residual non-linear operations (comparisons keep
  their op names so the sanitization checker can read them back).
* :class:`SymTaint` — a taint source marker introduced when a source
  function (Table I) writes attacker-controlled data.
* :class:`SymHeap` — a heap object identified by the hash of its
  callsite chain (paper §III-E, Listing 1).

Everything is immutable; structural equality — the aliasing notion the
paper's Algorithm 1 extends — is **identity**: every constructor
interns into a per-class arena, so two structurally equal expressions
are the same object, ``==`` is a pointer comparison, and ``hash`` is
the constant-time default identity hash instead of a recursive walk.
The arenas also back memo tables for the hot structural queries
(:func:`base_offset`, :func:`walk`, :func:`pretty`, sub-node sets for
:func:`substitute`), which are computed once per distinct expression.

The arenas are per-process and grow monotonically; fleet workers are
per-job processes, so nothing outlives the scan that built it.
Construction is not thread-safe in general but uses atomic
``dict.setdefault`` publication, so concurrent construction can never
yield two live objects for one structural value.  Pickling round-trips
through the constructors (``__reduce__``), re-interning on load.
"""

from repro.ir.expr import Ops

_MASK32 = 0xFFFFFFFF


class SymExpr:
    """Base class for canonical (interned) symbolic values."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            "%s is immutable (interned)" % type(self).__name__
        )

    def __delattr__(self, name):
        raise AttributeError(
            "%s is immutable (interned)" % type(self).__name__
        )

    # Interned values are shared freely: copying is identity.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _intern(pool, key, candidate):
    """Publish ``candidate`` under ``key`` unless a twin won the race."""
    return pool.setdefault(key, candidate)


class SymConst(SymExpr):
    __slots__ = ("value",)
    _pool = {}

    def __new__(cls, value):
        self = cls._pool.get(value)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "value", value)
            self = _intern(cls._pool, value, self)
        return self

    def __reduce__(self):
        return (SymConst, (self.value,))

    def __repr__(self):
        return "SymConst(value=%r)" % (self.value,)


class SymVar(SymExpr):
    __slots__ = ("name",)
    _pool = {}

    def __new__(cls, name):
        self = cls._pool.get(name)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            self = _intern(cls._pool, name, self)
        return self

    def __reduce__(self):
        return (SymVar, (self.name,))

    def __repr__(self):
        return "SymVar(name=%r)" % (self.name,)


class SymRet(SymExpr):
    """The symbolic return value ``ret_{callsite}``."""

    __slots__ = ("callsite",)
    _pool = {}

    def __new__(cls, callsite):
        self = cls._pool.get(callsite)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "callsite", callsite)
            self = _intern(cls._pool, callsite, self)
        return self

    def __reduce__(self):
        return (SymRet, (self.callsite,))

    def __repr__(self):
        return "SymRet(callsite=%r)" % (self.callsite,)


class SymDeref(SymExpr):
    __slots__ = ("addr", "size")
    _pool = {}

    def __new__(cls, addr, size=4):
        key = (addr, size)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "addr", addr)
            object.__setattr__(self, "size", size)
            self = _intern(cls._pool, key, self)
        return self

    def __reduce__(self):
        return (SymDeref, (self.addr, self.size))

    def __repr__(self):
        return "SymDeref(addr=%r, size=%r)" % (self.addr, self.size)


class SymLin(SymExpr):
    """Canonical linear form: ``sum(coef * atom) + const``.

    ``terms`` is a tuple of ``(atom, coef)`` pairs sorted by the
    canonical atom order, with non-zero integer coefficients; the
    coefficients and ``const`` are signed 32-bit values;
    invariant: at least one term, and not the degenerate
    single-term/coef-1/const-0 case (that is just the atom).  The
    constructor asserts the invariant — build through
    :func:`make_linear` (or the ``mk_*`` arithmetic) rather than
    assembling term tuples by hand.
    """

    __slots__ = ("terms", "const")
    _pool = {}

    def __new__(cls, terms, const):
        key = (terms, const)
        self = cls._pool.get(key)
        if self is None:
            assert _valid_linear(terms, const), (
                "non-canonical SymLin: terms=%r const=%r" % (terms, const)
            )
            self = object.__new__(cls)
            object.__setattr__(self, "terms", terms)
            object.__setattr__(self, "const", const)
            self = _intern(cls._pool, key, self)
        return self

    def __reduce__(self):
        return (SymLin, (self.terms, self.const))

    def __repr__(self):
        return "SymLin(terms=%r, const=%r)" % (self.terms, self.const)


class SymOp(SymExpr):
    """Residual operation over canonical operands."""

    __slots__ = ("op", "args")
    _pool = {}

    def __new__(cls, op, args):
        key = (op, args)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "op", op)
            object.__setattr__(self, "args", args)
            self = _intern(cls._pool, key, self)
        return self

    def __reduce__(self):
        return (SymOp, (self.op, self.args))

    def __repr__(self):
        return "SymOp(op=%r, args=%r)" % (self.op, self.args)


class SymTaint(SymExpr):
    """Attacker-controlled data introduced by ``source`` at a callsite."""

    __slots__ = ("source", "callsite")
    _pool = {}

    def __new__(cls, source, callsite):
        key = (source, callsite)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "source", source)
            object.__setattr__(self, "callsite", callsite)
            self = _intern(cls._pool, key, self)
        return self

    def __reduce__(self):
        return (SymTaint, (self.source, self.callsite))

    def __repr__(self):
        return "SymTaint(source=%r, callsite=%r)" % (
            self.source, self.callsite,
        )


class SymHeap(SymExpr):
    """A heap pointer, unique per callsite chain (hashed)."""

    __slots__ = ("chain_hash", "label")
    _pool = {}

    def __new__(cls, chain_hash, label="heap"):
        key = (chain_hash, label)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "chain_hash", chain_hash)
            object.__setattr__(self, "label", label)
            self = _intern(cls._pool, key, self)
        return self

    def __reduce__(self):
        return (SymHeap, (self.chain_hash, self.label))

    def __repr__(self):
        return "SymHeap(chain_hash=%r, label=%r)" % (
            self.chain_hash, self.label,
        )


# Small-constant pool: the offsets/immediates that dominate real code
# are interned eagerly so the hot path's first lookup always hits.
for _v in range(257):
    SymConst(_v)
for _v in (0xFF, 0xFFFF, 0xFFFFFF, _MASK32, 0x1000, 0x8000):
    SymConst(_v)
del _v

UNKNOWN = SymVar("<unknown>")


def _valid_linear(terms, const):
    """The documented SymLin canonical-form invariant."""
    if not isinstance(terms, tuple) or not terms:
        return False
    if not isinstance(const, int):
        return False
    if len(terms) == 1 and terms[0][1] == 1 and const == 0:
        return False  # degenerate: just the atom
    previous = None
    for entry in terms:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            return False
        atom, coef = entry
        if not isinstance(coef, int) or coef == 0:
            return False
        if isinstance(atom, (SymConst, SymLin)):
            return False  # constants fold into const; no nested linears
        key = _sort_key(atom)
        if previous is not None and key < previous:
            return False  # terms must be sorted canonically
        previous = key
    return True


# ---------------------------------------------------------------------------
# Memo tables.  Interning makes every expression a stable dict key with
# a constant-time hash, so each structural query is computed once per
# distinct expression for the life of the process.

_SORT_KEYS = {}      # atom -> (type name, rendered form)
_PRETTY = {}         # expr -> paper-notation string
_NODES = {}          # expr -> pre-order tuple of sub-expressions
_NODE_SETS = {}      # expr -> frozenset of sub-expressions
_BASE_OFFSET = {}    # expr -> (base, offset) | None
_DEREFS = {}         # expr -> tuple of SymDeref sub-expressions
_TAINTS = {}         # expr -> tuple of SymTaint sub-expressions


def _sort_key(atom):
    key = _SORT_KEYS.get(atom)
    if key is None:
        key = (type(atom).__name__, pretty(atom))
        _SORT_KEYS[atom] = key
    return key


# ---------------------------------------------------------------------------
# Linear canonicalisation.

def _to_linear(expr):
    """Decompose ``expr`` into ``(dict atom->coef, const)``.

    Constants enter linear arithmetic as signed values so that
    ``sp0 + 0xffffff00`` canonicalises to ``sp0 - 0x100``; pure
    constants renormalise to unsigned on the way out.
    """
    if isinstance(expr, SymConst):
        return {}, _signed(expr.value)
    if isinstance(expr, SymLin):
        return dict(expr.terms), expr.const
    return {expr: 1}, 0


def _from_linear(terms, const):
    # Signed 32-bit coefficients and const: ``x * 0xffffffff`` is ``-x``.
    terms = {
        atom: coef if -0x80000000 <= coef <= 0x7FFFFFFF else _signed(coef)
        for atom, coef in terms.items() if coef & 0xFFFFFFFF
    }
    if not terms:
        # Pure constants are canonically unsigned 32-bit; symbolic
        # offsets stay signed inside SymLin.const.
        return SymConst(const & _MASK32)
    if not -0x80000000 <= const <= 0x7FFFFFFF:
        const = _signed(const)
    if len(terms) == 1 and const == 0:
        (atom, coef), = terms.items()
        if coef == 1:
            return atom
    ordered = tuple(sorted(terms.items(), key=lambda kv: _sort_key(kv[0])))
    return SymLin(terms=ordered, const=const)


def make_linear(terms, const):
    """Build the canonical form of ``Σ coef·atom + const``.

    ``terms`` maps atoms to integer coefficients (zeros allowed — they
    are dropped); the result is a :class:`SymLin`, a bare atom, or a
    :class:`SymConst`, whichever the invariant dictates.  This is the
    single entry point that assembles term tuples (one pass, one
    sort); nothing else constructs :class:`SymLin` directly.
    """
    return _from_linear(terms, const)


def mk_add(a, b):
    # Fast path: adding a constant never changes the term tuple, so the
    # dominant ``base + offset`` shape skips the dict rebuild + re-sort.
    if isinstance(b, SymConst):
        if isinstance(a, SymConst):
            return SymConst((a.value + b.value) & _MASK32)
        delta = _signed(b.value)
        if delta == 0:
            return a
        if isinstance(a, SymLin):
            const = a.const + delta
            if not -0x80000000 <= const <= 0x7FFFFFFF:
                const = _signed(const)
            if const == 0 and len(a.terms) == 1 and a.terms[0][1] == 1:
                return a.terms[0][0]
            return SymLin(a.terms, const)
        return SymLin(((a, 1),), delta)
    if isinstance(a, SymConst):
        return mk_add(b, a)
    ta, ca = _to_linear(a)
    tb, cb = _to_linear(b)
    for atom, coef in tb.items():
        ta[atom] = ta.get(atom, 0) + coef
    return _from_linear(ta, ca + cb)


def mk_neg(a):
    if isinstance(a, SymConst):
        return SymConst((-a.value) & _MASK32)
    terms, const = _to_linear(a)
    return _from_linear({atom: -coef for atom, coef in terms.items()}, -const)


def mk_sub(a, b):
    return mk_add(a, mk_neg(b))


def mk_mul(a, b):
    if isinstance(a, SymConst) and isinstance(b, SymConst):
        return SymConst((a.value * b.value) & _MASK32)
    for const, other in ((a, b), (b, a)):
        if isinstance(const, SymConst):
            terms, c = _to_linear(other)
            return _from_linear(
                {atom: coef * const.value for atom, coef in terms.items()},
                c * const.value,
            )
    return SymOp(Ops.MUL, (a, b))


def mk_deref(addr, size=4):
    return SymDeref(addr, size)


_CONST_FOLD = {
    Ops.AND: lambda a, b: a & b,
    Ops.OR: lambda a, b: a | b,
    Ops.XOR: lambda a, b: a ^ b,
    Ops.SHL: lambda a, b: (a << (b & 0xFF)) & _MASK32 if (b & 0xFF) < 32 else 0,
    Ops.SHR: lambda a, b: (a & _MASK32) >> (b & 0xFF) if (b & 0xFF) < 32 else 0,
    Ops.CMP_EQ: lambda a, b: int(a == b),
    Ops.CMP_NE: lambda a, b: int(a != b),
    Ops.CMP_LT_U: lambda a, b: int((a & _MASK32) < (b & _MASK32)),
    Ops.CMP_LE_U: lambda a, b: int((a & _MASK32) <= (b & _MASK32)),
}


def _signed(value):
    value &= _MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


def mk_binop(op, a, b):
    """Build ``op(a, b)`` with canonicalisation and constant folding."""
    if op == Ops.ADD:
        return mk_add(a, b)
    if op == Ops.SUB:
        return mk_sub(a, b)
    if op == Ops.MUL:
        return mk_mul(a, b)
    if isinstance(a, SymConst) and isinstance(b, SymConst):
        if op in _CONST_FOLD:
            return SymConst(_CONST_FOLD[op](a.value, b.value) & _MASK32)
        if op == Ops.CMP_LT_S:
            return SymConst(int(_signed(a.value) < _signed(b.value)))
        if op == Ops.CMP_LE_S:
            return SymConst(int(_signed(a.value) <= _signed(b.value)))
        if op == Ops.SAR:
            return SymConst(_signed(a.value) >> (b.value & 0x1F) & _MASK32)
        if op == Ops.ROR:
            amount = b.value & 0x1F
            value = a.value & _MASK32
            return SymConst(((value >> amount) | (value << (32 - amount))) & _MASK32)
    # Shift-left by a constant is linear.
    if op == Ops.SHL and isinstance(b, SymConst) and b.value < 32:
        return mk_mul(a, SymConst(1 << b.value))
    # x & 0xffffffff and x | 0 are identities.
    if op == Ops.AND and isinstance(b, SymConst) and b.value == _MASK32:
        return a
    if op == Ops.OR and isinstance(b, SymConst) and b.value == 0:
        return a
    if op == Ops.XOR and a is b:
        return SymConst(0)
    return SymOp(op, (a, b))


def mk_unop(op, a):
    if isinstance(a, SymConst):
        value = a.value & _MASK32
        if op == Ops.NOT:
            return SymConst(value ^ _MASK32)
        if op == Ops.NEG:
            return SymConst((-value) & _MASK32)
        if op == Ops.U8_TO_32 or op == Ops.TO_8:
            return SymConst(value & 0xFF)
        if op == Ops.U16_TO_32 or op == Ops.TO_16:
            return SymConst(value & 0xFFFF)
        if op == Ops.S8_TO_32:
            value &= 0xFF
            return SymConst((value - 0x100 if value >= 0x80 else value) & _MASK32)
        if op == Ops.S16_TO_32:
            value &= 0xFFFF
            return SymConst(
                (value - 0x10000 if value >= 0x8000 else value) & _MASK32
            )
    if op == Ops.NEG:
        return mk_neg(a)
    # Width adjustments of loads and taint are no-ops for the tracker:
    # zero-extending a narrow load, or truncating to a width the value
    # already has, keeps the canonical shape.
    if op in (Ops.U8_TO_32, Ops.U16_TO_32) and isinstance(
        a, (SymTaint, SymDeref)
    ):
        return a
    if op == Ops.TO_8 and isinstance(a, SymDeref) and a.size == 1:
        return a
    if op == Ops.TO_16 and isinstance(a, SymDeref) and a.size <= 2:
        return a
    if op in (Ops.TO_8, Ops.TO_16) and isinstance(a, SymTaint):
        return a
    return SymOp(op, (a,))


def mk_ite(cond, iftrue, iffalse):
    if isinstance(cond, SymConst):
        return iftrue if cond.value else iffalse
    if iftrue is iffalse:
        return iftrue
    return SymOp("ite", (cond, iftrue, iffalse))


# ---------------------------------------------------------------------------
# Structure helpers.

def base_offset(expr):
    """View ``expr`` as ``base + offset``.

    Returns ``(base_atom, offset)``; for an absolute address the base is
    ``None``; returns ``None`` when the expression is not of that shape
    (multiple symbolic terms or scaled bases).
    """
    try:
        return _BASE_OFFSET[expr]
    except KeyError:
        pass
    except TypeError:
        return _base_offset_uncached(expr)  # non-interned input
    view = _base_offset_uncached(expr)
    _BASE_OFFSET[expr] = view
    return view


def _base_offset_uncached(expr):
    if isinstance(expr, SymConst):
        return None, expr.value
    if isinstance(expr, SymLin):
        if len(expr.terms) == 1 and expr.terms[0][1] == 1:
            return expr.terms[0][0], expr.const
        return None
    if isinstance(expr, (SymVar, SymRet, SymDeref, SymHeap, SymOp, SymTaint)):
        return expr, 0
    return None


def nodes(expr):
    """``expr`` and every sub-expression, pre-order, as a cached tuple."""
    cached = _NODES.get(expr)
    if cached is None:
        out = [expr]
        if isinstance(expr, SymDeref):
            out.extend(nodes(expr.addr))
        elif isinstance(expr, SymLin):
            for atom, _coef in expr.terms:
                out.extend(nodes(atom))
        elif isinstance(expr, SymOp):
            for arg in expr.args:
                out.extend(nodes(arg))
        cached = tuple(out)
        _NODES[expr] = cached
    return cached


def node_set(expr):
    """The cached set of ``expr``'s sub-expressions (including itself)."""
    cached = _NODE_SETS.get(expr)
    if cached is None:
        cached = frozenset(nodes(expr))
        _NODE_SETS[expr] = cached
    return cached


def walk(expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    return iter(nodes(expr))


def substitute(expr, mapping):
    """Rewrite ``expr`` bottom-up, replacing exact matches via ``mapping``.

    Replacement applies to whole sub-expressions after their children
    were rewritten, so ``deref(arg0+4)`` maps correctly even when both
    ``arg0`` and the full deref appear as keys.  Sub-trees that contain
    no mapping key are returned as-is (identity), making the common
    no-op case a set-intersection check.
    """
    if not mapping:
        return expr
    return _rewrite(expr, mapping)


def _rewrite(node, mapping):
    if node_set(node).isdisjoint(mapping):
        return node
    if isinstance(node, SymDeref):
        new = SymDeref(_rewrite(node.addr, mapping), node.size)
    elif isinstance(node, SymLin):
        terms = {}
        const = node.const
        for atom, coef in node.terms:
            new_atom = _rewrite(atom, mapping)
            if new_atom is atom:
                terms[atom] = terms.get(atom, 0) + coef
                continue
            # A replaced atom may itself be linear or constant: fold it
            # in one accumulation pass instead of chaining mk_add over
            # intermediate tuples.
            sub_terms, sub_const = _to_linear(new_atom)
            for sub_atom, sub_coef in sub_terms.items():
                terms[sub_atom] = terms.get(sub_atom, 0) + coef * sub_coef
            const += coef * sub_const
        new = _from_linear(terms, const)
    elif isinstance(node, SymOp):
        new = SymOp(node.op, tuple(_rewrite(a, mapping) for a in node.args))
    else:
        new = node
    return mapping.get(new, new)


def contains(expr, needle):
    """True when ``needle`` occurs anywhere inside ``expr``."""
    return needle in node_set(expr)


def derefs_in(expr):
    """All :class:`SymDeref` nodes inside ``expr`` (including itself)."""
    cached = _DEREFS.get(expr)
    if cached is None:
        cached = tuple(
            node for node in nodes(expr) if isinstance(node, SymDeref)
        )
        _DEREFS[expr] = cached
    return cached


def taints_in(expr):
    cached = _TAINTS.get(expr)
    if cached is None:
        cached = tuple(
            node for node in nodes(expr) if isinstance(node, SymTaint)
        )
        _TAINTS[expr] = cached
    return cached


# ---------------------------------------------------------------------------
# Rendering (paper-style notation).

_OP_SYMBOLS = {
    Ops.AND: "&", Ops.OR: "|", Ops.XOR: "^",
    Ops.SHL: "<<", Ops.SHR: ">>u", Ops.SAR: ">>s", Ops.MUL: "*",
    Ops.CMP_EQ: "==", Ops.CMP_NE: "!=",
    Ops.CMP_LT_S: "<s", Ops.CMP_LE_S: "<=s",
    Ops.CMP_LT_U: "<u", Ops.CMP_LE_U: "<=u",
}


def pretty(expr):
    """Render in the paper's notation, e.g. ``deref(arg0 + 0x4c)``."""
    cached = _PRETTY.get(expr)
    if cached is None:
        cached = _pretty_uncached(expr)
        _PRETTY[expr] = cached
    return cached


def _pretty_uncached(expr):
    if isinstance(expr, SymConst):
        return "0x%x" % (expr.value & _MASK32) if expr.value >= 0 else (
            "-0x%x" % (-expr.value)
        )
    if isinstance(expr, SymVar):
        return expr.name
    if isinstance(expr, SymRet):
        return "ret_{0x%x}" % expr.callsite
    if isinstance(expr, SymDeref):
        return "deref(%s)" % pretty(expr.addr)
    if isinstance(expr, SymTaint):
        return "taint<%s@0x%x>" % (expr.source, expr.callsite)
    if isinstance(expr, SymHeap):
        return "%s_%08x" % (expr.label, expr.chain_hash & 0xFFFFFFFF)
    if isinstance(expr, SymLin):
        parts = []
        for atom, coef in expr.terms:
            if coef == 1:
                parts.append(pretty(atom))
            elif coef == -1:
                parts.append("-%s" % pretty(atom))
            else:
                parts.append("%d*%s" % (coef, pretty(atom)))
        rendered = " + ".join(parts).replace("+ -", "- ")
        if expr.const > 0:
            rendered += " + 0x%x" % expr.const
        elif expr.const < 0:
            rendered += " - 0x%x" % (-expr.const)
        return rendered
    if isinstance(expr, SymOp):
        if expr.op == "ite":
            return "ite(%s, %s, %s)" % tuple(pretty(a) for a in expr.args)
        if len(expr.args) == 2 and expr.op in _OP_SYMBOLS:
            return "(%s %s %s)" % (
                pretty(expr.args[0]), _OP_SYMBOLS[expr.op], pretty(expr.args[1])
            )
        return "%s(%s)" % (expr.op, ", ".join(pretty(a) for a in expr.args))
    return repr(expr)
