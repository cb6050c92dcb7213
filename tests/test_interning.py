"""Property tests for the hash-consing (interning) arena.

Interning's contract: structurally equal construction yields the *same
object* for every :class:`SymExpr` kind, hashes are stable and
identity-based, copies are identity, pickling re-interns, and the
linear canonicalizer round-trips ``a + b - b`` back to ``a`` itself.
"""

import copy
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.ir.expr import Ops
from repro.symexec.value import (
    SymConst,
    SymDeref,
    SymHeap,
    SymLin,
    SymOp,
    SymRet,
    SymTaint,
    SymVar,
    make_linear,
    mk_add,
    mk_binop,
    mk_deref,
    mk_mul,
    mk_sub,
    node_set,
    substitute,
)

A = SymVar("arg0")
B = SymVar("arg1")
SP = SymVar("sp0")


# ---------------------------------------------------------------------------
# One builder per SymExpr kind, each constructing from scratch so two
# calls exercise the full constructor path (not a shared local).

KIND_BUILDERS = {
    "SymConst": lambda: SymConst(0x4C12),
    "SymVar": lambda: SymVar("interning_probe"),
    "SymRet": lambda: SymRet(0x8A40),
    "SymDeref": lambda: SymDeref(mk_add(SymVar("arg0"), SymConst(0x4C))),
    "SymLin": lambda: mk_add(mk_mul(SymConst(3), SymVar("arg0")),
                             mk_add(SymVar("arg1"), SymConst(7))),
    "SymOp": lambda: SymOp(Ops.AND, (SymVar("arg0"), SymConst(0xFF))),
    "SymTaint": lambda: SymTaint(source="recv", callsite=0x1234),
    "SymHeap": lambda: SymHeap(chain_hash=0xDEADBEEF),
}


@pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
def test_make_x_is_make_x(kind):
    build = KIND_BUILDERS[kind]
    assert build() is build()


@pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
def test_hash_stable_across_constructions(kind):
    build = KIND_BUILDERS[kind]
    first = hash(build())
    # Interleave unrelated construction; the hash must not drift.
    for i in range(64):
        mk_deref(mk_add(SymVar("noise%d" % (i % 7)), SymConst(i)))
    assert hash(build()) == first


@pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
def test_pickle_reinterns(kind):
    original = KIND_BUILDERS[kind]()
    clone = pickle.loads(pickle.dumps(original, protocol=4))
    assert clone is original


@pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
def test_copy_is_identity(kind):
    original = KIND_BUILDERS[kind]()
    assert copy.copy(original) is original
    assert copy.deepcopy(original) is original


@pytest.mark.parametrize("kind", sorted(KIND_BUILDERS))
def test_immutability_enforced(kind):
    expr = KIND_BUILDERS[kind]()
    with pytest.raises(AttributeError):
        expr.value = 1
    with pytest.raises(AttributeError):
        del expr.size


def test_small_constant_pool_preinterned():
    # Common immediates come from the eagerly filled pool.
    assert SymConst(0) is SymConst(0)
    assert SymConst(4) is SymConst(4)
    assert SymConst(0xFF) is SymConst(0xFF)
    assert SymConst(0xFFFFFFFF) is SymConst(0xFFFFFFFF)


def test_symlin_rejects_non_canonical_tuples():
    # Degenerate single-term/coef-1/const-0 form is just the atom.
    with pytest.raises(AssertionError):
        SymLin(((A, 1),), 0)
    # Zero coefficients are dropped by canonicalization, never stored.
    with pytest.raises(AssertionError):
        SymLin(((A, 0),), 5)
    # Constants fold into the const slot.
    with pytest.raises(AssertionError):
        SymLin(((SymConst(4), 2),), 0)


def test_make_linear_is_the_canonical_entry_point():
    assert make_linear({A: 1}, 0) is A
    assert make_linear({}, 7) is SymConst(7)
    assert make_linear({A: 0, B: 2}, -3) is mk_sub(mk_mul(SymConst(2), B),
                                                   SymConst(3))


# ---------------------------------------------------------------------------
# Hypothesis: identity + round-trips over generated expressions.

atoms = st.sampled_from(
    [A, B, SP, SymVar("arg2"), SymRet(0x400), SymHeap(chain_hash=0x77),
     SymTaint(source="recv", callsite=0x900)]
)
consts = st.integers(min_value=-0x2000, max_value=0x2000).map(
    lambda v: SymConst(v & 0xFFFFFFFF)
)
simple = st.one_of(atoms, consts)


def compound(children):
    return st.one_of(
        st.tuples(children).map(lambda t: mk_deref(t[0])),
        st.tuples(children, children).map(lambda t: mk_add(t[0], t[1])),
        st.tuples(children, consts).map(lambda t: mk_mul(t[1], t[0])),
        st.tuples(children, children).map(
            lambda t: mk_binop(Ops.AND, t[0], t[1])
        ),
    )


exprs = st.recursive(simple, compound, max_leaves=8)


@given(exprs, exprs)
def test_structural_equality_is_identity(x, y):
    assert (x == y) == (x is y)
    if x is y:
        assert hash(x) == hash(y)


@given(exprs, exprs)
# Scaling by an unsigned constant used to leave the coefficient and
# const unwrapped, so this pair round-tripped to const=0x100000000.
@example(
    x=mk_mul(SymConst(0xFFFFFFFF), SymDeref(SymConst(0), 4)),
    y=mk_mul(SymConst(0xFFFFFFFF),
             mk_add(SymDeref(SymConst(0), 4), SymConst(1))),
)
def test_add_sub_roundtrips_to_same_object(x, y):
    assert mk_sub(mk_add(x, y), y) is x
    assert mk_add(mk_sub(x, y), y) is x


@given(exprs)
def test_deref_reconstruction_interns(x):
    assert mk_deref(x) is mk_deref(x)
    assert SymDeref(x, 2) is SymDeref(x, 2)
    assert SymDeref(x, 2) is not SymDeref(x, 4)


@given(exprs)
def test_substitute_noop_returns_same_object(x):
    probe = SymVar("never_occurs_in_x")
    assert substitute(x, {probe: A}) is x
    assert substitute(x, {}) is x


@given(exprs)
def test_node_set_contains_self(x):
    assert x in node_set(x)
