"""Unit tests for Algorithm 1 (pointer-alias recognition).

Each case runs the ``dtaint`` engine, which believes every Formula-1
store: ``query`` is lines 4-7 of the algorithm, ``apply`` the whole.
"""

from repro.alias import get_engine
from repro.core.types import infer_types
from repro.symexec.state import DefPair, FunctionSummary
from repro.symexec.value import (
    SymConst,
    SymVar,
    mk_add,
    mk_deref,
    pretty,
)

ARG0 = SymVar("arg0")
ARG1 = SymVar("arg1")
ENGINE = get_engine("dtaint")


def _summary(pairs):
    summary = FunctionSummary(name="f", addr=0x1000)
    summary.def_pairs = list(pairs)
    return summary


def test_formula1_alias_found():
    """deref(arg0 + 0x4c) = arg1 + 0x10 is an alias entry."""
    dest = mk_deref(mk_add(ARG0, SymConst(0x4C)))
    value = mk_add(ARG1, SymConst(0x10))
    summary = _summary([
        DefPair(dest=dest, value=value, site=0),
        # arg1 used as a deref base => pointer evidence.
        DefPair(dest=mk_deref(ARG1), value=SymConst(1), site=4),
    ])
    aliases = ENGINE.query(summary, infer_types(summary)).entries
    assert any(
        entry.alias == dest and entry.base == ARG1 and entry.offset == 0x10
        for entry in aliases
    )


def test_alias_rewrite_creates_second_name():
    """A write through arg1 also gets a name through the stored alias.

    deref(arg0+0x4c) = arg1;  deref(arg1+0x14) = taint
    => deref(deref(arg0+0x4c)+0x14) = taint  (paper's example shape)
    """
    stored = mk_deref(mk_add(ARG0, SymConst(0x4C)))
    summary = _summary([
        DefPair(dest=stored, value=ARG1, site=0),
        DefPair(dest=mk_deref(mk_add(ARG1, SymConst(0x14))),
                value=SymVar("taint"), site=4),
    ])
    added = ENGINE.apply(summary, infer_types(summary))
    rendered = {pretty(p.dest) for p in added}
    assert "deref(deref(arg0 + 0x4c) + 0x14)" in rendered


def test_alias_with_offset_subtracts():
    """alias = base + 8: the rewrite uses alias - 8 for the base."""
    stored = mk_deref(ARG0)
    summary = _summary([
        DefPair(dest=stored, value=mk_add(ARG1, SymConst(8)), site=0),
        DefPair(dest=mk_deref(mk_add(ARG1, SymConst(0x20))),
                value=SymConst(7), site=4),
        DefPair(dest=mk_deref(ARG1), value=SymConst(0), site=8),
    ])
    added = ENGINE.apply(summary, infer_types(summary))
    rendered = {pretty(p.dest) for p in added}
    # deref(arg1 + 0x20) == deref((alias - 8) + 0x20) == deref(alias + 0x18)
    assert "deref(deref(arg0) + 0x18)" in rendered


def test_symmetric_closure():
    """Imported defs through the stored name connect to local uses."""
    stored = mk_deref(mk_add(ARG0, SymConst(4)))
    summary = _summary([
        DefPair(dest=stored, value=ARG1, site=0),
        # A definition expressed through the *alias* name.
        DefPair(dest=mk_deref(mk_add(stored, SymConst(8))),
                value=SymVar("v"), site=4),
        DefPair(dest=mk_deref(ARG1), value=SymConst(0), site=8),
    ])
    added = ENGINE.apply(summary, infer_types(summary))
    rendered = {pretty(p.dest) for p in added}
    assert "deref(arg1 + 0x8)" in rendered


def test_no_alias_for_integers():
    """Integer-typed stored values produce no alias entries."""
    summary = _summary([
        DefPair(dest=mk_deref(ARG0), value=SymConst(42), site=0),
    ])
    aliases = ENGINE.query(summary, infer_types(summary)).entries
    assert aliases == ()


def test_alias_rewrite_is_bounded():
    pairs = [DefPair(dest=mk_deref(mk_add(ARG0, SymConst(4 * i))),
                     value=ARG1, site=i) for i in range(40)]
    pairs.append(DefPair(dest=mk_deref(ARG1), value=SymConst(0), site=999))
    summary = _summary(pairs)
    added = ENGINE.apply(summary, infer_types(summary), max_new=10)
    assert len(added) <= 10
