"""Unit tests for Algorithm 2 (interprocedural definition updating)."""

import pytest

from repro.cfg import CFGBuilder, build_call_graph
from repro.cfg.callgraph import CallGraph
from repro.cfg.model import Function
from repro.core.interproc import (
    MAX_VARIANTS_PER_CALLSITE,
    InterproceduralAnalysis,
    _exportable,
)
from repro.loader.binary import load_elf
from repro.loader.link import build_executable
from repro.symexec import SymbolicEngine
from repro.symexec.state import CallSiteSummary, DefPair, FunctionSummary
from repro.symexec.value import (
    SymConst,
    SymHeap,
    SymRet,
    SymVar,
    mk_add,
    mk_deref,
    pretty,
)

ARG0 = SymVar("arg0")
SP = SymVar("sp0")


def _run(source, imports=(), entry="main"):
    elf_bytes, _ = build_executable("arm", source, imports=list(imports),
                                    entry=entry)
    binary = load_elf(elf_bytes)
    functions = CFGBuilder(binary).build_all()
    call_graph = build_call_graph(functions)
    engine = SymbolicEngine(binary)
    summaries = {
        name: engine.analyze_function(f)
        for name, f in functions.items() if not f.is_import
    }
    analysis = InterproceduralAnalysis(summaries, call_graph)
    return analysis.run(), call_graph


class TestExportable:
    def test_argument_rooted_defs_export(self):
        assert _exportable(mk_deref(mk_add(ARG0, SymConst(8))))
        assert _exportable(mk_deref(mk_deref(mk_add(ARG0, SymConst(8)))))

    def test_ret_and_heap_rooted_defs_export(self):
        assert _exportable(mk_deref(SymRet(0x100)))
        assert _exportable(mk_deref(SymHeap(chain_hash=1)))

    def test_stack_locals_do_not_export(self):
        assert not _exportable(mk_deref(mk_add(SP, SymConst(-8))))


def test_callee_store_visible_in_caller():
    source = r"""
.globl main
main:
    push {r4, lr}
    bl set_field
    pop {r4, pc}
.globl set_field
set_field:
    mov r3, #7
    str r3, [r0, #0x10]
    bx lr
"""
    enriched, _ = _run(source)
    rendered = {
        (pretty(p.dest), pretty(p.value))
        for p in enriched["main"].def_pairs
    }
    assert ("deref(arg0 + 0x10)", "0x7") in rendered


def test_formals_replaced_by_actuals():
    """set_field(s->inner) rebases deref(arg0+0x10) onto the actual."""
    source = r"""
.globl main
main:
    push {r4, lr}
    ldr r0, [r0, #0x20]
    bl set_field
    pop {r4, pc}
.globl set_field
set_field:
    mov r3, #7
    str r3, [r0, #0x10]
    bx lr
"""
    enriched, _ = _run(source)
    rendered = {pretty(p.dest) for p in enriched["main"].def_pairs}
    assert "deref(deref(arg0 + 0x20) + 0x10)" in rendered


def test_ret_symbol_replaced_with_callee_expression():
    source = r"""
.globl main
main:
    push {r4, lr}
    bl get_field
    str r0, [r1, #8]
    pop {r4, pc}
.globl get_field
get_field:
    ldr r0, [r0, #0x30]
    bx lr
"""
    enriched, _ = _run(source)
    rendered = {
        (pretty(p.dest), pretty(p.value))
        for p in enriched["main"].def_pairs
    }
    assert ("deref(arg1 + 0x8)", "deref(arg0 + 0x30)") in rendered


def test_malloc_becomes_unique_heap_objects():
    """Listing 1: two malloc calls yield two distinct heap pointers."""
    source = r"""
.globl main
main:
    push {r4, r5, lr}
    mov r0, #4
    bl malloc
    mov r4, r0
    mov r0, #4
    bl malloc
    mov r5, r0
    mov r3, #8
    str r3, [r4]
    str r3, [r5]
    pop {r4, r5, pc}
"""
    enriched, _ = _run(source, imports=["malloc"])
    heap_dests = [
        p.dest for p in enriched["main"].def_pairs
        if "heap" in pretty(p.dest)
    ]
    assert len({pretty(d) for d in heap_dests}) == 2


def test_taint_objects_propagate_up():
    source = r"""
.globl main
main:
    push {r4, lr}
    bl fetch
    pop {r4, pc}
.globl fetch
fetch:
    push {lr}
    ldr r0, =name
    bl getenv
    pop {pc}
.ltorg
.rodata
name: .asciz "X"
"""
    enriched, _ = _run(source, imports=["getenv"])
    assert enriched["fetch"].taint_objects
    assert enriched["main"].taint_objects


def test_every_function_enriched_once_bottom_up():
    source = r"""
.globl main
main:
    push {lr}
    bl mid
    pop {pc}
.globl mid
mid:
    push {lr}
    bl leaf
    pop {pc}
.globl leaf
leaf:
    mov r0, #0
    bx lr
"""
    enriched, call_graph = _run(source)
    order = call_graph.bottom_up_order(list(enriched))
    assert order.index("leaf") < order.index("mid") < order.index("main")
    assert set(enriched) == {"main", "mid", "leaf"}


def _synthetic_pair(caller_callsites):
    """A caller/callee pair built directly from summaries (no ELF)."""
    callee = FunctionSummary(name="callee", addr=0x2000)
    callee.def_pairs = [
        DefPair(dest=mk_deref(SymVar("arg0")), value=SymConst(7),
                site=0x2000)
    ]
    caller = FunctionSummary(name="caller", addr=0x1000,
                             callsites=list(caller_callsites))
    call_graph = CallGraph()
    call_graph.add_function(Function(name="callee", addr=0x2000, size=4))
    call_graph.add_function(Function(name="caller", addr=0x1000, size=4))
    call_graph.add_edge("caller", "callee")
    analysis = InterproceduralAnalysis(
        {"callee": callee, "caller": caller}, call_graph
    )
    return analysis.run()


def test_variant_cap_per_callsite():
    """One call site summarised with many distinct argument variants:
    only the first MAX_VARIANTS_PER_CALLSITE are imported."""
    sites = [
        CallSiteSummary(addr=0x1010, target="callee",
                        args=[SymConst(0x9000 + 16 * i)])
        for i in range(MAX_VARIANTS_PER_CALLSITE + 3)
    ]
    enriched = _synthetic_pair(sites)
    imported = {
        pretty(p.dest) for p in enriched["caller"].def_pairs
        if p.value == SymConst(7)
    }
    assert len(imported) == MAX_VARIANTS_PER_CALLSITE


def test_duplicate_variants_do_not_consume_the_cap():
    """The same (addr, args) pair repeated across explored paths is
    imported once and does not count against the variant budget."""
    repeated = [
        CallSiteSummary(addr=0x1010, target="callee",
                        args=[SymConst(0x9000)])
        for _ in range(MAX_VARIANTS_PER_CALLSITE + 2)
    ]
    distinct = [
        CallSiteSummary(addr=0x1010, target="callee",
                        args=[SymConst(0xA000 + 16 * i)])
        for i in range(MAX_VARIANTS_PER_CALLSITE - 1)
    ]
    enriched = _synthetic_pair(repeated + distinct)
    imported = {
        pretty(p.dest) for p in enriched["caller"].def_pairs
        if p.value == SymConst(7)
    }
    assert len(imported) == MAX_VARIANTS_PER_CALLSITE


def test_representative_ret_is_exploration_order_independent():
    analysis = InterproceduralAnalysis({}, CallGraph())
    values = [mk_deref(SymVar("arg0")), mk_deref(SymVar("arg1"))]
    forward = FunctionSummary(name="f", addr=0, ret_values=list(values))
    backward = FunctionSummary(name="f", addr=0,
                               ret_values=list(reversed(values)))
    assert analysis._representative_ret(forward, {}) == \
        analysis._representative_ret(backward, {})


def test_recursion_does_not_hang():
    source = r"""
.globl main
main:
    push {lr}
    bl even
    pop {pc}
.globl even
even:
    push {lr}
    cmp r0, #0
    beq done_even
    sub r0, r0, #1
    bl odd
done_even:
    pop {pc}
.globl odd
odd:
    push {lr}
    sub r0, r0, #1
    bl even
    pop {pc}
"""
    enriched, _ = _run(source)
    assert set(enriched) == {"main", "even", "odd"}


def test_run_dataflow_leaves_base_callsites_unchanged():
    """Interproc rewrites copies of callsites, never the base summary's
    own: a stored base summary must read as a fresh run has it."""
    from repro.core import DTaint, DTaintConfig
    from repro.corpus.profiles import analyzed_module_prefixes, build_firmware

    built = build_firmware("dir645", scale=0.02)
    detector = DTaint(built.binary, config=DTaintConfig(
        modules=analyzed_module_prefixes("dir645")))
    detector.analyze_functions()
    before = {
        name: [(call.addr, list(call.args)) for call in summary.callsites]
        for name, summary in detector.summaries.items()
    }
    detector.run_dataflow()
    after = {
        name: [(call.addr, list(call.args)) for call in summary.callsites]
        for name, summary in detector.summaries.items()
    }
    assert after == before
    # The enriched view did substitute return values into some args.
    assert any(
        [list(call.args) for call in enriched.callsites]
        != [list(call.args) for call in enriched.base.callsites]
        for enriched in detector.enriched.values()
    )
