"""Data-structure layout similarity (Formula 2) and indirect calls."""

import pytest

from repro.core import DTaint
from repro.core.structure import (
    StructLayout,
    extract_layouts,
    resolve_indirect_calls,
    similarity,
    ROOT,
)
from repro.loader.binary import load_elf
from repro.loader.link import build_executable
from repro.symexec.value import SymVar, mk_add, mk_deref, SymConst, substitute


def _layout(fields_by_base):
    layout = StructLayout(root=SymVar("arg0"))
    for base, fields in fields_by_base.items():
        for offset, type_ in fields:
            layout.add(base, offset, type_)
    return layout


class TestSimilarity:
    def test_identical_layouts_score_one_per_base(self):
        a = _layout({ROOT: [(0, "ptr"), (8, "int")]})
        b = _layout({ROOT: [(0, "ptr"), (8, "int")]})
        assert similarity(a, b) == 1.0

    def test_subset_layout(self):
        a = _layout({ROOT: [(8, "int")]})
        b = _layout({ROOT: [(0, "ptr"), (8, "int")]})
        assert similarity(a, b) == pytest.approx(0.5)

    def test_type_conflict_zeroes_similarity(self):
        a = _layout({ROOT: [(8, "ptr")]})
        b = _layout({ROOT: [(8, "int")]})
        assert similarity(a, b) == 0.0

    def test_base_containment_rule(self):
        inner = mk_deref(mk_add(ROOT, SymConst(4)))
        a = _layout({ROOT: [(0, "int")], inner: [(0, "int")]})
        b = _layout({inner: [(0, "int")]})
        # base(B) ⊆ base(A): allowed.
        assert similarity(a, b) > 0
        c = _layout({mk_deref(ROOT): [(0, "int")]})
        # Disjoint base sets: rejected.
        assert similarity(a, c) == 0.0

    def test_symmetry(self):
        a = _layout({ROOT: [(0, "ptr"), (4, "int"), (8, "int")]})
        b = _layout({ROOT: [(0, "ptr"), (4, "int")]})
        assert similarity(a, b) == similarity(b, a)

    def test_multilayer_sums_per_base(self):
        inner = mk_deref(mk_add(ROOT, SymConst(8)))
        a = _layout({ROOT: [(8, "ptr")], inner: [(0, "int"), (4, "int")]})
        b = _layout({ROOT: [(8, "ptr")], inner: [(0, "int"), (4, "int")]})
        assert similarity(a, b) == pytest.approx(2.0)


# A dispatcher that calls a handler through a function pointer kept in
# *writable* memory (so constant folding cannot resolve it) — only the
# layout of the request object identifies the callee.
DISPATCH_SRC = r"""
.globl dispatch
dispatch:                          @ (struct request *req)
    push {r4, r5, lr}
    mov r4, r0
    ldr r5, [r4, #0x8]             @ touch req->query (char*)
    ldr r3, [r4, #0x10]            @ touch req->len   (int)
    cmp r3, #0
    beq skip
    ldr r3, =handler_slot
    ldr r3, [r3]                   @ fp = handler_slot (writable!)
    mov r0, r4
    blx r3                         @ indirect call
skip:
    pop {r4, r5, pc}
.ltorg

.globl handler_echo
handler_echo:                      @ touches only req->name
    ldr r1, [r0, #0x0]
    bx lr

.globl handler_exec
handler_exec:                      @ strcpy(stack, req->query); uses len
    push {r4, lr}
    sub sp, sp, #0x40
    ldr r1, [r0, #0x8]             @ req->query
    ldr r2, [r0, #0x10]            @ req->len
    cmp r2, #0
    beq done_exec
    mov r0, sp
    bl strcpy
done_exec:
    add sp, sp, #0x40
    pop {r4, pc}

.globl fill_request
fill_request:                      @ (req): req->query = getenv("QUERY")
    push {r4, lr}
    mov r4, r0
    ldr r0, =qname
    bl getenv
    str r0, [r4, #0x8]
    mov r3, #1
    str r3, [r4, #0x10]
    pop {r4, pc}
.ltorg

.globl main
main:
    push {r4, lr}
    sub sp, sp, #0x20
    mov r0, sp
    bl fill_request
    mov r0, sp
    bl dispatch
    add sp, sp, #0x20
    pop {r4, pc}

.data
.globl handler_slot
handler_slot: .word handler_exec
.rodata
qname: .asciz "QUERY"
"""


@pytest.fixture(scope="module")
def dispatch_result():
    elf_bytes, _ = build_executable(
        "arm", DISPATCH_SRC, imports=["strcpy", "getenv"], entry="main"
    )
    binary = load_elf(elf_bytes)
    detector = DTaint(binary, name="dispatch")
    report = detector.run()
    return detector, report


def test_indirect_call_resolved_by_similarity(dispatch_result):
    detector, report = dispatch_result
    assert report.indirect_resolved == 1
    resolution = detector.resolutions[0]
    assert resolution.caller == "dispatch"
    assert resolution.callee == "handler_exec"
    assert resolution.score > 0


def test_call_graph_gains_indirect_edge(dispatch_result):
    detector, _ = dispatch_result
    assert "handler_exec" in detector.call_graph.callees("dispatch")


def test_taint_flows_through_indirect_call(dispatch_result):
    """getenv -> req->query -> (indirect) handler_exec -> strcpy."""
    _, report = dispatch_result
    strcpy_findings = [
        f for f in report.findings if f.sink_name == "strcpy"
    ]
    assert strcpy_findings, report.render()
    assert strcpy_findings[0].source_name == "getenv"


def test_layout_extraction_from_summary(dispatch_result):
    detector, _ = dispatch_result
    layouts = extract_layouts(detector.summaries["handler_exec"])
    arg0_layout = layouts[SymVar("arg0")]
    offsets = {
        offset for fields in arg0_layout.fields.values()
        for offset, _ in fields
    }
    assert {0x8, 0x10} <= offsets


def test_no_indirect_sites_extracts_no_layouts(monkeypatch):
    """Layouts are extracted on first read, and an image without
    indirect callsites reads none."""
    import repro.core.structure as structure

    read = []

    def extract(summary, types=None):
        read.append(summary.name)
        return extract_layouts(summary, types)

    source = r"""
.globl main
main:
    push {r4, lr}
    bl helper
    pop {r4, pc}

.globl helper
helper:
    ldr r0, [r0, #4]
    bx lr
"""
    elf_bytes, _ = build_executable("arm", source, imports=[], entry="main")
    detector = DTaint(load_elf(elf_bytes))
    detector.analyze_functions()
    assert not detector.call_graph.indirect_sites
    monkeypatch.setattr(structure, "extract_layouts", extract)
    detector.run_dataflow()
    assert detector.resolutions == []
    assert read == []


def test_layouts_extracted_for_caller_and_candidates_only(monkeypatch):
    import repro.core.structure as structure

    read = []

    def extract(summary, types=None):
        read.append(summary.name)
        return extract_layouts(summary, types)

    elf_bytes, _ = build_executable(
        "arm", DISPATCH_SRC, imports=["strcpy", "getenv"], entry="main"
    )
    detector = DTaint(load_elf(elf_bytes), name="dispatch")
    detector.analyze_functions()
    monkeypatch.setattr(structure, "extract_layouts", extract)
    detector.run_dataflow()
    assert [r.callee for r in detector.resolutions] == ["handler_exec"]
    assert sorted(read) == ["dispatch", "handler_exec"]
