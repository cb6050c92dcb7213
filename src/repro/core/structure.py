"""Data-structure layout and similarity (paper §III-D, Formula 2).

A structure is represented by 3-tuples ``(b, o, t)``: base address,
constant field offset, and field type.  A multi-layer structure is the
collection of field sets grouped by base address, all sharing a root
pointer.  Two structures are similar when one's base set embeds into
the other's and fields at the same offset under the same base agree in
type; their similarity is the sum of Jaccard indices over aligned
bases.  The best-scoring candidate resolves each indirect call.
"""

from dataclasses import dataclass, field

from repro.core.types import UNKNOWN, infer_types, root_pointer
from repro.profiling import PROFILER
from repro.symexec.value import (
    SymDeref,
    SymVar,
    _sort_key,
    base_offset,
    pretty,
    substitute,
    walk,
)

ROOT = SymVar("$root")


@dataclass
class StructLayout:
    """Fields of one object, grouped by (normalised) base address.

    ``fields`` maps a base expression — rewritten so the root pointer
    is the placeholder ``$root`` — to a set of ``(offset, type)``
    pairs.
    """

    root: object
    fields: dict = field(default_factory=dict)
    _bases: object = field(default=None, repr=False, compare=False)
    _signature: object = field(default=None, repr=False, compare=False)

    def add(self, base, offset, type_):
        self.fields.setdefault(base, set()).add((offset, type_))
        self._bases = None
        self._signature = None

    @property
    def bases(self):
        if self._bases is None:
            self._bases = frozenset(self.fields)
        return self._bases

    def signature(self):
        """Canonical, hashable identity of the layout's content.

        Bases are interned expressions (identity-hashable), field sets
        become frozensets, and entries are ordered canonically — two
        layouts with equal content share one signature, which keys the
        pairwise similarity memo.
        """
        if self._signature is None:
            self._signature = tuple(sorted(
                ((base, frozenset(fields))
                 for base, fields in self.fields.items()),
                key=lambda entry: _sort_key(entry[0]),
            ))
        return self._signature

    def describe(self):
        return {
            pretty(base): sorted(fields)
            for base, fields in self.fields.items()
        }


def _field_type(deref_node, types):
    inferred = types.type_of(deref_node)
    if inferred != UNKNOWN:
        return inferred
    # Fall back to the access width: pointer-sized loads may be
    # pointers, narrower ones are data.
    return "word" if deref_node.size == 4 else "byte"


def extract_layouts(summary, types=None):
    """Collect per-root structure layouts from a function summary.

    Every ``deref(base + offset)`` observed anywhere in the summary is
    a field access; bases are normalised by replacing the root pointer
    with ``$root`` so layouts of different functions are comparable.
    """
    if types is None:
        types = infer_types(summary)
    layouts = {}

    def visit(expr):
        for node in walk(expr):
            if not isinstance(node, SymDeref):
                continue
            view = base_offset(node.addr)
            if view is None:
                continue
            base, offset = view
            if base is None:
                continue
            root = root_pointer(node)
            if root is None:
                continue
            layout = layouts.get(root)
            if layout is None:
                layout = StructLayout(root=root)
                layouts[root] = layout
            normalised_base = substitute(base, {root: ROOT})
            # Pointer evidence: a field used as a deref base is itself a
            # pointer-typed field of the parent.
            layout.add(normalised_base, offset, _field_type(node, types))

    for pair in summary.def_pairs:
        visit(pair.dest)
        visit(pair.value)
    for use in summary.uses:
        visit(use.var)
    for call in summary.callsites:
        for arg in call.args:
            visit(arg)
    for constraint in summary.constraints:
        visit(constraint.expr)
    return layouts


_SIMILARITY_MEMO = {}  # (signature, signature) -> score


def similarity(a, b):
    """Formula 2: sum of Jaccard indices over aligned base addresses.

    Returns 0.0 when the base-containment or field-type compatibility
    rules fail.  Scores are memoized on the layouts' canonical
    signatures, so the candidate × callsite matrix in indirect-call
    resolution computes each distinct pairing once.
    """
    if a is None or b is None:
        return 0.0
    PROFILER.count("similarity_comparisons")
    key = (a.signature(), b.signature())
    cached = _SIMILARITY_MEMO.get(key)
    if cached is None:
        cached = _similarity_uncached(a, b)
        _SIMILARITY_MEMO[key] = cached
    else:
        PROFILER.count("similarity_memo_hits")
    return cached


def _similarity_uncached(a, b):
    bases_a, bases_b = a.bases, b.bases
    if not bases_a or not bases_b:
        return 0.0
    if not (bases_a <= bases_b or bases_b <= bases_a):
        return 0.0
    score = 0.0
    for base in sorted(bases_a & bases_b, key=_sort_key):
        fields_a, fields_b = a.fields[base], b.fields[base]
        # Same offset at the same base must have the same type.
        offsets_a = dict(fields_a)
        for offset, type_b in fields_b:
            type_a = offsets_a.get(offset)
            if type_a is not None and not _types_compatible(type_a, type_b):
                return 0.0
        union = fields_a | fields_b
        if union:
            score += len(fields_a & fields_b) / len(union)
    return score


def _types_compatible(a, b):
    if a == b:
        return True
    # "word" is an unknown 4-byte access: compatible with any
    # pointer/int view of the same slot.
    vague = {"word", UNKNOWN}
    if a in vague or b in vague:
        return True
    pointerish = {"ptr", "char*"}
    return a in pointerish and b in pointerish


def address_taken_functions(binary, summaries=None):
    """Local functions whose address escapes into data.

    Candidates for indirect-call resolution: a function can only be
    called through a pointer if its address was *taken* — stored in a
    data section (function-pointer tables, handler slots) or written
    to memory as a constant.
    """
    from repro.symexec.value import SymConst

    by_addr = {f.addr: f.name for f in binary.local_functions}
    taken = set()
    endness = "big" if binary.arch.is_big_endian else "little"
    for _name, (_base, data) in _data_sections(binary):
        for offset in range(0, len(data) - 3, 4):
            word = int.from_bytes(data[offset:offset + 4], endness)
            if word in by_addr:
                taken.add(by_addr[word])
    if summaries:
        for summary in summaries.values():
            for pair in summary.def_pairs:
                value = pair.value
                if isinstance(value, SymConst) and value.value in by_addr:
                    taken.add(by_addr[value.value])
    return taken


def _data_sections(binary):
    """(name, (base, bytes)) for the binary's data sections."""
    elf = binary.elf
    if elf is None:
        return []
    sections = []
    for name in (".data", ".rodata"):
        section = elf.sections.get(name)
        if section is not None and section.size:
            sections.append(
                (name, (section.addr, elf.section_bytes(name)))
            )
    return sections


@dataclass
class IndirectResolution:
    caller: str
    callsite_addr: int
    callee: str
    score: float


def resolve_indirect_calls(summaries, call_graph, candidates=None,
                           min_score=0.0):
    """Resolve indirect callsites by layout similarity.

    ``candidates`` restricts the callee pool (e.g. to address-taken
    functions); by default every analysed local function with a
    parameter layout is considered.  The caller-side layout is the one
    rooted at the callsite's first argument; the callee-side layout is
    the one rooted at its ``arg0``.  The best strictly-positive score
    wins (paper: "establish data dependencies of two data structures
    with the highest similarity").  Layouts are extracted on first
    read, so an image without indirect callsites extracts none.
    """
    with PROFILER.phase("similarity"):
        return _resolve_indirect_calls(summaries, call_graph, candidates,
                                       min_score)


def _resolve_indirect_calls(summaries, call_graph, candidates, min_score):
    if not call_graph.indirect_sites:
        return []
    layouts = _LazyLayouts(summaries)
    arg0 = SymVar("arg0")
    if candidates is None:
        candidates = [name for name in summaries if arg0 in layouts[name]]

    resolutions = []
    for caller_name, callsite in list(call_graph.indirect_sites):
        caller_summary = summaries.get(caller_name)
        if caller_summary is None:
            continue
        info = _callsite_summary(caller_summary, callsite.addr)
        if info is None or not info.args:
            continue
        caller_root = root_pointer(info.args[0])
        if caller_root is None:
            caller_root = info.args[0]
        caller_layout = layouts[caller_name].get(caller_root)
        best = None
        for callee_name in candidates:
            if callee_name == caller_name:
                continue
            callee_layout = layouts[callee_name].get(arg0)
            score = similarity(caller_layout, callee_layout)
            if score <= min_score:
                continue
            if best is None or score > best.score:
                best = IndirectResolution(
                    caller=caller_name, callsite_addr=callsite.addr,
                    callee=callee_name, score=score,
                )
        if best is not None:
            call_graph.add_indirect_edge(caller_name, best.callee, callsite)
            info.target = best.callee
            resolutions.append(best)
    return resolutions


class _LazyLayouts:
    """Per-function layout maps, extracted on first read.

    Resolution reads the layouts of indirect callers and candidate
    callees only, so most functions never need one.  A name outside
    ``summaries`` reads as ``{}``.
    """

    def __init__(self, summaries):
        self.summaries = summaries
        self.extracted = {}

    def __getitem__(self, name):
        layouts = self.extracted.get(name)
        if layouts is None:
            summary = self.summaries.get(name)
            if summary is None:
                return {}
            layouts = self.extracted[name] = extract_layouts(summary)
        return layouts


def _callsite_summary(summary, addr):
    for call in summary.callsites:
        if call.addr == addr:
            return call
    return None
