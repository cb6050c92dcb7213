"""Recursive firmware extraction over a registry of UnpackParsers.

Real firmware is a matryoshka: a partition table holds an obfuscated
vendor wrapper holding a TRX holding an LZMA-compressed kernel and a
filesystem whose files are themselves filesystem images.  DTaint's
front end (paper §IV) must surface every binary in that nest before
any analysis can happen — the paper's §VI reports that >65% of real
images fail to unpack cleanly, which is exactly the failure mode a
single-format carver has.

The model here follows binaryanalysis-ng's parser tree: every format
is one :class:`UnpackParser` plugin declaring its magic signature(s)
and a ``parse`` method that validates bounds and yields child
regions.  The driver is a fixpoint loop — carve → identify → unpack →
recurse — over those regions:

1. scan a region for registered signatures;
2. try each candidate **in offset order**; the first parser that
   accepts (validation passes) wins, failed candidates are recorded
   as notes on the resulting node (decoy magics degrade to notes, not
   aborts);
3. every child region the parser yields (partitions, decompressed
   payloads, filesystem files) is re-scanned the same way until only
   leaves (ELFs, opaque data) remain.

Budgets guard the recursion with the same trust-boundary limits the
flat extractor already enforces (:mod:`repro.firmware.simplefs`):
a depth cap defeats recursion bombs (a gzip quine nests forever), a
total-inflate cap defeats decompression bombs, and a node cap defeats
fan-out bombs.  A blown budget raises :class:`FirmwareError` — the
pipeline's fault taxonomy turns that into a typed, degraded job
instead of an OOM.
"""

import hashlib
from dataclasses import dataclass, field

from repro import faultinject
from repro.errors import FirmwareError
from repro.firmware.simplefs import MAX_IMAGE_BYTES

MANIFEST_FORMAT_VERSION = 1

DEFAULT_MAX_DEPTH = 8
DEFAULT_MAX_NODES = 4096

ELF_MAGIC = b"\x7fELF"


@dataclass
class Region:
    """One child blob a parser yielded for re-scanning.

    ``scan_anywhere`` controls signature discovery: container payloads
    (kernels, partitions) are scanned at any offset because vendors
    pad them, while filesystem *files* only match at offset 0 — a
    stray magic in the middle of ``/etc/passwd`` is file content, not
    a nested image.
    """

    label: str
    data: bytes
    scan_anywhere: bool = True
    meta: dict = field(default_factory=dict)


@dataclass
class CarvedUnit:
    """What one parser produced from one match offset."""

    size: int                    # bytes consumed from the match offset
    children: list = field(default_factory=list)     # [Region, ...]
    meta: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)      # [(label, reason)]


class UnpackParser:
    """Base class for signature-keyed unpack plugins.

    Subclasses declare ``name``, the magic ``signatures`` bytes that
    key them into the scan, and implement :meth:`parse`, which either
    returns a :class:`CarvedUnit` (bounds validated, children ready
    for recursion) or raises :class:`FirmwareError` — the driver then
    falls through to the next candidate in offset order.
    """

    name = ""
    signatures = ()              # tuple of magic byte strings

    def parse(self, data, offset, budget):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Registry.

_REGISTRY = []


def register(cls):
    """Class decorator: instantiate and register an UnpackParser."""
    parser = cls()
    if not parser.name or not parser.signatures:
        raise ValueError("parser %r needs a name and signatures" % cls)
    _REGISTRY.append(parser)
    return cls


def registered_parsers():
    """All registered parser instances (registration order)."""
    _ensure_loaded()
    return tuple(_REGISTRY)


def _ensure_loaded():
    # The plugin module registers its parsers on import; importing it
    # lazily here breaks the cycle (parsers need this module's bases).
    if not _REGISTRY:
        from repro.firmware import parsers as _parsers  # noqa: F401


def signature_table():
    """``[(magic, parser), ...]`` — longest magics first so a scan
    prefers the most specific signature at any given offset."""
    _ensure_loaded()
    table = [
        (magic, parser)
        for parser in _REGISTRY
        for magic in parser.signatures
    ]
    table.sort(key=lambda item: (-len(item[0]), item[1].name))
    return table


def find_candidates(data, anywhere=True):
    """Candidate ``(offset, parser)`` pairs in offset order.

    With ``anywhere`` false only offset-0 matches are returned (the
    filesystem-file rule).  At equal offsets the longer magic wins
    first slot; a parser appears once per matching offset.
    """
    candidates = []
    seen = set()
    for position, (magic, parser) in enumerate(signature_table()):
        if anywhere:
            start = 0
            while True:
                index = data.find(magic, start)
                if index < 0:
                    break
                if (index, parser.name) not in seen:
                    seen.add((index, parser.name))
                    candidates.append((index, position, parser))
                start = index + 1
        elif data[:len(magic)] == magic:
            if (0, parser.name) not in seen:
                seen.add((0, parser.name))
                candidates.append((0, position, parser))
    candidates.sort(key=lambda item: (item[0], item[1]))
    return [(offset, parser) for offset, _position, parser in candidates]


# ---------------------------------------------------------------------------
# Budgets.

class UnpackBudget:
    """Depth / inflate / fan-out limits shared by one extraction.

    ``max_total_bytes`` reuses the trust-boundary image budget from
    :mod:`repro.firmware.simplefs`: the sum of all child regions ever
    materialised (decompressed payloads included) may not exceed it.
    """

    def __init__(self, max_depth=DEFAULT_MAX_DEPTH,
                 max_total_bytes=MAX_IMAGE_BYTES,
                 max_nodes=DEFAULT_MAX_NODES):
        self.max_depth = max_depth
        self.max_total_bytes = max_total_bytes
        self.max_nodes = max_nodes
        self.total_bytes = 0
        self.nodes = 0

    def charge_bytes(self, count, label=""):
        self.total_bytes += count
        if self.total_bytes > self.max_total_bytes:
            raise FirmwareError(
                "extraction inflates past the %d MiB budget%s"
                % (self.max_total_bytes >> 20,
                   " (at %s)" % label if label else "")
            )

    def charge_node(self, label=""):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise FirmwareError(
                "extraction exceeds %d nodes%s — fan-out bomb?"
                % (self.max_nodes, " (at %s)" % label if label else "")
            )

    def check_depth(self, depth, label=""):
        if depth > self.max_depth:
            raise FirmwareError(
                "extraction nests deeper than %d levels%s — "
                "recursion bomb?"
                % (self.max_depth, " (at %s)" % label if label else "")
            )

    def remaining_bytes(self):
        return max(self.max_total_bytes - self.total_bytes, 0)


# ---------------------------------------------------------------------------
# The extraction tree.

@dataclass
class ExtractionNode:
    """One carved unit (or leaf blob) in the extraction tree."""

    parser: str                  # 'trx' | 'simplefs' | 'elf' | 'data' | ...
    label: str                   # child label within the parent
    offset: int                  # match offset within the parent region
    size: int
    depth: int
    sha256: str
    meta: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)    # decoys, skipped files
    children: list = field(default_factory=list)
    data: bytes = None           # leaf payload (interior nodes: None)

    @property
    def is_leaf(self):
        return not self.children

    def to_dict(self):
        """Canonical manifest form (no payload bytes, sorted keys)."""
        return {
            "parser": self.parser,
            "label": self.label,
            "offset": self.offset,
            "size": self.size,
            "depth": self.depth,
            "sha256": self.sha256,
            "meta": {key: self.meta[key] for key in sorted(self.meta)},
            "notes": list(self.notes),
            "children": [child.to_dict() for child in self.children],
        }


class ExtractionTree:
    """The result of one recursive extraction."""

    def __init__(self, name, root, budget):
        self.name = name
        self.root = root
        self.budget = budget

    def walk(self):
        """Yield ``(path, node)`` depth-first; paths are '/'-joined
        labels and unique within the tree."""
        stack = [(self.root, self.root.label)]
        while stack:
            node, path = stack.pop()
            yield path, node
            stack.extend(
                (child, "%s/%s" % (path, child.label) if path
                 else child.label)
                for child in reversed(node.children)
            )

    def nodes(self):
        return [node for _path, node in self.walk()]

    def elves(self):
        """Every ELF leaf as ``(member_id, display_path, data)``.

        ``member_id`` is the unique tree path (stable across runs —
        what a fleet job's ``member`` field names); ``display_path``
        prefers the filesystem path when the ELF came out of a
        filesystem (labels starting with '/').
        """
        out = []
        for path, node in self.walk():
            if node.parser == "elf" and node.data is not None:
                display = node.label if node.label.startswith("/") else path
                out.append((path, display, node.data))
        return out

    def leaves(self):
        return [(path, node) for path, node in self.walk() if node.is_leaf]

    @property
    def max_depth(self):
        return max(node.depth for node in self.nodes())

    def manifest(self):
        """Canonical, deterministic manifest document."""
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "name": self.name,
            "max_depth": self.max_depth,
            "node_count": len(self.nodes()),
            "elves": [
                {"member": member, "path": display,
                 "sha256": hashlib.sha256(data).hexdigest(),
                 "size": len(data)}
                for member, display, data in self.elves()
            ],
            "tree": self.root.to_dict(),
        }

    def render(self):
        """Human-readable tree (``dtaint unpack`` output)."""
        lines = []

        def visit(node, prefix, is_last, is_root):
            describe = "%s" % node.parser
            if node.label and node.label != describe:
                describe = "%s [%s]" % (node.label, node.parser)
            extras = []
            if node.offset:
                extras.append("@0x%x" % node.offset)
            extras.append("%d bytes" % node.size)
            for key in sorted(node.meta):
                extras.append("%s=%s" % (key, node.meta[key]))
            if node.notes:
                extras.append("%d note(s)" % len(node.notes))
            text = "%s (%s)" % (describe, ", ".join(extras))
            if is_root:
                lines.append(text)
                child_prefix = ""
            else:
                connector = "`-- " if is_last else "|-- "
                lines.append(prefix + connector + text)
                child_prefix = prefix + ("    " if is_last else "|   ")
            for index, child in enumerate(node.children):
                visit(child, child_prefix,
                      index == len(node.children) - 1, False)

        visit(self.root, "", True, True)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The recursive driver.

class RecursiveExtractor:
    """carve → identify → unpack → recurse, until fixpoint."""

    def __init__(self, max_depth=DEFAULT_MAX_DEPTH,
                 max_total_bytes=MAX_IMAGE_BYTES,
                 max_nodes=DEFAULT_MAX_NODES):
        self.budget = UnpackBudget(max_depth=max_depth,
                                   max_total_bytes=max_total_bytes,
                                   max_nodes=max_nodes)

    def extract(self, data, name=""):
        """Unpack ``data`` fully; returns an :class:`ExtractionTree`.

        Raises :class:`FirmwareError` when the top level contains no
        parseable container or ELF at all, or when a budget blows —
        nested decoys and unidentifiable payloads degrade to ``data``
        leaves with notes instead.
        """
        faultinject.check("firmware.unpack", name)
        root = self._extract_region(
            Region(label=name or "image", data=data, scan_anywhere=True),
            depth=0,
        )
        if root.parser == "data":
            detail = "; ".join(root.notes) if root.notes else \
                "no known container signature found"
            raise FirmwareError(
                "no parseable container in %s: %s"
                % (name or "image", detail)
            )
        return ExtractionTree(name=name, root=root, budget=self.budget)

    def _extract_region(self, region, depth):
        """Identify and unpack one region; returns its node."""
        budget = self.budget
        budget.check_depth(depth, region.label)
        budget.charge_node(region.label)
        data = region.data
        notes = []
        for offset, parser in find_candidates(
                data, anywhere=region.scan_anywhere):
            try:
                unit = parser.parse(data, offset, budget)
            except FirmwareError as exc:
                # A decoy or corrupt candidate: note it, try the next
                # signature in offset order (bugfix: a vendor-blob hit
                # must not mask a valid TRX later in the blob).
                notes.append("%s@0x%x: %s" % (parser.name, offset, exc))
                continue
            return self._build_node(region, parser, offset, unit,
                                    depth, notes)
        # Nothing parsed: a leaf.  ELFs are identified (they are what
        # the analysis downstream wants); everything else is data.
        kind = "elf" if data[:4] == ELF_MAGIC else "data"
        return ExtractionNode(
            parser=kind, label=region.label, offset=0, size=len(data),
            depth=depth, sha256=hashlib.sha256(data).hexdigest(),
            meta=dict(region.meta), notes=notes, data=data,
        )

    def _build_node(self, region, parser, offset, unit, depth, notes):
        node = ExtractionNode(
            parser=parser.name, label=region.label, offset=offset,
            size=unit.size, depth=depth,
            sha256=hashlib.sha256(
                region.data[offset:offset + unit.size]
            ).hexdigest(),
            meta={**region.meta, **unit.meta}, notes=notes,
        )
        for label, reason in unit.skipped:
            node.notes.append("skipped %s: %s" % (label, reason))
        trailing = len(region.data) - offset - unit.size
        if trailing > 0:
            node.meta.setdefault("trailing_bytes", trailing)
        seen_labels = set()
        for child in unit.children:
            # Labels must be unique per parent so tree paths are
            # stable member identifiers.
            label = child.label
            serial = 1
            while label in seen_labels:
                serial += 1
                label = "%s#%d" % (child.label, serial)
            seen_labels.add(label)
            child.label = label
            self.budget.charge_bytes(len(child.data), label)
            node.children.append(self._extract_region(child, depth + 1))
        if not node.children:
            # A parsed unit with no children keeps its payload: it is
            # a leaf the caller may want (an identified ELF).
            node.data = region.data[offset:offset + unit.size]
        return node


def unpack(data, name="", max_depth=DEFAULT_MAX_DEPTH,
           max_total_bytes=MAX_IMAGE_BYTES, max_nodes=DEFAULT_MAX_NODES):
    """One-call recursive extraction; returns an ExtractionTree."""
    extractor = RecursiveExtractor(
        max_depth=max_depth, max_total_bytes=max_total_bytes,
        max_nodes=max_nodes,
    )
    return extractor.extract(data, name=name)
