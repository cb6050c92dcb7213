"""Assembly source parsing shared by the ARM and MIPS assemblers.

The parser splits a source file into sections of *items*: labels,
instruction lines and data directives.  Encoding the instruction text
is left to the per-architecture assembler; this module only understands
the line structure and the common directives:

``.section .text`` / ``.text`` / ``.data`` / ``.rodata`` / ``.bss``
    switch the current section,
``.word`` / ``.half`` / ``.byte``
    emit integers (label expressions allowed in ``.word``),
``.asciz`` / ``.ascii``
    emit string bytes (``.asciz`` NUL-terminates),
``.space N``
    emit N zero bytes,
``.align N``
    pad with zeros to a 2**N boundary,
``.globl NAME``
    mark a symbol as exported,
``.ltorg``
    flush the ARM literal pool.
"""

import re
from dataclasses import dataclass, field

from repro.errors import AssemblyError

SECTIONS = (".plt", ".text", ".rodata", ".data", ".bss")

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


@dataclass
class Item:
    """One parsed source item."""

    kind: str        # 'label' | 'insn' | 'word' | 'half' | 'byte'
                     # | 'string' | 'space' | 'align' | 'ltorg'
    text: str = ""
    args: list = field(default_factory=list)
    line: int = 0


def _unescape(raw):
    out = []
    i = 0
    escapes = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"'}
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt in escapes:
                out.append(escapes[nxt])
                i += 2
                continue
            if nxt == "x" and i + 3 < len(raw):
                out.append(chr(int(raw[i + 2:i + 4], 16)))
                i += 4
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def strip_comment(line, comment_chars):
    """Remove trailing comments, respecting string literals."""
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_string = not in_string
        elif not in_string:
            if ch in comment_chars:
                return line[:i]
            if ch == "/" and line[i:i + 2] == "//":
                return line[:i]
        i += 1
    return line


@dataclass
class ParsedSource:
    """Sections in declaration order plus exported symbol names."""

    sections: dict
    exported: set


def parse_source(source, comment_chars):
    """Parse assembly ``source`` into a :class:`ParsedSource`.

    ``comment_chars`` is a string of single-character comment markers
    ('@;' for ARM, '#;' for MIPS — ARM cannot use '#' because of
    immediate syntax).
    """
    sections = {name: [] for name in SECTIONS}
    exported = set()
    current = ".text"

    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = strip_comment(raw_line, comment_chars).strip()
        while line:
            match = _LABEL_RE.match(line)
            if match:
                sections[current].append(
                    Item("label", text=match.group(1), line=lineno)
                )
                line = line[match.end():].strip()
                continue
            break
        if not line:
            continue

        if line.startswith("."):
            parts = line.split(None, 1)
            directive = parts[0]
            rest = parts[1].strip() if len(parts) > 1 else ""
            if directive == ".section":
                if rest not in SECTIONS:
                    raise AssemblyError("unknown section %r" % rest, lineno)
                current = rest
            elif directive in SECTIONS:
                current = directive
            elif directive in (".word", ".half", ".byte"):
                args = [a.strip() for a in rest.split(",") if a.strip()]
                if not args:
                    raise AssemblyError("%s needs arguments" % directive, lineno)
                sections[current].append(
                    Item(directive[1:], args=args, line=lineno)
                )
            elif directive in (".asciz", ".ascii"):
                match = _STRING_RE.search(rest)
                if not match:
                    raise AssemblyError("%s needs a string" % directive, lineno)
                data = _unescape(match.group(1))
                if directive == ".asciz":
                    data += "\0"
                sections[current].append(
                    Item("string", text=data, line=lineno)
                )
            elif directive == ".space":
                sections[current].append(
                    Item("space", args=[rest], line=lineno)
                )
            elif directive == ".align":
                sections[current].append(
                    Item("align", args=[rest or "2"], line=lineno)
                )
            elif directive in (".globl", ".global"):
                exported.add(rest.split()[0])
            elif directive == ".ltorg":
                sections[current].append(Item("ltorg", line=lineno))
            else:
                raise AssemblyError("unknown directive %r" % directive, lineno)
            continue

        sections[current].append(Item("insn", text=line, line=lineno))

    return ParsedSource(sections=sections, exported=exported)


def parse_int(token, line=None):
    """Parse a numeric literal (decimal, hex, char, optional sign)."""
    token = token.strip()
    try:
        if len(token) == 3 and token[0] == token[2] == "'":
            return ord(token[1])
        return int(token, 0)
    except ValueError:
        raise AssemblyError("bad integer literal %r" % token, line)


def eval_symbol_expr(expr, symbols, line=None):
    """Evaluate ``label``, ``number`` or ``label+number`` expressions."""
    expr = expr.strip()
    for sep in ("+", "-"):
        idx = expr.rfind(sep)
        if idx > 0:
            left, right = expr[:idx].strip(), expr[idx + 1:].strip()
            if left and right and not left[-1] in "+-":
                try:
                    rhs = parse_int(right, line)
                except AssemblyError:
                    continue
                base = eval_symbol_expr(left, symbols, line)
                return (base + rhs) if sep == "+" else (base - rhs)
    try:
        return parse_int(expr, line)
    except AssemblyError:
        pass
    if expr in symbols:
        return symbols[expr]
    raise AssemblyError("undefined symbol %r" % expr, line)


@dataclass
class AssembledProgram:
    """Result of assembling one source file.

    ``sections`` maps section name to ``(base_address, bytes)``;
    ``symbols`` maps every label to its absolute address; ``exported``
    holds ``.globl`` names.
    """

    sections: dict
    symbols: dict
    exported: set

    def section_bytes(self, name):
        return self.sections[name][1]

    def flat_image(self):
        """Concatenate sections into (base, bytes) with zero-fill gaps."""
        placed = [(base, data) for base, data in self.sections.values() if data]
        if not placed:
            return 0, b""
        placed.sort()
        start = placed[0][0]
        end = max(base + len(data) for base, data in placed)
        image = bytearray(end - start)
        for base, data in placed:
            image[base - start:base - start + len(data)] = data
        return start, bytes(image)
