"""The loaded-binary abstraction the analyses run on.

:class:`LoadedBinary` plays the role angr's CLE loader plays in the
paper's pipeline: it maps segments, resolves the architecture, indexes
function symbols, and distinguishes local functions from libc import
stubs (symbols living in ``.plt``).
"""

import bisect
from dataclasses import dataclass, field

from repro import faultinject
from repro.arch import get_arch
from repro.errors import ELFError
from repro.loader.elf import ElfFile


@dataclass
class FunctionSymbol:
    name: str
    addr: int
    size: int
    is_import: bool = False


@dataclass
class LoadedBinary:
    """An ELF mapped into a flat address space, ready for analysis."""

    arch: object
    entry: int
    elf: ElfFile = None
    segments: list = field(default_factory=list)  # (vaddr, bytes, executable)
    functions: dict = field(default_factory=dict)  # name -> FunctionSymbol
    imports: dict = field(default_factory=dict)    # addr -> name
    data_symbols: dict = field(default_factory=dict)
    _starts: list = field(default_factory=list)

    def _index(self):
        self.segments.sort(key=lambda seg: seg[0])
        self._starts = [seg[0] for seg in self.segments]

    def segment_for(self, addr):
        index = bisect.bisect_right(self._starts, addr) - 1
        if index < 0:
            return None
        vaddr, data, executable = self.segments[index]
        if addr < vaddr + len(data):
            return self.segments[index]
        return None

    def read(self, addr, size):
        """Read an integer from mapped memory; None when unmapped."""
        segment = self.segment_for(addr)
        if segment is None:
            return None
        vaddr, data, _ = segment
        offset = addr - vaddr
        if offset + size > len(data):
            return None
        return int.from_bytes(
            data[offset:offset + size],
            "big" if self.arch.is_big_endian else "little",
        )

    def read_bytes(self, addr, size):
        segment = self.segment_for(addr)
        if segment is None:
            return None
        vaddr, data, _ = segment
        offset = addr - vaddr
        return bytes(data[offset:offset + size])

    def read_cstring(self, addr, limit=4096):
        segment = self.segment_for(addr)
        if segment is None:
            return None
        vaddr, data, _ = segment
        offset = addr - vaddr
        end = data.find(b"\x00", offset, offset + limit)
        if end < 0:
            end = min(offset + limit, len(data))
        return bytes(data[offset:end])

    def read_ro(self, addr, size):
        """Like :meth:`read`, but only serves non-writable segments.

        Used as the lifters' ``mem_reader`` so literal-pool loads fold
        to constants without constant-folding mutable data.
        """
        segment = self.segment_for(addr)
        if segment is None:
            return None
        vaddr, data, executable = segment
        if not executable and self._segment_writable(vaddr):
            return None
        return self.read(addr, size)

    def _segment_writable(self, vaddr):
        if self.elf is None:
            return False
        for segment in self.elf.segments:
            if segment.vaddr == vaddr:
                return segment.writable
        return False

    def is_executable(self, addr):
        segment = self.segment_for(addr)
        return segment is not None and segment[2]

    def import_name(self, addr):
        return self.imports.get(addr)

    @property
    def local_functions(self):
        return [f for f in self.functions.values() if not f.is_import]


def load_elf(data, name=""):
    """Parse and map ELF ``data`` into a :class:`LoadedBinary`.

    Raises :class:`ELFError` (a :class:`~repro.errors.MalformedInput`)
    for any malformed input; ``name`` is a label for fault probes and
    error messages (typically the file path).
    """
    faultinject.check("loader", name)
    elf = ElfFile.parse(data)
    arch = get_arch(elf.arch_name)

    binary = LoadedBinary(arch=arch, entry=elf.entry, elf=elf)
    for segment in elf.segments:
        content = bytearray(elf.data[segment.offset:segment.offset + segment.filesz])
        if segment.memsz > segment.filesz:
            content += b"\x00" * (segment.memsz - segment.filesz)
        binary.segments.append((segment.vaddr, bytes(content), segment.executable))
    binary._index()

    plt = elf.sections.get(".plt")
    plt_range = (plt.addr, plt.addr + plt.size) if plt else None

    for symbol in elf.symbols:
        if symbol.is_function:
            is_import = bool(
                plt_range and plt_range[0] <= symbol.value < plt_range[1]
            )
            function = FunctionSymbol(
                name=symbol.name, addr=symbol.value, size=symbol.size,
                is_import=is_import,
            )
            if symbol.name in binary.functions:
                raise ELFError("duplicate function symbol %r" % symbol.name)
            binary.functions[symbol.name] = function
            if is_import:
                binary.imports[symbol.value] = symbol.name
        else:
            binary.data_symbols[symbol.name] = symbol.value
    return binary
