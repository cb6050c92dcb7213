"""Assemble a corpus target into a loadable binary with ground truth."""

from dataclasses import dataclass, field

from repro.loader.binary import load_elf
from repro.loader.link import build_executable


@dataclass(frozen=True)
class GroundTruth:
    """One planted vulnerability (or deliberately safe pattern)."""

    function: str
    kind: str                # 'buffer-overflow' | 'command-injection'
    sink: str                # sink function name or 'loop'
    source: str
    cve: str = ""            # CVE/EDB label, or '' for zero-days
    vulnerable: bool = True  # False marks a sanitized decoy
    # Protocol-shaped attack input for PoC validation (e.g. an RTSP
    # request); empty means the generic byte-flood payload.
    poc_input: bytes = b""


@dataclass
class BuiltBinary:
    """An assembled target: ELF bytes, loaded form, and ground truth."""

    name: str
    arch: str
    elf_bytes: bytes
    binary: object
    program: object
    ground_truth: list = field(default_factory=list)

    @property
    def size_kb(self):
        return len(self.elf_bytes) / 1024.0

    def expected_vulnerabilities(self):
        return [g for g in self.ground_truth if g.vulnerable]


def build_binary(name, arch, source, imports, entry="main", ground_truth=()):
    """Assemble ``source`` and return a :class:`BuiltBinary`."""
    elf_bytes, program = build_executable(
        arch, source, imports=sorted(set(imports)), entry=entry
    )
    return BuiltBinary(
        name=name,
        arch=arch,
        elf_bytes=elf_bytes,
        binary=load_elf(elf_bytes),
        program=program,
        ground_truth=list(ground_truth),
    )
