"""Binwalk-style signature scanning and extraction (paper §IV).

DTaint's front end "uses a custom-written extraction utility built
around the Binwalk API to extract the root file system".  This module
is that utility: a magic-signature scanner over the raw blob, a
Shannon-entropy profile (how real Binwalk spots encrypted or
compressed regions), :func:`extract_tree` — the recursive
(:mod:`repro.firmware.unpack`) carve → identify → unpack → recurse
through nested containers, compression wrappers, and filesystems
until every embedded binary is surfaced — and
:func:`pick_target_binary`, which chooses the ELF to analyse.

The signature table is derived from the UnpackParser registry, so a
newly registered format is scannable here without touching this file.
"""

import math
from dataclasses import dataclass

from repro.errors import FirmwareError
from repro.firmware import unpack as unpack_mod
from repro.firmware.unpack import ELF_MAGIC


@dataclass
class Signature:
    offset: int
    kind: str
    description: str


def signatures():
    """``(kind, magic)`` pairs from the UnpackParser registry."""
    return tuple(
        (parser.name, magic)
        for magic, parser in unpack_mod.signature_table()
    )


def scan(data):
    """Find all known magic signatures in ``data`` (sorted by offset)."""
    hits = []
    for kind, magic in signatures():
        start = 0
        while True:
            index = data.find(magic, start)
            if index < 0:
                break
            hits.append(
                Signature(offset=index, kind=kind,
                          description="%s signature" % kind)
            )
            start = index + 1
    hits.sort(key=lambda s: s.offset)
    return hits


def entropy_profile(data, block_size=1024):
    """Per-block Shannon entropy in bits/byte (0..8).

    High sustained entropy (> ~7.5) marks compressed or encrypted
    regions that defeat signature carving.
    """
    profile = []
    for start in range(0, len(data), block_size):
        block = data[start:start + block_size]
        if not block:
            break
        counts = [0] * 256
        for byte in block:
            counts[byte] += 1
        entropy = 0.0
        size = len(block)
        for count in counts:
            if count:
                p = count / size
                entropy -= p * math.log2(p)
        profile.append(entropy)
    return profile


def extract_tree(data, name="", **budget_kwargs):
    """Recursive pipeline: blob -> full extraction tree.

    Delegates to :func:`repro.firmware.unpack.unpack`: nested
    containers, compression wrappers, obfuscated vendor blobs and
    filesystems are all carved until only leaves remain.  Returns an
    :class:`repro.firmware.unpack.ExtractionTree`.
    """
    return unpack_mod.unpack(data, name=name, **budget_kwargs)


def _elf_candidates(source):
    """Normalise any extraction product into ``[(path, elf_bytes)]``."""
    if hasattr(source, "elves"):            # ExtractionTree
        return [(display, data) for _member, display, data
                in source.elves()]
    if hasattr(source, "files"):            # SimpleFS
        pairs = source.files()
    else:                                   # plain [(path, data)] list
        pairs = list(source)
    return [(path, data) for path, data in pairs
            if data[:4] == ELF_MAGIC]


def pick_target_binary(fs, preferred=("cgibin", "setup.cgi", "httpd",
                                      "mwareserver", "centaurus")):
    """Choose the network-facing ELF the analysis should load.

    Preference order mirrors the paper's six targets; falls back to
    the largest ELF.  ``fs`` may be a SimpleFS, an ExtractionTree, or
    a plain ``[(path, data)]`` list.  A preferred name matches only a
    path's final component — ``/bin/foohttpd`` is not ``httpd``.
    """
    candidates = _elf_candidates(fs)
    if not candidates:
        raise FirmwareError("no ELF executables in the filesystem")
    for name in preferred:
        for path, data in candidates:
            if path.rpartition("/")[2] == name:
                return path, data
    return max(candidates, key=lambda item: len(item[1]))
