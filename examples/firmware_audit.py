#!/usr/bin/env python
"""End-to-end firmware audit: image blob -> findings (paper §IV).

The full pipeline on a D-Link-style image: a TRX container wrapping a
SimpleFS root filesystem with the ``cgibin`` target is built, then
treated as an opaque blob: signature-scanned, recursively extracted
into a tree, the network-facing ELF picked, and DTaint run over it — the
exact sequence the paper describes around its Binwalk-based extractor.

Run:  python examples/firmware_audit.py
"""

from repro.core import DTaint, DTaintConfig
from repro.corpus.profiles import analyzed_module_prefixes, build_firmware
from repro.firmware.binwalk import (
    entropy_profile,
    extract_tree,
    pick_target_binary,
    scan,
)
from repro.firmware.image import pack_trx
from repro.firmware.simplefs import SimpleFS
from repro.loader.binary import load_elf


def build_firmware_blob():
    """Pack a DIR-645-style firmware image around the cgibin target."""
    built = build_firmware("dir645", scale=0.15)
    fs = SimpleFS()
    fs.add_dir("/bin")
    fs.add_dir("/etc")
    fs.add_dir("/htdocs")
    fs.add_file("/htdocs/cgibin", built.elf_bytes)
    fs.add_file("/etc/versions", b"DIR-645 1.03\n")
    fs.add_file("/htdocs/index.html", b"<html>router admin</html>")
    kernel_stub = b"\x00" * 256 + b"Linux version 2.6.33 (dlink)" + b"\x00" * 256
    return pack_trx(kernel_stub, fs.pack()), built


def main():
    blob, built = build_firmware_blob()
    print("firmware blob: %d bytes" % len(blob))

    print("\nsignature scan:")
    for hit in scan(blob)[:6]:
        print("  0x%08x  %s" % (hit.offset, hit.description))

    profile = entropy_profile(blob)
    print("entropy: min %.2f, max %.2f bits/byte over %d blocks"
          % (min(profile), max(profile), len(profile)))

    tree = extract_tree(blob, name="dir645.trx")
    print("\nextraction tree:")
    print(tree.render())

    path, data = pick_target_binary(tree)
    print("\ntarget binary: %s (%d bytes)" % (path, len(data)))

    binary = load_elf(data)
    config = DTaintConfig(modules=analyzed_module_prefixes("dir645"))
    report = DTaint(binary, config=config, name=path).run()
    print()
    print(report.render())

    expected = len(built.expected_vulnerabilities())
    print("\nground truth: %d vulnerable patterns planted, "
          "%d distinct vulnerabilities reported"
          % (expected, len(report.vulnerabilities)))


if __name__ == "__main__":
    main()
