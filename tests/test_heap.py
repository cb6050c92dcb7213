"""The analysis heap is acyclic, so pausing the collector is safe.

Analysis entry points run with the cyclic garbage collector paused
(:func:`repro.utils.heap.gc_paused`).  That only holds memory flat if
reference counting alone frees everything a scan allocates.  Each scan
below runs under ``gc.DEBUG_SAVEALL``, which moves every object the
collector would have had to free into ``gc.garbage``: the property is
that nothing lands there.
"""

import collections
import functools
import gc

import pytest

from repro.cfg import CFGBuilder
from repro.core import DTaint, DTaintConfig
from repro.corpus.profiles import (
    PROFILE_ORDER,
    PROFILES,
    analyzed_module_prefixes,
    build_firmware,
)
from repro.faultinject import injected
from repro.firmware import binwalk
from repro.firmware.image import pack_trx
from repro.firmware.simplefs import SimpleFS
from repro.loader.binary import load_elf
from repro.utils.heap import gc_paused

GOLDEN_SCALE = 0.1


@functools.lru_cache(maxsize=None)
def _image(key):
    """The golden profile's ELF, packed in a TRX firmware image."""
    built = build_firmware(key, scale=GOLDEN_SCALE)
    rootfs = SimpleFS()
    rootfs.add_dir("/bin")
    rootfs.add_file("/bin/%s" % PROFILES[key].binary_name, built.elf_bytes)
    return pack_trx(b"KERNEL", rootfs.pack())


def _cold_scan(key, alias_engine="dtaint", faults=()):
    """Unpack, load and analyse one image with no caches."""
    tree = binwalk.extract_tree(_image(key), name=key)
    display, elf = binwalk.pick_target_binary(tree)
    binary = load_elf(elf, name=display)
    config = DTaintConfig(modules=analyzed_module_prefixes(key),
                          alias_engine=alias_engine)
    with injected(faults):
        return DTaint(binary, config=config, name=display).run()


def _cyclic_garbage(scan):
    """Count, by type, the objects only the cyclic collector frees."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        scan()
        gc.collect()
        return collections.Counter(
            type(obj).__qualname__ for obj in gc.garbage
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("alias_engine", ["dtaint", "sse"])
@pytest.mark.parametrize("key", PROFILE_ORDER)
def test_cold_scan_leaves_no_cyclic_garbage(key, alias_engine):
    _image(key)
    findings = []

    def scan():
        findings.append(len(_cold_scan(key, alias_engine).findings))

    garbage = _cyclic_garbage(scan)
    assert findings and findings[0] > 0
    assert not garbage, garbage.most_common(10)


@pytest.mark.parametrize("spec", [
    "decode@cfg:*",
    "symexec@symexec:*",
    "symexec@interproc:*",
    "symexec@detect:*",
])
def test_degraded_scan_leaves_no_cyclic_garbage(spec):
    _image("dir645")
    degraded = []

    def scan():
        report = _cold_scan("dir645", faults=[spec])
        degraded.append(report.degraded_count)

    garbage = _cyclic_garbage(scan)
    assert degraded and degraded[0] > 0
    assert not garbage, garbage.most_common(10)


# -- the pause helper ---------------------------------------------------------


def test_pause_restores_the_collector_after_a_raise():
    @gc_paused
    def phase():
        assert not gc.isenabled()
        raise ValueError("phase failed")

    assert gc.isenabled()
    with pytest.raises(ValueError):
        phase()
    assert gc.isenabled()


def test_pause_leaves_a_disabled_collector_alone():
    seen = []

    @gc_paused
    def phase():
        seen.append(gc.isenabled())
        return "done"

    gc.disable()
    try:
        assert phase() == "done"
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]


def test_analysis_phases_run_paused(monkeypatch):
    seen = []
    build_all = CFGBuilder.build_all

    def recording(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return build_all(self, *args, **kwargs)

    monkeypatch.setattr(CFGBuilder, "build_all", recording)
    assert gc.isenabled()
    _cold_scan("dir645")
    assert seen == [False]
    assert gc.isenabled()
