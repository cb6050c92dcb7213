"""Firmware containers, SimpleFS, binwalk scanning, and extraction."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FirmwareError
from repro.firmware import binwalk
from repro.firmware.image import (
    TRX_HEADER_SIZE,
    TRX_MAGIC,
    UIMAGE_HEADER_SIZE,
    pack_parts,
    pack_trx,
    pack_uimage,
    pack_vendor_blob,
    parse_parts,
    parse_trx,
    parse_uimage,
    parse_vendor_blob,
)
from repro.firmware.simplefs import SimpleFS


def _sample_fs():
    fs = SimpleFS()
    fs.add_dir("/bin")
    fs.add_file("/bin/cgibin", b"\x7fELF" + b"\x01" * 200)
    fs.add_file("/etc/passwd", b"root::0:0:root:/root:/bin/sh\n")
    fs.add_file("/www/index.html", b"<html>" + b"A" * 500 + b"</html>")
    return fs


def _files(tree):
    """``{path: bytes}`` of the filesystem files an extraction surfaced."""
    return {node.label: node.data for node in tree.nodes()
            if node.label.startswith("/") and node.data is not None}


class TestSimpleFS:
    def test_pack_unpack_roundtrip(self):
        fs = _sample_fs()
        packed = fs.pack()
        back = SimpleFS.unpack(packed)
        assert back.paths() == fs.paths()
        assert back.read_file("/etc/passwd") == fs.read_file("/etc/passwd")
        assert back.read_file("/bin/cgibin")[:4] == b"\x7fELF"

    def test_compression_applied_to_large_files(self):
        fs = SimpleFS()
        fs.add_file("/big", b"A" * 10000)
        assert len(fs.pack()) < 2000

    def test_rejects_bad_magic(self):
        with pytest.raises(FirmwareError):
            SimpleFS.unpack(b"XXXX" + b"\x00" * 100)

    def test_rejects_corrupted_payload(self):
        packed = bytearray(_sample_fs().pack())
        packed[-10] ^= 0xFF
        with pytest.raises(FirmwareError):
            SimpleFS.unpack(bytes(packed))

    def test_relative_path_rejected(self):
        fs = SimpleFS()
        with pytest.raises(FirmwareError):
            fs.add_file("relative/path", b"x")

    def test_read_missing_file(self):
        with pytest.raises(FirmwareError):
            _sample_fs().read_file("/nope")

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.text(
                alphabet="abcdefgh/", min_size=1, max_size=12
            ).map(lambda s: "/" + s.strip("/")).filter(lambda s: len(s) > 1),
            st.binary(min_size=0, max_size=300),
            min_size=1,
            max_size=8,
        )
    )
    def test_roundtrip_property(self, files):
        fs = SimpleFS()
        for path, data in files.items():
            fs.add_file(path, data)
        back = SimpleFS.unpack(fs.pack())
        for path, data in files.items():
            assert back.read_file(path) == data


class TestContainers:
    def test_trx_roundtrip(self):
        image = pack_trx(b"KERNEL" * 100, b"ROOTFS" * 100)
        parsed = parse_trx(image)
        assert parsed.kernel == b"KERNEL" * 100
        assert parsed.rootfs == b"ROOTFS" * 100

    def test_trx_crc_detects_corruption(self):
        image = bytearray(pack_trx(b"K" * 50, b"R" * 50))
        image[40] ^= 0x01
        with pytest.raises(FirmwareError):
            parse_trx(bytes(image))

    def test_uimage_roundtrip(self):
        image = pack_uimage(b"kernel" * 64, b"rootfs" * 64, name="DIR-645")
        parsed = parse_uimage(image)
        assert parsed.kernel == b"kernel" * 64
        assert parsed.rootfs == b"rootfs" * 64
        assert parsed.name == "DIR-645"
        assert parsed.load_addr == 0x80000000

    def test_uimage_data_crc(self):
        image = bytearray(pack_uimage(b"kern", b"root"))
        image[-1] ^= 0xFF
        with pytest.raises(FirmwareError):
            parse_uimage(bytes(image))


class TestBinwalk:
    def test_scan_finds_signatures(self):
        fs = _sample_fs()
        blob = b"\xde\xad" * 20 + pack_trx(b"KERN", fs.pack())
        kinds = {s.kind for s in binwalk.scan(blob)}
        assert "trx" in kinds
        assert "simplefs" in kinds
        # The ELF inside the fs is zlib-compressed, so its magic is
        # not visible to a raw scan — the extractor must unpack first.
        raw = b"junk" + b"\x7fELF\x01\x01\x01" + b"tail"
        assert "elf" in {s.kind for s in binwalk.scan(raw)}

    def test_extract_trx_filesystem(self):
        fs = _sample_fs()
        blob = pack_trx(b"KERNEL", fs.pack())
        tree = binwalk.extract_tree(blob)
        assert tree.root.parser == "trx"
        assert _files(tree)["/etc/passwd"].startswith(b"root:")

    def test_extract_uimage_filesystem(self):
        fs = _sample_fs()
        blob = pack_uimage(b"KERNEL", fs.pack())
        tree = binwalk.extract_tree(blob)
        assert tree.root.parser == "uimage"
        assert "/bin/cgibin" in _files(tree)

    def test_vendor_blob_extracts_via_key_recovery(self):
        # The XOR key is recovered from the wrapper's own header and
        # the payload deobfuscated in place of failing the extraction.
        blob = pack_vendor_blob(b"KERNEL", _sample_fs().pack(),
                                xor_key=0x77)
        tree = binwalk.extract_tree(blob)
        assert tree.root.parser == "vendor-blob"
        assert [child.parser for child in tree.root.children] == ["trx"]
        assert "/bin/cgibin" in _files(tree)
        inner, span, key = parse_vendor_blob(blob)
        assert span == len(blob)
        assert key == 0x77
        assert inner[:4] == TRX_MAGIC

    def test_carve_tries_candidates_past_decoy_vendor_blob(self):
        # Regression: the carver used to raise on the first
        # vendor-blob hit, masking a perfectly valid TRX later in the
        # blob.  The decoy's payload decodes (key 0x00) to no known
        # container, so the carver must fall through, not abort.
        decoy = b"VNDR" + struct.pack("<BxxxI", 0x00, 8) + b"\x00" * 8
        blob = decoy + pack_trx(b"KERNEL", _sample_fs().pack())
        tree = binwalk.extract_tree(blob)
        assert tree.root.parser == "trx"
        assert tree.root.offset == len(decoy)
        assert tree.root.notes[0].startswith("vendor-blob@0x0")
        assert "/bin/cgibin" in _files(tree)

    def test_carve_fails_only_when_no_candidate_parses(self):
        decoy = b"VNDR" + struct.pack("<BxxxI", 0x00, 8) + b"\x00" * 8
        with pytest.raises(FirmwareError) as excinfo:
            binwalk.extract_tree(decoy + b"\xfe" * 32)
        # The error names what was tried, not just "vendor wrapper".
        assert "vendor-blob@0x0" in str(excinfo.value)

    def test_entropy_distinguishes_random_from_text(self):
        import random

        text = (b"configuration value = 1\n" * 200)
        noise = random.Random(7).randbytes(4096)
        low = binwalk.entropy_profile(text)
        high = binwalk.entropy_profile(noise)
        assert max(low) < 6.0
        assert min(high) > 7.5

    def test_pick_target_binary_prefers_known_names(self):
        fs = SimpleFS()
        fs.add_file("/bin/busybox", b"\x7fELF" + b"\x00" * 5000)
        fs.add_file("/usr/sbin/httpd", b"\x7fELF" + b"\x00" * 100)
        path, data = binwalk.pick_target_binary(fs)
        assert path == "/usr/sbin/httpd"

    def test_pick_target_binary_falls_back_to_largest(self):
        fs = SimpleFS()
        fs.add_file("/bin/a", b"\x7fELF" + b"\x00" * 100)
        fs.add_file("/bin/b", b"\x7fELF" + b"\x00" * 5000)
        path, _ = binwalk.pick_target_binary(fs)
        assert path == "/bin/b"

    def test_pick_target_binary_matches_basename_only(self):
        # Regression: the bare endswith() match let /bin/foohttpd
        # shadow the real httpd — a preferred name must only match a
        # path's final component.
        fs = SimpleFS()
        fs.add_file("/bin/foohttpd", b"\x7fELF" + b"\x00" * 5000)
        fs.add_file("/usr/sbin/httpd", b"\x7fELF" + b"\x00" * 100)
        path, _ = binwalk.pick_target_binary(fs)
        assert path == "/usr/sbin/httpd"

    def test_no_elf_raises(self):
        fs = SimpleFS()
        fs.add_file("/etc/motd", b"hello")
        with pytest.raises(FirmwareError):
            binwalk.pick_target_binary(fs)


def _craft_trx(kernel_off, rootfs_off, loader_off=0, body_pad=64):
    """A TRX whose CRC is valid but whose offsets are attacker-chosen."""
    body = struct.pack("<IIII", 1, loader_off, kernel_off, rootfs_off)
    body += bytes(range(body_pad % 251)) * (body_pad // max(body_pad % 251, 1) + 1)
    body = body[:16 + body_pad]
    total = 12 + len(body)
    return TRX_MAGIC + struct.pack(
        "<II", total, zlib.crc32(body) & 0xFFFFFFFF
    ) + body


def _craft_uimage_rootfs_off(rootfs_off):
    """A uImage with valid CRCs whose payload declares ``rootfs_off``."""
    image = bytearray(pack_uimage(b"kernkern", b"rootroot"))
    struct.pack_into(">I", image, UIMAGE_HEADER_SIZE, rootfs_off)
    payload = bytes(image[UIMAGE_HEADER_SIZE:])
    struct.pack_into(">I", image, 24, zlib.crc32(payload) & 0xFFFFFFFF)
    header = bytearray(image[:UIMAGE_HEADER_SIZE])
    header[4:8] = b"\x00" * 4
    struct.pack_into(">I", image, 4, zlib.crc32(bytes(header)) & 0xFFFFFFFF)
    return bytes(image)


def _craft_parts(entries):
    """A PTBL with valid CRC and attacker-chosen entry offsets."""
    count = len(entries)
    table_size = 12 + 16 * count
    table = b"".join(
        struct.pack("<8sII", name.encode("utf-8")[:8].ljust(8, b"\x00"),
                    off, size)
        for name, off, size in entries
    )
    end = max([table_size] + [off + size for _n, off, size in entries])
    blob = bytearray(end)
    blob[12:12 + len(table)] = table
    for index in range(table_size, end):
        blob[index] = index & 0xFF
    body = bytes(blob[12:end])
    blob[0:12] = struct.pack("<4sII", b"PTBL", count,
                             zlib.crc32(body) & 0xFFFFFFFF)
    return bytes(blob)


class TestAdversarialContainers:
    """Crafted containers must raise FirmwareError, never produce
    silently-empty or aliased slices (the §IV trust boundary)."""

    def test_trx_valid_craft_parses(self):
        # The crafting helper itself must produce parseable images,
        # or the negative tests below prove nothing.
        image = parse_trx(_craft_trx(kernel_off=32, rootfs_off=48))
        assert len(image.kernel) == 16

    def test_trx_inverted_partition_offsets_raise(self):
        # Regression: kernel_off > rootfs_off used to slice an empty
        # kernel and garbage rootfs without complaint.
        with pytest.raises(FirmwareError) as excinfo:
            parse_trx(_craft_trx(kernel_off=60, rootfs_off=32))
        assert "out of order" in str(excinfo.value)

    def test_trx_rootfs_offset_past_total_raises(self):
        with pytest.raises(FirmwareError):
            parse_trx(_craft_trx(kernel_off=32, rootfs_off=4096))

    def test_trx_kernel_offset_inside_header_raises(self):
        with pytest.raises(FirmwareError):
            parse_trx(_craft_trx(kernel_off=4, rootfs_off=48))

    def test_trx_loader_offset_outside_window_raises(self):
        with pytest.raises(FirmwareError):
            parse_trx(_craft_trx(kernel_off=32, rootfs_off=48,
                                 loader_off=4))

    def test_uimage_valid_craft_parses(self):
        parsed = parse_uimage(_craft_uimage_rootfs_off(8))
        assert len(parsed.kernel) == 4

    def test_uimage_rootfs_offset_past_payload_raises(self):
        # Regression: the offset is read from attacker-controlled
        # payload byte 0 and used to slice without validation.
        with pytest.raises(FirmwareError) as excinfo:
            parse_uimage(_craft_uimage_rootfs_off(0xFFFF))
        assert "rootfs offset" in str(excinfo.value)

    def test_uimage_rootfs_offset_inside_length_field_raises(self):
        with pytest.raises(FirmwareError):
            parse_uimage(_craft_uimage_rootfs_off(2))

    def test_parts_valid_craft_parses(self):
        parts, span = parse_parts(_craft_parts(
            [("boot", 44, 16), ("app", 60, 16)]
        ))
        assert [name for name, _data in parts] == ["boot", "app"]
        assert span == 76

    def test_parts_overlapping_partitions_raise(self):
        with pytest.raises(FirmwareError) as excinfo:
            parse_parts(_craft_parts([("boot", 44, 20), ("app", 50, 16)]))
        assert "overlapping" in str(excinfo.value)

    def test_parts_out_of_order_offsets_raise(self):
        with pytest.raises(FirmwareError):
            parse_parts(_craft_parts([("boot", 64, 16), ("app", 44, 16)]))

    def test_parts_entry_inside_table_raises(self):
        with pytest.raises(FirmwareError):
            parse_parts(_craft_parts([("boot", 8, 30)]))

    def test_magic_inside_file_content_stays_content(self):
        # A container magic in the *middle* of a filesystem file is
        # data, not a nested image: file regions only match offset 0.
        from repro.firmware.unpack import unpack

        fs = SimpleFS()
        fs.add_file("/etc/notes", b"see also " + TRX_MAGIC + b" format")
        fs.add_file("/bin/cgibin", b"\x7fELF\x01" + b"\x00" * 64)
        tree = unpack(pack_trx(b"KERNEL", fs.pack()), name="decoy")
        nodes = dict(tree.walk())
        note_node = next(n for p, n in nodes.items()
                         if n.label == "/etc/notes")
        assert note_node.parser == "data"
        assert not note_node.children

    def test_truncation_falls_through_to_intact_candidate(self):
        # Cutting the tail kills the partition table at offset 0 but
        # leaves the vendor-blob partition intact; the carve driver
        # must fall through to it instead of dying on the first hit.
        from repro.corpus.matryoshka import build_matryoshka
        from repro.firmware.unpack import unpack

        blob = build_matryoshka(seed=3, name="trunc").blob
        tree = unpack(blob[:int(len(blob) * 0.8)], name="trunc")
        assert tree.root.parser == "vendor-blob"
        assert any("parts@0x0" in note for note in tree.root.notes)
        assert [e for e in tree.elves()]

    def test_truncated_nested_payload_raises_typed(self):
        # Cut deep enough that no candidate survives: every failed
        # parse is enumerated in one typed error.
        from repro.corpus.matryoshka import build_matryoshka
        from repro.firmware.unpack import unpack

        blob = build_matryoshka(seed=3, name="trunc").blob
        with pytest.raises(FirmwareError) as excinfo:
            unpack(blob[:len(blob) // 2], name="trunc")
        message = str(excinfo.value)
        assert "no parseable container" in message
        assert "parts@0x0" in message
        assert "vendor-blob@0x6c" in message

    def test_depth_bomb_trips_budget(self):
        from repro.firmware.image import pack_gzip
        from repro.firmware.unpack import unpack

        data = b"\x7fELF\x01" + b"\x00" * 32
        for _ in range(12):
            data = pack_gzip(data)
        with pytest.raises(FirmwareError) as excinfo:
            unpack(data, name="bomb")
        assert "deeper" in str(excinfo.value)

    def test_inflate_bomb_trips_budget(self):
        from repro.firmware.image import pack_gzip
        from repro.firmware.unpack import unpack

        bomb = pack_gzip(b"\x00" * (8 << 20))
        with pytest.raises(FirmwareError):
            unpack(bomb, name="bomb", max_total_bytes=1 << 20)

    def test_fanout_bomb_trips_budget(self):
        from repro.corpus.matryoshka import build_matryoshka
        from repro.firmware.unpack import unpack

        blob = build_matryoshka(seed=4, name="fanout").blob
        with pytest.raises(FirmwareError) as excinfo:
            unpack(blob, name="fanout", max_nodes=5)
        assert "fan-out" in str(excinfo.value)


class TestFleetEmulation:
    def test_fleet_size_and_determinism(self):
        from repro.corpus.fleet import generate_fleet

        fleet_a = generate_fleet(size=500, seed=7)
        fleet_b = generate_fleet(size=500, seed=7)
        assert len(fleet_a) == 500
        assert [i.image_id for i in fleet_a] == [i.image_id for i in fleet_b]

    def test_boot_failure_reasons_match_paper(self):
        from repro.corpus.fleet import generate_fleet
        from repro.firmware.emulation import (
            EmulationHarness,
            failure_breakdown,
        )

        results = EmulationHarness().run_fleet(generate_fleet(size=2000))
        breakdown = failure_breakdown(results)
        # The paper's two headline causes must dominate: proprietary
        # hardware access and network init, plus unpack failures.
        assert breakdown.get("device-probe", 0) > 0
        assert breakdown.get("network", 0) > 0
        assert breakdown.get("unpack", 0) > 0

    def test_emulation_rate_is_low(self):
        from repro.corpus.fleet import generate_fleet
        from repro.firmware.emulation import EmulationHarness

        results = EmulationHarness().run_fleet(generate_fleet())
        rate = sum(r.success for r in results) / len(results)
        assert rate < 0.2, "most firmware must fail to emulate (paper: ~90%)"

    def test_histogram_covers_2009_to_2016(self):
        from repro.corpus.fleet import generate_fleet
        from repro.firmware.emulation import (
            EmulationHarness,
            figure1_histogram,
        )

        results = EmulationHarness().run_fleet(generate_fleet(size=3000))
        rows = figure1_histogram(results)
        years = [row["year"] for row in rows]
        assert years == list(range(2009, 2017))
        for row in rows:
            assert row["emulated"] <= row["total"]
