"""Malformed-input corpus: every broken file fails *typed*, never raw.

The loader and the firmware extractors sit on the trust boundary: the
bytes they parse come off flash images.  A results directory handed
back to ``results migrate`` or ``fleet-scan --baseline`` is another
such input, and fails as :class:`PipelineError`.  A damaged cache
record is read as a miss: quarantined, counted, and never a crash or a
changed finding.  The contract under test is
that any corruption — truncation at every offset, seeded bit flips,
zero-length files, forged header fields — surfaces as the typed
:class:`MalformedInput` hierarchy (``ELFError`` / ``FirmwareError``)
and **never** as ``struct.error``, ``IndexError``, ``MemoryError`` or
a hang.
"""

import os
import random
import shutil
import struct

import pytest

from repro.corpus.profiles import analyzed_module_prefixes, build_firmware
from repro.cli import EXIT_USAGE
from repro.cli import main as cli_main
from repro.errors import ELFError, FirmwareError, MalformedInput, PipelineError
from repro.firmware import binwalk
from repro.firmware.image import (
    pack_trx,
    pack_uimage,
    parse_trx,
    parse_uimage,
)
from repro.firmware.simplefs import SimpleFS
from repro.loader.binary import load_elf
from repro.loader.elf import ElfFile
from repro.pipeline import (
    FleetJob,
    FleetScheduler,
    execute_job,
    findings_fingerprint,
)
from repro.pipeline.cache import read_record, write_record
from repro.service import ResultsDB, migrate_output_dir

# Picks the damaged records and the damage; the CI chaos matrix runs
# this suite under several seeds.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture(scope="module")
def built():
    """A real corpus binary (the seed for every corruption below)."""
    return build_firmware("dgn1000", scale=0.05)


@pytest.fixture(scope="module")
def firmware_blob(built):
    fs = SimpleFS()
    fs.add_file("/bin/httpd", built.elf_bytes)
    fs.add_file("/etc/version", b"v1.0.42\n" * 30)
    return pack_trx(b"KERNELSTUB" * 20, fs.pack())


def _assert_typed(parse, data, expected=MalformedInput):
    """A corrupt input either parses or raises the typed family."""
    try:
        parse(data)
    except expected:
        pass
    # Any other exception type propagates and fails the test.


class TestMalformedELF:
    def test_zero_length(self):
        with pytest.raises(ELFError):
            load_elf(b"")

    def test_not_elf_at_all(self):
        with pytest.raises(ELFError):
            load_elf(b"GIF89a" + b"\x00" * 100)

    def test_truncation_sweep(self, built):
        elf = built.elf_bytes
        # Every truncation length across the file, coarse then fine
        # around the header region where most parsing happens.
        lengths = set(range(0, min(len(elf), 256))) | set(
            range(0, len(elf), max(1, len(elf) // 128))
        )
        for length in sorted(lengths):
            _assert_typed(load_elf, elf[:length], ELFError)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_bit_flips(self, built, seed):
        rng = random.Random(seed)
        elf = bytearray(built.elf_bytes)
        for _ in range(rng.randrange(1, 16)):
            elf[rng.randrange(len(elf))] ^= 1 << rng.randrange(8)
        _assert_typed(load_elf, bytes(elf), ELFError)

    def test_forged_symbol_count_cannot_spin(self, built):
        # Blow sh_size of .symtab up to claim ~268M symbols; the parse
        # must bound itself by the actual bytes, not the forged size.
        elf = built.elf_bytes
        parsed = ElfFile.parse(elf)
        symtab = parsed.sections[".symtab"]
        e_shoff = struct.unpack_from(parsed.endian + "I", elf, 32)[0]
        e_shentsize, e_shnum = struct.unpack_from(
            parsed.endian + "HH", elf, 46
        )
        forged = bytearray(elf)
        for i in range(e_shnum):
            base = e_shoff + i * e_shentsize
            offset, size = struct.unpack_from(
                parsed.endian + "II", forged, base + 16
            )
            if offset == symtab.offset and size == symtab.size:
                struct.pack_into(
                    parsed.endian + "I", forged, base + 20, 0xFFFFFFF0
                )
                break
        else:
            pytest.fail("could not locate .symtab header to forge")
        _assert_typed(load_elf, bytes(forged), ELFError)

    def test_forged_memsz_cannot_allocate(self, built):
        # A PT_LOAD claiming a multi-GB memsz must be rejected before
        # the loader tries to zero-fill it.
        elf = built.elf_bytes
        endian = ElfFile.parse(elf).endian
        e_phoff = struct.unpack_from(endian + "I", elf, 28)[0]
        forged = bytearray(elf)
        struct.pack_into(endian + "I", forged, e_phoff + 20, 0xF0000000)
        with pytest.raises(ELFError):
            load_elf(bytes(forged))


class TestMalformedFirmware:
    def test_zero_length(self):
        with pytest.raises(FirmwareError):
            binwalk.extract_tree(b"")

    def test_truncation_sweep(self, firmware_blob):
        step = max(1, len(firmware_blob) // 200)
        for length in range(0, len(firmware_blob), step):
            _assert_typed(
                binwalk.extract_tree, firmware_blob[:length],
                FirmwareError,
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_bit_flips(self, firmware_blob, seed):
        rng = random.Random(1000 + seed)
        blob = bytearray(firmware_blob)
        for _ in range(rng.randrange(1, 16)):
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        _assert_typed(
            binwalk.extract_tree, bytes(blob), FirmwareError
        )

    def test_trx_header_garbage(self):
        _assert_typed(parse_trx, pack_trx(b"K", b"R")[:10], FirmwareError)
        with pytest.raises(FirmwareError):
            parse_trx(b"HDR0")          # magic with nothing behind it

    def test_uimage_header_garbage(self):
        image = pack_uimage(b"kern", b"root")
        with pytest.raises(FirmwareError):
            parse_uimage(image[:30])
        # Valid header CRC but payload too short for the rootfs-offset
        # word: still a typed failure.
        _assert_typed(parse_uimage, image[:70], FirmwareError)

    def test_simplefs_entry_corruption_is_per_file(self):
        fs = SimpleFS()
        fs.add_file("/bin/good", b"G" * 200)
        fs.add_file("/bin/bad", b"B" * 200)
        packed = bytearray(fs.pack())
        # Corrupt /bin/bad's compressed payload, then re-seal the
        # image checksum so only the entry is broken, not the image.
        import zlib

        header_size = struct.calcsize("<4sIII")
        _magic, count, table_size, _crc = struct.unpack_from(
            "<4sIII", packed, 0
        )
        entry_size = struct.calcsize("<HHIII")
        cursor = 0
        table = packed[header_size:header_size + table_size]
        target_span = None
        for _ in range(count):
            path_len, _mode, offset, stored_len, _raw = struct.unpack_from(
                "<HHIII", table, cursor
            )
            path = bytes(
                table[cursor + entry_size:cursor + entry_size + path_len]
            )
            if path == b"/bin/bad":
                target_span = (offset, stored_len)
            cursor += entry_size + path_len
        assert target_span is not None
        start = header_size + table_size + target_span[0]
        packed[start] ^= 0xFF
        new_crc = zlib.crc32(bytes(packed[header_size:])) & 0xFFFFFFFF
        struct.pack_into("<I", packed, header_size - 4, new_crc)

        unpacked = SimpleFS.unpack(bytes(packed))
        assert "/bin/good" in unpacked
        assert "/bin/bad" not in unpacked
        assert unpacked.skipped[0][0] == "/bin/bad"

    def test_undecodable_path_is_per_file_skip(self):
        fs = SimpleFS()
        fs.add_file("/bin/ok", b"fine")
        packed = bytearray(fs.pack())
        header_size = struct.calcsize("<4sIII")
        entry_size = struct.calcsize("<HHIII")
        # First path byte -> invalid UTF-8 continuation, reseal CRC.
        import zlib

        packed[header_size + entry_size] = 0xFF
        new_crc = zlib.crc32(bytes(packed[header_size:])) & 0xFFFFFFFF
        struct.pack_into("<I", packed, header_size - 4, new_crc)
        unpacked = SimpleFS.unpack(bytes(packed))
        assert len(unpacked) == 0
        assert len(unpacked.skipped) == 1
        assert "undecodable path" in unpacked.skipped[0][1]


class TestBoundedAllocation:
    """Decompression bombs and forged sizes cannot allocate past the
    declared budgets — they lose an entry (typed skip) or the image
    (typed error), never the process."""

    @staticmethod
    def _reseal(packed):
        import zlib

        header_size = struct.calcsize("<4sIII")
        new_crc = zlib.crc32(bytes(packed[header_size:])) & 0xFFFFFFFF
        struct.pack_into("<I", packed, header_size - 4, new_crc)

    def test_oversized_entry_is_skipped_before_inflating(self):
        fs = SimpleFS()
        fs.add_file("/bin/ok", b"fine")
        fs.add_file("/bin/bomb", b"A" * 4096)   # compresses tiny
        packed = fs.pack()
        unpacked = SimpleFS.unpack(packed, max_file_bytes=1024)
        assert "/bin/ok" in unpacked
        assert "/bin/bomb" not in unpacked
        [(label, reason)] = unpacked.skipped
        assert label == "/bin/bomb"
        assert "over the" in reason

    def test_lying_raw_len_cannot_inflate_past_declaration(self):
        """A header understating raw_len must not make the inflater
        produce (and allocate) the real, larger expansion."""
        fs = SimpleFS()
        fs.add_file("/bin/liar", b"B" * 4096)
        packed = bytearray(fs.pack())
        header_size = struct.calcsize("<4sIII")
        # Shrink the declared raw_len (offset 12 into the only entry);
        # keep it != stored_len so the compressed path still runs.
        struct.pack_into("<I", packed, header_size + 12, 512)
        self._reseal(packed)
        unpacked = SimpleFS.unpack(bytes(packed))
        assert "/bin/liar" not in unpacked
        [(label, reason)] = unpacked.skipped
        assert label == "/bin/liar"
        assert "bad decompressed size" in reason

    def test_image_inflation_budget_is_typed(self):
        fs = SimpleFS()
        fs.add_file("/bin/a", b"C" * 4096)
        fs.add_file("/bin/b", b"D" * 4096)
        packed = fs.pack()
        with pytest.raises(FirmwareError) as excinfo:
            SimpleFS.unpack(packed, max_file_bytes=1 << 20,
                            max_image_bytes=6000)
        assert "budget" in str(excinfo.value)

    def test_unpack_round_trip_unaffected_by_budgets(self):
        fs = SimpleFS()
        fs.add_file("/bin/a", b"E" * 4096)
        fs.add_file("/etc/version", b"v1\n")
        unpacked = SimpleFS.unpack(fs.pack())
        assert unpacked.skipped == []
        assert unpacked.read_file("/bin/a") == b"E" * 4096

    def test_total_pt_load_budget_is_typed(self, built, monkeypatch):
        elf = built.elf_bytes
        parsed = ElfFile.parse(elf)
        total = sum(seg.memsz for seg in parsed.segments)
        assert total > 0
        monkeypatch.setattr(ElfFile, "MAX_TOTAL_MEMSZ", total - 1)
        with pytest.raises(ELFError) as excinfo:
            ElfFile.parse(elf)
        assert "mapping budget" in str(excinfo.value)


class TestMalformedRunDir:
    """Broken JSON run directories fail typed, in every reader."""

    CASES = {
        "non_object": ("images/a.json", "[1, 2]"),
        "undecodable": ("images/a.json", '{"job_id": "a", '),
        "job_id_not_string": ("images/a.json", '{"job_id": 7}'),
        "findings_not_object": ("images/a.json",
                                '{"job_id": "a", "findings": [1]}'),
        "section_not_list": (
            "images/a.json",
            '{"job_id": "a", "findings": {"vulnerabilities": 3}}',
        ),
        "finding_not_object": (
            "images/a.json",
            '{"job_id": "a", "findings": {"vulnerable_paths": [1]}}',
        ),
        "sanitized_not_list": (
            "images/a.json",
            '{"job_id": "a", "findings": {"sanitized_paths": "x"}}',
        ),
        "empty": ("telemetry.jsonl", ""),
    }

    @pytest.fixture(params=sorted(CASES))
    def run_dir(self, request, tmp_path):
        relative, text = self.CASES[request.param]
        path = tmp_path / "run" / relative
        path.parent.mkdir(parents=True)
        path.write_text(text)
        return str(tmp_path / "run")

    def test_migrate_raises_pipeline_error(self, run_dir, tmp_path):
        with ResultsDB(str(tmp_path / "dtaint.sqlite")) as db:
            with pytest.raises(PipelineError):
                migrate_output_dir(db, run_dir)
            assert db.run_ids() == []

    def test_fleet_scan_baseline_exits_usage(self, run_dir, tmp_path,
                                             capsys):
        out_dir = str(tmp_path / "out")
        code = cli_main([
            "fleet-scan", "dir645", "--scale", "0.05", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"), "--out", out_dir,
            "--baseline", run_dir,
        ])
        assert code == EXIT_USAGE
        assert "bad --baseline" in capsys.readouterr().err
        # Rejected before scanning: nothing was written.
        assert not os.path.exists(out_dir)


# Record directories in the order a job of each cache mode reads them.
RECORD_KINDS = {
    "per_binary": ("reports", "summaries"),
    "fleet_index": ("reports", "fleet/img", "fleet/flow", "fleet/sum"),
}


def _records(cache_dir, kind):
    root = os.path.join(cache_dir, *kind.split("/"))
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _dirnames, names in os.walk(root)
        for name in names if not name.endswith(".corrupt")
    )


def _damage(path, how, rng):
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if how == "truncate":
        data = data[:rng.randrange(len(data))]
    elif how == "flip":
        for bit in rng.sample(range(8 * len(data)), rng.randint(1, 4)):
            data[bit // 8] ^= 1 << (bit % 8)
    else:
        data = bytearray(len(data))
    with open(path, "wb") as handle:
        handle.write(bytes(data))


class TestCorruptCacheRecords:
    """Every cache record a job reads may be damaged; the job still
    comes back ``ok`` with its cold findings."""

    @pytest.fixture(scope="class")
    def populated(self, built, tmp_path_factory):
        """An ELF job, its no-cache findings, and one populated cache
        per mode."""
        root = tmp_path_factory.mktemp("records")
        path = root / "httpd.elf"
        path.write_bytes(built.elf_bytes)
        job = FleetJob(job_id="httpd", kind="elf", path=str(path),
                       modules=analyzed_module_prefixes("dgn1000"))
        caches = {}
        for mode in RECORD_KINDS:
            caches[mode] = str(root / mode)
            execute_job(job, cache_dir=caches[mode],
                        use_fleet_index=mode == "fleet_index")
        return job, findings_fingerprint(execute_job(job)["report"]), caches

    def _copy(self, populated, mode, tmp_path):
        cache_dir = str(tmp_path / "cache")
        shutil.copytree(populated[2][mode], cache_dir)
        return cache_dir

    @pytest.mark.parametrize("how", ["truncate", "flip", "zero"])
    @pytest.mark.parametrize("mode,kind", [
        (mode, kind) for mode, kinds in RECORD_KINDS.items()
        for kind in kinds
    ])
    def test_damaged_record_is_quarantined(self, populated, tmp_path,
                                           mode, kind, how):
        job, cold_sha, _ = populated
        cache_dir = self._copy(populated, mode, tmp_path)
        kinds = RECORD_KINDS[mode]
        # Drop the records read before this kind, so the job reads it.
        for earlier in kinds[:kinds.index(kind)]:
            shutil.rmtree(os.path.join(cache_dir, *earlier.split("/")))
        rng = random.Random("%d:%s:%s:%s" % (CHAOS_SEED, mode, kind, how))
        victim = rng.choice(_records(cache_dir, kind))
        _damage(victim, how, rng)
        payload = execute_job(job, cache_dir=cache_dir,
                              use_fleet_index=mode == "fleet_index")
        assert payload["status"] == "ok"
        assert findings_fingerprint(payload["report"]) == cold_sha
        assert payload["cache"]["cache_corrupt"] == 1
        assert os.path.exists(victim + ".corrupt")

    @pytest.mark.parametrize("report", [
        [], {"vulnerabilities": 5}, {"degraded_functions": [1]},
    ], ids=["list", "section_not_list", "degraded_not_objects"])
    @pytest.mark.parametrize("mode", sorted(RECORD_KINDS))
    def test_ill_typed_report_record_is_a_miss(self, populated, tmp_path,
                                               mode, report):
        job, cold_sha, _ = populated
        cache_dir = self._copy(populated, mode, tmp_path)
        path, = _records(cache_dir, "reports")
        write_record(path, dict(read_record(path), report=report), "json")
        with FleetScheduler(jobs=1, backoff=0.0, cache_dir=cache_dir,
                            use_fleet_index=mode == "fleet_index") as pool:
            result, = pool.run([job])
        assert result.ok, result.error
        assert findings_fingerprint(result.report) == cold_sha
        assert result.cache["cache_corrupt"] == 1
        assert os.path.exists(path + ".corrupt")
