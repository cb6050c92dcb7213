"""The recursive UnpackParser registry, nested corpus, and wiring.

Covers the extraction framework itself (registry, budgets, new
filesystem parsers), the matryoshka corpus images that exercise every
parser, and the firmware job kind through scheduler, service queue,
and CLI — the paths an embedded binary travels from packed image to
findings.
"""

import json

import pytest

from repro.errors import FirmwareError, PipelineError
from repro.firmware import cramfs, logfs
from repro.firmware.binwalk import extract_tree, pick_target_binary
from repro.firmware.image import pack_trx
from repro.firmware.simplefs import SimpleFS
from repro.firmware.unpack import (
    find_candidates,
    registered_parsers,
    signature_table,
    unpack,
)


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_every_parser_is_registered_once(self):
        parsers = registered_parsers()
        names = [parser.name for parser in parsers]
        assert len(names) == len(set(names))
        for expected in ("trx", "uimage", "vendor-blob", "parts", "gzip",
                         "lzma", "simplefs", "logfs", "cramfs", "elf"):
            assert expected in names

    def test_signature_table_prefers_longer_magics(self):
        lengths = [len(magic) for magic, _parser in signature_table()]
        assert lengths == sorted(lengths, reverse=True)

    def test_find_candidates_orders_by_offset(self):
        blob = b"\x00" * 7 + b"\x1f\x8b\x08" + b"\x00" * 9 + b"HDR0"
        hits = find_candidates(blob, anywhere=True)
        offsets = [offset for offset, _parser in hits]
        assert offsets == sorted(offsets)
        assert 7 in offsets and 19 in offsets

    def test_find_candidates_offset_zero_only_for_file_content(self):
        blob = b"see " + b"HDR0" + b" inside"
        assert find_candidates(blob, anywhere=False) == []
        assert find_candidates(b"HDR0" + b"\x00" * 16, anywhere=False)


# ---------------------------------------------------------------------------
# New filesystem containers


class TestLogFS:
    def test_replay_keeps_last_version(self):
        blob = logfs.pack([
            ("/etc/passwd", b"v1"),
            ("/bin/tool", b"T" * 100),
            ("/etc/passwd", b"v2 final"),
        ])
        files, skipped, span = logfs.unpack(blob)
        assert files["/etc/passwd"] == b"v2 final"
        assert files["/bin/tool"] == b"T" * 100
        assert not skipped
        assert span == len(blob)

    def test_deletion_marker_removes_file(self):
        blob = logfs.pack([
            ("/tmp/ghost", b"short lived"),
            ("/tmp/ghost", b"", True),
        ])
        files, _skipped, _span = logfs.unpack(blob)
        assert "/tmp/ghost" not in files

    def test_corrupt_node_skips_only_that_node(self):
        blob = bytearray(logfs.pack([
            ("/a", b"alpha"),
            ("/b", b"bravo"),
        ]))
        second = bytes(blob).index(logfs.MAGIC, 4)
        payload_at = second + logfs._NODE_SIZE + 4 + len("/b")
        blob[payload_at] ^= 0xFF
        files, skipped, _span = logfs.unpack(bytes(blob))
        assert files["/a"] == b"alpha"
        assert "/b" not in files
        assert any("CRC" in reason or "crc" in reason
                   for _label, reason in skipped)

    def test_span_stops_at_foreign_bytes(self):
        blob = logfs.pack([("/x", b"data")])
        _files, _skipped, span = logfs.unpack(blob + b"NEXTCONTAINER")
        assert span == len(blob)


class TestCramFS:
    def test_roundtrip(self):
        payload = {"/bin/busybox": b"\x7fELF" + bytes(range(256)) * 20,
                   "/etc/empty": b""}
        files, skipped, span = cramfs.unpack(cramfs.pack(payload))
        assert files == payload
        assert not skipped
        assert span == len(cramfs.pack(payload))

    def test_oversized_file_degrades_to_skip(self):
        blob = cramfs.pack({"/big": b"B" * 4096, "/small": b"ok"})
        files, skipped, _span = cramfs.unpack(blob, max_file_bytes=64)
        assert files == {"/small": b"ok"}
        assert skipped and skipped[0][0] == "/big"

    def test_image_corruption_raises(self):
        blob = bytearray(cramfs.pack({"/f": b"payload"}))
        blob[-1] ^= 0xFF
        with pytest.raises(FirmwareError):
            cramfs.unpack(bytes(blob))


# ---------------------------------------------------------------------------
# Matryoshka corpus through the recursive extractor


class TestMatryoshka:
    def test_extraction_enumerates_every_nested_elf(self):
        from repro.corpus.matryoshka import build_matryoshka

        image = build_matryoshka(seed=1, name="nest")
        tree = extract_tree(image.blob, name="nest")
        displays = [display for _member, display, _data in tree.elves()]
        assert sorted(displays) == sorted(image.expected_elves)
        assert tree.max_depth >= 3
        assert image.depth >= 3

    def test_every_registered_container_parser_is_exercised(self):
        from repro.corpus.matryoshka import build_matryoshka

        tree = extract_tree(build_matryoshka(seed=1).blob, name="all")
        used = {node.parser for _path, node in tree.walk()}
        for parser in ("parts", "vendor-blob", "trx", "lzma", "gzip",
                       "uimage", "simplefs", "cramfs", "logfs", "elf"):
            assert parser in used, "parser %s unused by corpus" % parser

    def test_manifest_is_deterministic(self):
        from repro.corpus.matryoshka import build_matryoshka

        blob_a = build_matryoshka(seed=2, name="det").blob
        blob_b = build_matryoshka(seed=2, name="det").blob
        assert blob_a == blob_b
        manifest_a = extract_tree(blob_a, name="det").manifest()
        manifest_b = extract_tree(blob_b, name="det").manifest()
        assert json.dumps(manifest_a, sort_keys=True) == \
            json.dumps(manifest_b, sort_keys=True)

    def test_fleet_images_have_distinct_targets(self):
        from repro.corpus.matryoshka import generate_matryoshka_fleet

        fleet = generate_matryoshka_fleet(count=3, seed=7)
        assert len(fleet) == 3
        assert len({image.target for image in fleet}) == 3
        assert len({image.blob for image in fleet}) == 3

    def test_pick_target_binary_on_extraction_tree(self):
        from repro.corpus.matryoshka import build_matryoshka

        image = build_matryoshka(seed=1, name="nest", target_name="httpd")
        tree = extract_tree(image.blob, name="nest")
        display, data = pick_target_binary(tree)
        assert display == "/bin/httpd"
        assert data[:4] == b"\x7fELF"


# ---------------------------------------------------------------------------
# Scheduler / service wiring


def _flat_image_with_elf(tmp_path):
    """A flat TRX image plus the identical bare ELF, both on disk."""
    from repro.corpus.matryoshka import tiny_elf

    elf_bytes = tiny_elf(0x1234)
    fs = SimpleFS()
    fs.add_file("/bin/httpd", elf_bytes)
    fs.add_file("/etc/version", b"1.0\n")
    image_path = tmp_path / "fw.trx"
    image_path.write_bytes(pack_trx(b"KERNELKERNEL", fs.pack()))
    elf_path = tmp_path / "httpd.elf"
    elf_path.write_bytes(elf_bytes)
    return str(image_path), str(elf_path)


class TestFirmwareJobs:
    def test_firmware_job_matches_flat_elf_scan(self, tmp_path):
        from repro.pipeline.scheduler import FleetJob, execute_job

        image_path, elf_path = _flat_image_with_elf(tmp_path)
        fw = execute_job(FleetJob("fw", kind="firmware", path=image_path))
        flat = execute_job(FleetJob("flat", kind="elf", path=elf_path))
        assert fw["status"] == flat["status"] == "ok"
        # The member's sha is the *extracted ELF's* sha: carved and
        # flat scans of the same binary share one cache identity.
        assert fw["sha256"] == flat["sha256"]
        for section in ("vulnerabilities", "vulnerable_paths"):
            assert fw["report"][section] == flat["report"][section]

    def test_extract_member_selects_named_member(self, tmp_path):
        from repro.pipeline.scheduler import extract_member

        image_path, _elf_path = _flat_image_with_elf(tmp_path)
        with open(image_path, "rb") as handle:
            data = handle.read()
        tree = extract_tree(data, name="fw.trx")
        member_id, display, elf = next(iter(tree.elves()))
        got_display, got_data = extract_member(data, member_id,
                                               name="fw.trx")
        assert (got_display, got_data) == (display, elf)
        # The display path is accepted as an alias for the member id.
        alias_display, alias_data = extract_member(data, display,
                                                   name="fw.trx")
        assert (alias_display, alias_data) == (display, elf)

    def test_extract_member_unknown_raises_with_choices(self, tmp_path):
        from repro.pipeline.scheduler import extract_member

        image_path, _elf_path = _flat_image_with_elf(tmp_path)
        with open(image_path, "rb") as handle:
            data = handle.read()
        with pytest.raises(PipelineError) as excinfo:
            extract_member(data, "/bin/nonesuch", name="fw.trx")
        assert "/bin/httpd" in str(excinfo.value)

    def test_expand_firmware_jobs_fans_out_per_elf(self, tmp_path):
        from repro.corpus.matryoshka import build_matryoshka
        from repro.pipeline.scheduler import expand_firmware_jobs

        image = build_matryoshka(seed=5, name="fleet0")
        path = tmp_path / "fleet0.bin"
        path.write_bytes(image.blob)
        jobs = expand_firmware_jobs("img0", str(path))
        assert len(jobs) == len(image.expected_elves)
        assert all(job.kind == "firmware" for job in jobs)
        assert len({job.member for job in jobs}) == len(jobs)
        assert [job.job_id for job in jobs] == \
            ["img0.%d" % i for i in range(len(jobs))]

    def test_expand_firmware_jobs_without_elves_raises(self, tmp_path):
        from repro.pipeline.scheduler import expand_firmware_jobs

        fs = SimpleFS()
        fs.add_file("/etc/version", b"nothing here\n")
        path = tmp_path / "empty.trx"
        path.write_bytes(pack_trx(b"KERNEL", fs.pack()))
        with pytest.raises(PipelineError):
            expand_firmware_jobs("img0", str(path))


class TestResultsStorePaths:
    def test_job_id_with_separators_stays_inside_images_dir(self, tmp_path):
        # Firmware job ids can derive from image paths; an absolute
        # component must not escape the output directory via
        # os.path.join's prefix-discarding behaviour.
        from repro.pipeline.results import image_document, write_run_dir
        from repro.pipeline.scheduler import FleetJob, JobResult

        result = JobResult(
            job=FleetJob("/tmp/evil.bin.0", kind="firmware",
                         path="/tmp/evil.bin", member="x"),
            status="ok", report={"vulnerabilities": []}, sha256="0" * 64,
        )
        written, = write_run_dir(str(tmp_path / "out"),
                                 images=[image_document(result)])
        images_dir = str(tmp_path / "out" / "images")
        assert written.startswith(images_dir)
        assert "/" not in written[len(images_dir) + 1:]


class TestServiceSpecs:
    def test_job_spec_accepts_firmware_member(self, tmp_path):
        from repro.service.queue import dedup_key, job_spec

        image_path, _elf_path = _flat_image_with_elf(tmp_path)
        spec_a = job_spec(kind="firmware", path=image_path,
                          member="fw.trx/rootfs//bin/httpd")
        spec_b = job_spec(kind="firmware", path=image_path,
                          member="fw.trx/rootfs//bin/other")
        assert spec_a["member"] == "fw.trx/rootfs//bin/httpd"
        # Different members of one image are different jobs; the same
        # spec twice deduplicates.
        assert dedup_key(spec_a) != dedup_key(spec_b)
        assert dedup_key(spec_a) == dedup_key(dict(spec_a))

    def test_job_spec_rejects_member_outside_firmware_kind(self, tmp_path):
        from repro.service.queue import job_spec

        _image_path, elf_path = _flat_image_with_elf(tmp_path)
        with pytest.raises(PipelineError):
            job_spec(kind="elf", path=elf_path, member="/bin/httpd")

    def test_fleet_job_from_spec_carries_member(self, tmp_path):
        from repro.service.daemon import fleet_job_from_spec
        from repro.service.queue import job_spec

        image_path, _elf_path = _flat_image_with_elf(tmp_path)
        spec = job_spec(kind="firmware", path=image_path,
                        member="fw.trx/rootfs//bin/httpd")
        job = fleet_job_from_spec(spec, 42)
        assert job.kind == "firmware"
        assert job.member == "fw.trx/rootfs//bin/httpd"
        assert "!fw.trx/rootfs//bin/httpd" in job.describe_target()


class TestIncrementOnImages:
    def test_delta_of_image_against_itself_is_empty(self, tmp_path):
        from repro.increment.delta import compute_delta, scan_image

        image_path, _elf_path = _flat_image_with_elf(tmp_path)
        scanned = scan_image(image_path)
        assert scanned["name"].endswith("!/bin/httpd")
        delta = compute_delta(scanned, scanned)
        assert delta["counts"]["new"] == delta["counts"]["fixed"] == 0
        assert not delta["changed_closure"]


# ---------------------------------------------------------------------------
# CLI


class TestUnpackCLI:
    def test_unpack_json_is_deterministic(self, tmp_path, capsys):
        from repro.cli import main
        from repro.corpus.matryoshka import build_matryoshka

        path = tmp_path / "nest.bin"
        path.write_bytes(build_matryoshka(seed=6, name="nest").blob)
        assert main(["unpack", str(path), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["unpack", str(path), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        manifest = json.loads(first)
        assert manifest["node_count"] > 1
        assert manifest["elves"]

    def test_unpack_out_writes_manifest_and_members(self, tmp_path, capsys):
        from repro.cli import main
        from repro.corpus.matryoshka import build_matryoshka

        image = build_matryoshka(seed=6, name="nest")
        path = tmp_path / "nest.bin"
        path.write_bytes(image.blob)
        out_dir = tmp_path / "out"
        assert main(["unpack", str(path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "manifest.json").exists()
        extracted = sorted(p.name for p in out_dir.iterdir()
                           if p.name != "manifest.json")
        assert len(extracted) == len(image.expected_elves)

    def test_unpack_malformed_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        assert main(["unpack", str(path)]) == 3
        assert "error" in capsys.readouterr().err.lower() or True
