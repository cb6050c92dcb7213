"""Evaluation helpers, report rendering, and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.core import libc
from repro.core.report import Finding, Report
from repro.core.sinks import parse_format
from repro.eval.resources import measure
from repro.eval.runner import EvalContext, get_scale
from repro.eval.tables import format_table, table1_sources_sinks


class TestTable1:
    def test_matches_paper_listing(self):
        data = table1_sources_sinks()
        assert set(data["sensitive_sinks"]) == {
            "strcpy", "strncpy", "sprintf", "memcpy", "strcat", "sscanf",
            "system", "popen", "loop",
        }
        assert set(data["input_sources"]) == {
            "read", "recv", "recvfrom", "recvmsg", "getenv", "fgets",
            "websGetVar", "find_var",
        }


class TestLibcModels:
    def test_every_source_taints_something(self):
        for name, model in libc.SOURCES.items():
            assert model.taints_args or model.taints_ret, name

    def test_every_sink_has_kind_and_indices(self):
        for name, model in libc.SINKS.items():
            kind, indices = model.sink
            assert kind in (libc.BO, libc.CMDI)
            assert indices, name

    def test_model_lookup(self):
        assert libc.model_for("strcpy").name == "strcpy"
        assert libc.model_for("nonexistent_fn") is None
        assert libc.is_source("recv")
        assert libc.is_sink("system")
        assert not libc.is_sink("strlen")


class TestFormatHelpers:
    def test_parse_format(self):
        assert parse_format("%s %d %x") == ["s", "d", "x"]
        assert parse_format("%254s") == ["s"]
        assert parse_format("100%% done: %s") == ["s"]
        assert parse_format("no specifiers") == []

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5


class TestReport:
    def _finding(self, sink_addr=0x100, source_addr=0x50, sanitized=False):
        return Finding(
            kind="buffer-overflow", function="f", sink_name="memcpy",
            sink_addr=sink_addr, source_name="recv", source_addr=source_addr,
            sanitized=sanitized,
        )

    def test_vulnerabilities_dedup_by_sink(self):
        report = Report(binary_name="x")
        report.findings = [
            self._finding(source_addr=0x50),
            self._finding(source_addr=0x60),
            self._finding(sink_addr=0x200),
        ]
        assert len(report.vulnerable_paths) == 3
        assert len(report.vulnerabilities) == 2

    def test_summary_row_shape(self):
        report = Report(binary_name="x", analyzed_functions=5)
        row = report.summary_row()
        assert row["firmware"] == "x"
        assert row["vulnerable_paths"] == 0


class TestResources:
    def test_measure_reports_positive_numbers(self):
        with measure(trace_python_heap=True) as usage:
            _ = [i * i for i in range(200000)]
        assert usage.wall_seconds > 0
        assert usage.cpu_seconds > 0
        assert usage.peak_traced_mb > 0
        assert usage.max_rss_mb > 0

    def test_measure_skips_heap_tracing_by_default(self):
        import tracemalloc

        with measure() as usage:
            assert not tracemalloc.is_tracing()
            _ = [i * i for i in range(200000)]
        assert usage.wall_seconds > 0
        assert usage.peak_traced_mb == 0.0
        assert usage.max_rss_mb > 0


class TestRunner:
    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert get_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "garbage")
        assert get_scale() == 0.25
        monkeypatch.setenv("REPRO_SCALE", "99")
        assert get_scale() == 1.0

    def test_context_caches_builds(self):
        context = EvalContext(scale=0.05)
        first = context.built("dir645")
        second = context.built("dir645")
        assert first is second


class TestCLI:
    def test_corpus_command(self, capsys):
        rc = cli_main(["corpus", "dir645", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DTaint report" in out
        assert "vulnerabilities" in out

    def test_corpus_unknown_key(self, capsys):
        assert cli_main(["corpus", "nope"]) == 2

    def test_fleet_command(self, capsys):
        rc = cli_main(["fleet", "--size", "800"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_scan_command(self, tmp_path, capsys):
        from repro.loader.link import build_executable

        elf_bytes, _ = build_executable(
            "arm",
            ".globl main\nmain:\n    push {lr}\n    ldr r0, =n\n"
            "    bl getenv\n    bl system\n    pop {pc}\n.ltorg\n"
            ".rodata\nn: .asciz \"X\"\n",
            imports=["getenv", "system"],
        )
        target = tmp_path / "handler.elf"
        target.write_bytes(elf_bytes)
        rc = cli_main(["scan", str(target)])
        assert rc == 0
        assert "command-injection" in capsys.readouterr().out

    def test_firmware_command(self, tmp_path, capsys):
        from repro.firmware.image import pack_trx
        from repro.firmware.simplefs import SimpleFS
        from repro.loader.link import build_executable

        elf_bytes, _ = build_executable(
            "arm",
            ".globl main\nmain:\n    mov r0, #0\n    bx lr\n",
        )
        fs = SimpleFS()
        fs.add_file("/bin/httpd", elf_bytes)
        blob = tmp_path / "fw.bin"
        blob.write_bytes(pack_trx(b"KERNEL", fs.pack()))
        rc = cli_main(["firmware", str(blob)])
        assert rc == 0
        assert "httpd" in capsys.readouterr().out


class TestExitCodes:
    """Distinct exit codes per failure kind (scan / firmware / fleet-scan)."""

    def _vuln_elf(self, tmp_path):
        from repro.loader.link import build_executable

        elf_bytes, _ = build_executable(
            "arm",
            ".globl main\nmain:\n    push {lr}\n    ldr r0, =n\n"
            "    bl getenv\n    bl system\n    pop {pc}\n.ltorg\n"
            ".rodata\nn: .asciz \"X\"\n",
            imports=["getenv", "system"],
        )
        target = tmp_path / "handler.elf"
        target.write_bytes(elf_bytes)
        return str(target)

    def test_scan_findings_exit_code(self, tmp_path, capsys):
        target = self._vuln_elf(tmp_path)
        assert cli_main(["scan", target]) == 0
        assert cli_main(["scan", target, "--fail-on-findings"]) == 1

    def test_scan_malformed_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "not-an.elf"
        bad.write_bytes(b"\x7fELF" + b"\xff" * 16)
        assert cli_main(["scan", str(bad)]) == 3
        assert "analysis failed" in capsys.readouterr().err

    def test_scan_strict_degradation_exits_4(self, tmp_path, capsys):
        target = self._vuln_elf(tmp_path)
        rc = cli_main([
            "scan", target, "--inject", "decode@cfg:main", "--strict",
        ])
        assert rc == 4
        captured = capsys.readouterr()
        assert "degradation policy violated" in captured.err
        assert "[degraded] main@" in captured.out

    def test_scan_max_degraded_tolerates(self, tmp_path, capsys):
        target = self._vuln_elf(tmp_path)
        rc = cli_main([
            "scan", target, "--inject", "decode@cfg:main",
            "--max-degraded", "1",
        ])
        assert rc == 0

    def test_scan_deadline_flag(self, tmp_path, capsys):
        target = self._vuln_elf(tmp_path)
        assert cli_main(["scan", target, "--deadline", "30"]) == 0

    def test_firmware_malformed_exits_3(self, tmp_path, capsys):
        blob = tmp_path / "fw.bin"
        blob.write_bytes(b"\x00" * 64)
        assert cli_main(["firmware", str(blob)]) == 3

    def test_fleet_scan_bad_inject_spec_exits_2(self, tmp_path, capsys):
        rc = cli_main([
            "fleet-scan", "dir645", "--scale", "0.05", "--no-cache",
            "--inject", "not-a-spec",
        ])
        assert rc == 2

    def test_fleet_scan_quarantine_exits_3(self, capsys):
        rc = cli_main([
            "fleet-scan", "dir645", "--scale", "0.05", "--jobs", "1",
            "--retries", "0", "--no-cache", "--inject-crash", "dir645",
        ])
        assert rc == 3

    def test_fleet_scan_strict_degradation_exits_4(self, capsys):
        rc = cli_main([
            "fleet-scan", "dir645", "--scale", "0.05", "--jobs", "1",
            "--no-cache", "--inject", "symexec@symexec:*", "--strict",
        ])
        assert rc == 4
        assert "degradation policy violated" in capsys.readouterr().err
