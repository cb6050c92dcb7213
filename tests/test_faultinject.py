"""Chaos suite: deterministic fault injection through the full pipeline.

The acceptance property is **fault isolation**: every injected fault
degrades exactly its target function (or file) with the right typed
reason, while every finding outside the failure domain stays
byte-identical to a clean run.  The test binary has three independent
vulnerable handlers (no cross-calls), so the failure domain of a fault
in ``h2`` is exactly ``{h2}``.

``CHAOS_SEED`` (environment) drives the seeded sweep the CI chaos job
runs: the seed picks the victim function via
:func:`repro.faultinject.pick_target`, so every seed is a different,
reproducible chaos scenario.
"""

import json
import os
import time

import pytest

from repro.core import DTaint, DTaintConfig
from repro.errors import (
    AnalysisFault,
    CFGError,
    DeadlineExceeded,
    DecodeFault,
    LiftFault,
    MalformedInput,
    SymExecError,
    SymexecFault,
)
from repro.faultinject import (
    FaultInjector,
    FaultSpec,
    injected,
    pick_target,
)
from repro.loader.binary import load_elf
from repro.loader.link import build_executable
from repro.symexec.engine import SymbolicEngine

_HANDLER = (
    ".globl %(name)s\n%(name)s:\n    push {lr}\n    ldr r0, =%(lit)s\n"
    "    bl getenv\n    bl system\n    pop {pc}\n.ltorg\n"
)

HANDLERS = ("h1", "h2", "h3")


def _handlers_elf():
    """Three independent getenv->system handlers; no cross-calls."""
    asm = "".join(
        _HANDLER % {"name": name, "lit": "n_%s" % name} for name in HANDLERS
    )
    asm += ".rodata\n" + "".join(
        "n_%s: .asciz \"%s\"\n" % (name, name.upper()) for name in HANDLERS
    )
    elf_bytes, _ = build_executable(
        "arm", asm, imports=["getenv", "system"]
    )
    return elf_bytes


def _scan(elf_bytes, specs=(), **config_kwargs):
    binary = load_elf(elf_bytes)
    config = DTaintConfig(**config_kwargs)
    detector = DTaint(binary, config=config, name="chaos")
    if specs:
        with injected(specs):
            return detector.run()
    return detector.run()


def _findings_blob(report, exclude=()):
    """Canonical, byte-comparable serialisation of the findings."""
    from dataclasses import asdict

    rows = sorted(
        (asdict(f) for f in report.findings if f.function not in exclude),
        key=lambda f: (f["function"], f["sink_addr"], f["source_addr"]),
    )
    return json.dumps(rows, sort_keys=True).encode("utf-8")


class TestSpecs:
    def test_parse_roundtrip(self):
        spec = FaultSpec.parse("decode@cfg:handle_request")
        assert (spec.fault, spec.site, spec.target) == (
            "decode", "cfg", "handle_request"
        )
        assert spec.describe() == "decode@cfg:handle_request"
        assert FaultSpec.parse("malformed@loader").target == "*"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("no-at-sign")
        with pytest.raises(ValueError):
            FaultSpec.parse("@cfg:x")
        with pytest.raises(ValueError):
            FaultSpec(fault="nonsense", site="cfg")

    def test_fault_types_stay_catchable_as_legacy_bases(self):
        # Degradation paths rely on existing except clauses still
        # seeing the new typed faults.
        assert issubclass(DecodeFault, CFGError)
        assert issubclass(LiftFault, CFGError)
        assert issubclass(SymexecFault, SymExecError)
        assert issubclass(DecodeFault, AnalysisFault)
        assert issubclass(DeadlineExceeded, AnalysisFault)

    def test_pick_target_deterministic(self):
        names = ["zeta", "alpha", "mid"]
        assert pick_target(names, 0) == "alpha"
        assert pick_target(names, 1) == "mid"
        assert pick_target(names, 5) == "zeta"
        assert pick_target(names, 3) == pick_target(names, 0)
        with pytest.raises(ValueError):
            pick_target([], 0)


class TestInjector:
    def test_fires_at_most_shots_times(self):
        injector = FaultInjector(["symexec@symexec:f"], shots=1)
        with pytest.raises(SymexecFault):
            injector.check("symexec", "f")
        injector.check("symexec", "f")     # spent: no raise
        assert injector.fired_specs() == ["symexec@symexec:f"]
        assert injector.fired[0].target == "f"

    def test_exact_target_does_not_hit_others(self):
        injector = FaultInjector(["decode@cfg:f1"])
        injector.check("cfg", "f2")
        injector.check("cfg.lift", "f1")
        assert injector.fired == []

    def test_wildcard_hits_first_eligible(self):
        injector = FaultInjector(["decode@cfg:*"])
        with pytest.raises(DecodeFault):
            injector.check("cfg", "whoever")
        assert injector.fired[0].target == "whoever"

    def test_uninstalled_probe_is_noop(self):
        from repro import faultinject

        assert faultinject.active() is None
        faultinject.check("cfg", "f")      # must not raise


FAULT_MATRIX = [
    ("decode@cfg:%s", "DecodeFault", "cfg"),
    ("lift@cfg.lift:%s", "LiftFault", "cfg"),
    ("symexec@symexec:%s", "SymexecFault", "symexec"),
    ("symexec@interproc:%s", "SymexecFault", "interproc"),
    ("symexec@detect:%s", "SymexecFault", "detect"),
]


class TestIsolation:
    """Every fault degrades exactly one function; the rest is clean."""

    @pytest.fixture(scope="class")
    def elf(self):
        return _handlers_elf()

    @pytest.fixture(scope="class")
    def clean(self, elf):
        return _scan(elf)

    def test_clean_run_finds_all_three(self, clean):
        assert sorted(f.function for f in clean.vulnerable_paths) == list(
            HANDLERS
        )
        assert clean.degraded_count == 0
        coverage = clean.coverage
        assert coverage["analyzed"] == coverage["selected"] == 3

    @pytest.mark.parametrize("template,error_type,phase", FAULT_MATRIX)
    def test_single_fault_degrades_only_its_target(
        self, elf, clean, template, error_type, phase
    ):
        target = pick_target(
            HANDLERS, int(os.environ.get("CHAOS_SEED", "0"))
        )
        report = _scan(elf, specs=[template % target])
        assert [d.function for d in report.degraded_functions] == [target]
        degraded = report.degraded_functions[0]
        assert degraded.error_type == error_type
        assert degraded.phase == phase
        assert "injected" in degraded.reason
        # Findings outside the failure domain are byte-identical.
        assert _findings_blob(report) == _findings_blob(
            clean, exclude={target}
        )
        coverage = report.coverage
        assert coverage["degraded"] == 1
        assert coverage["analyzed"] == len(HANDLERS) - 1
        assert coverage["selected"] == len(HANDLERS)

    def test_report_dict_carries_degradation(self, elf):
        report = _scan(elf, specs=["decode@cfg:h2"])
        document = report.to_dict()
        assert document["coverage"]["degraded"] == 1
        assert document["degraded_functions"][0]["function"] == "h2"
        rendered = report.render()
        assert "1 degraded" in rendered
        assert "[degraded] h2@" in rendered

    def test_two_faults_two_domains(self, elf, clean):
        report = _scan(elf, specs=["decode@cfg:h1", "symexec@symexec:h3"])
        assert sorted(d.function for d in report.degraded_functions) == [
            "h1", "h3"
        ]
        assert _findings_blob(report) == _findings_blob(
            clean, exclude={"h1", "h3"}
        )

    def test_deadline_injection_truncates_without_degrading(
        self, elf, clean
    ):
        report = _scan(elf, specs=["deadline@symexec.deadline:h2"])
        assert report.degraded_count == 0
        assert report.truncated_summaries >= 1
        assert report.deadline_truncated >= 1
        # h1/h3 are untouched by h2's truncation.
        assert _findings_blob(report, exclude={"h2"}) == _findings_blob(
            clean, exclude={"h2"}
        )


class TestMalformedInjection:
    def test_loader_fault_is_typed(self):
        elf = _handlers_elf()
        with injected(["malformed@loader:img"]):
            with pytest.raises(MalformedInput):
                load_elf(elf, name="img")

    def test_firmware_file_fault_skips_one_file(self):
        from repro.firmware import binwalk
        from repro.firmware.image import pack_trx
        from repro.firmware.simplefs import SimpleFS

        fs = SimpleFS()
        fs.add_file("/bin/a", b"A" * 100)
        fs.add_file("/bin/b", b"B" * 100)
        blob = pack_trx(b"KERNEL", fs.pack())
        with injected(["malformed@firmware.file:/bin/a"]):
            tree = binwalk.extract_tree(blob)
        rootfs = tree.root.children[-1]
        assert [child.label for child in rootfs.children] == ["/bin/b"]
        assert rootfs.notes[0].startswith("skipped /bin/a")

    def test_firmware_unpack_fault_is_typed(self):
        from repro.firmware import binwalk
        from repro.firmware.image import pack_trx
        from repro.firmware.simplefs import SimpleFS

        fs = SimpleFS()
        fs.add_file("/bin/a", b"A")
        blob = pack_trx(b"K", fs.pack())
        with injected(["malformed@firmware.unpack:fw"]):
            with pytest.raises(MalformedInput):
                binwalk.extract_tree(blob, name="fw")


class TestDeadline:
    """The soft deadline caps runaway symbolic exploration."""

    def _pathological_elf(self, stages=18):
        # `stages` chained conditional branches give 2^stages paths:
        # enough to out-run any small deadline at a huge max_paths.
        lines = [".globl patho", "patho:", "    push {lr}"]
        for i in range(stages):
            lines.append("    cmp r0, #%d" % (i + 1))
            lines.append("    bne L%d" % i)
            lines.append("    add r1, r1, #%d" % (i + 1))
            lines.append("L%d:" % i)
        lines.append("    pop {pc}")
        elf_bytes, _ = build_executable("arm", "\n".join(lines) + "\n")
        return elf_bytes

    def test_pathological_function_obeys_deadline(self):
        deadline = 0.2
        binary = load_elf(self._pathological_elf())
        engine = SymbolicEngine(
            binary, max_paths=1_000_000, max_blocks_per_path=512,
            deadline_seconds=deadline,
        )
        detector = DTaint(binary, name="patho")
        function = detector.build_cfg()["patho"]
        start = time.monotonic()
        summary = engine.analyze_function(function)
        elapsed = time.monotonic() - start
        assert summary.truncated
        assert summary.deadline_hit
        # The acceptance bound: within 2x the configured deadline.
        assert elapsed < 2 * deadline, (
            "deadline overshoot: %.3fs > %.3fs" % (elapsed, 2 * deadline)
        )

    def test_no_deadline_by_default(self):
        elf = _handlers_elf()
        report = _scan(elf)
        assert report.deadline_truncated == 0

    def test_config_deadline_flows_to_report(self):
        binary = load_elf(self._pathological_elf())
        config = DTaintConfig(max_paths=1_000_000, deadline_seconds=0.05)
        report = DTaint(binary, config=config, name="patho").run()
        assert report.deadline_truncated == 1
        assert report.degraded_count == 0   # truncation is not failure


class TestFleetInjection:
    """Injection specs ride FleetJob.faults into worker processes."""

    def _write_elf(self, tmp_path):
        path = tmp_path / "handlers.elf"
        path.write_bytes(_handlers_elf())
        return str(path)

    def test_execute_job_fires_and_degrades(self, tmp_path):
        from repro.pipeline import FleetJob, execute_job

        job = FleetJob(
            job_id="chaos", kind="elf", path=self._write_elf(tmp_path),
            faults=("decode@cfg:h2",),
        )
        payload = execute_job(job)
        assert payload["fired_faults"] == ["decode@cfg:h2"]
        assert payload["report"]["coverage"]["degraded"] == 1
        assert payload["report"]["degraded_functions"][0]["function"] == "h2"
        from repro import faultinject

        assert faultinject.active() is None   # uninstalled afterwards

    def test_faulted_jobs_bypass_caches(self, tmp_path):
        from repro.pipeline import FleetJob, execute_job

        elf_path = self._write_elf(tmp_path)
        cache_dir = str(tmp_path / "cache")
        clean = FleetJob(job_id="clean", kind="elf", path=elf_path)
        execute_job(clean, cache_dir=cache_dir)
        faulted = FleetJob(
            job_id="faulted", kind="elf", path=elf_path,
            faults=("decode@cfg:h2",),
        )
        payload = execute_job(faulted, cache_dir=cache_dir)
        # Neither served from the report cache nor poisoning it.
        assert not payload["cache"]["report_cache_hit"]
        assert payload["report"]["coverage"]["degraded"] == 1
        again = execute_job(clean, cache_dir=cache_dir)
        assert again["cache"]["report_cache_hit"]
        assert again["report"]["coverage"]["degraded"] == 0

    def test_scheduler_run_reports_degraded_telemetry(self, tmp_path):
        from repro.pipeline import (
            FleetJob,
            FleetScheduler,
            Telemetry,
            read_events,
        )

        elf_path = self._write_elf(tmp_path)
        telemetry_path = str(tmp_path / "telemetry.jsonl")
        with Telemetry(path=telemetry_path) as telemetry:
            scheduler = FleetScheduler(
                jobs=1, telemetry=telemetry, backoff=0.0
            )
            results = scheduler.run([
                FleetJob(job_id="a", kind="elf", path=elf_path,
                         faults=("symexec@symexec:h1",)),
                FleetJob(job_id="b", kind="elf", path=elf_path),
            ])
        assert all(r.ok for r in results)
        assert results[0].fired_faults == ["symexec@symexec:h1"]
        assert results[0].report["coverage"]["degraded"] == 1
        assert results[1].report["coverage"]["degraded"] == 0
        events = read_events(telemetry_path)
        degraded_events = [
            e for e in events if e["event"] == "job_degraded"
        ]
        assert [e["job"] for e in degraded_events] == ["a"]
        assert degraded_events[0]["degraded_functions"] == ["h1"]
        finish = [e for e in events if e["event"] == "run_finish"]
        assert finish[0]["degraded"] == 1
