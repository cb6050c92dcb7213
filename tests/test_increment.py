"""The incremental fleet-analysis subsystem (`repro.increment`).

Acceptance properties:

* function fingerprints are position-independent: rebuilding an image
  with one patched handler leaves every untouched function's local and
  closure fingerprints equal even where its address shifted;
* a relocated cached summary is field-for-field equal to a freshly
  computed one, and stray (split-immediate / ro-fold) addresses are
  re-verified by content before reuse;
* re-scanning an unchanged image through the fleet index alone runs
  **zero** symbolic executions; a one-handler mutation re-runs exactly
  the changed Merkle closure;
* a byte-identical rescan is served by the exact-bytes image key
  without CFG recovery, with the cold findings and fingerprints, at any
  shard count; a damaged exact record falls back to the closure key;
* delta reports classify the injected patch as `fixed` with nothing
  spurious, and a self-delta is empty and byte-identical;
* an incremental rescan of a seeded version pair reports the findings
  and fingerprints of a no-cache cold scan of the new release,
  unsharded or sharded, with the dataflow records intact, deleted or
  corrupted; a degraded closure member voids its callers' records;
* `cache gc` prunes quarantine/tmp/stale-version files; JSON run
  directory writes are atomic under injected mid-write faults.
"""

import json
import os
import pickle
import random
import shutil
from dataclasses import dataclass, replace

import pytest

from repro import profiling
from repro.core import DTaint, DTaintConfig
from repro.corpus.fleet import build_version_pair
from repro.corpus.profiles import (
    PROFILES,
    analyzed_module_prefixes,
    build_firmware,
)
from repro.errors import MalformedInput
from repro.faultinject import injected
from repro.increment import (
    FleetIndex,
    classify_functions,
    compute_delta,
    delta_fingerprint,
    fingerprint_functions,
    relocate_summary,
    stray_addresses,
    strays_compatible,
)
from repro.increment.reuse import open_incremental_cache
from repro.loader.binary import load_elf
from repro.loader.link import build_executable
from repro.pipeline import (
    FleetJob,
    FleetScheduler,
    binary_sha256,
    canonical_report,
    collect_garbage,
    execute_job,
    findings_fingerprint,
)
from repro.pipeline import shards as shards_mod
from repro.pipeline.cache import (
    CACHE_FORMAT_VERSION,
    encode_record,
    read_record,
    summary_fingerprint,
)
from repro.pipeline.results import (
    image_document,
    read_run_dir,
    rollup_document,
    write_run_dir,
)
from repro.pipeline.telemetry import Telemetry
from repro.symexec.value import pretty

SCALE = 0.05
KEY = "dir645"


@pytest.fixture(scope="module")
def version_pair():
    return build_version_pair(KEY, scale=SCALE)


@pytest.fixture(scope="module")
def config():
    return DTaintConfig(modules=analyzed_module_prefixes(KEY))


def _fingerprint(built, config):
    detector = DTaint(built.binary, config=config, name=built.name)
    detector.analyze_functions()
    fps = fingerprint_functions(
        built.binary, detector.functions, detector.call_graph
    )
    return detector, fps


def _elf_job(directory, built, job_id="elf", shards=0):
    """An ``elf`` job over ``built``'s bytes, written under ``directory``."""
    path = directory / ("%s.elf" % job_id)
    path.write_bytes(built.elf_bytes)
    return FleetJob(job_id=job_id, kind="elf", path=str(path),
                    modules=analyzed_module_prefixes(KEY), shards=shards)


def _symexec_job(job, cache_dir):
    """(payload, symbolic executions) of one fleet-index run of ``job``."""
    before = profiling.PROFILER.snapshot()
    payload = execute_job(job, cache_dir=cache_dir, use_fleet_index=True)
    counters = profiling.delta(before, profiling.PROFILER.snapshot())
    return payload, counters["counters"].get("symexec_functions", 0)


def _exact_records(cache_dir):
    """Paths of the exact-bytes report records under ``cache_dir``."""
    root = os.path.join(cache_dir, "reports")
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _dirnames, names in os.walk(root)
        for name in names if name.endswith(".json")
    )


def _refuse_cfg(monkeypatch):
    """Make any CFG recovery in this process fail the test."""
    def refuse(self):
        raise AssertionError("CFG recovered for a byte-identical image")

    monkeypatch.setattr(DTaint, "build_cfg", refuse)


def _image_doc(built, report):
    """One scanned image as ``compute_delta`` reads it."""
    _, fps = _fingerprint(
        built, DTaintConfig(modules=analyzed_module_prefixes(KEY))
    )
    return {
        "name": built.name,
        "sha256": binary_sha256(built.elf_bytes),
        "findings": canonical_report(report.to_dict()),
        "fingerprints": {
            n: {"local": f.local, "closure": f.closure}
            for n, f in fps.items()
        },
    }


def _stale(data):
    """Record bytes ``data`` relabelled with an older record version."""
    header, newline, body = data.partition(b"\n")
    fields = header.split(b" ")
    fields[1] = b"0.0"
    return b" ".join(fields) + newline + body


def _scan_image(built, cache_dir, config):
    cache = open_incremental_cache(cache_dir, config)
    report = DTaint(
        built.binary, config=config, name=built.name, summary_cache=cache
    ).run()
    cache.flush()
    return report, cache


def _flow_records(cache_dir):
    """Paths of the dataflow records under ``cache_dir``, relative."""
    root = os.path.join(cache_dir, "fleet", "flow")
    return sorted(
        os.path.relpath(os.path.join(dirpath, name), cache_dir)
        for dirpath, _dirnames, names in os.walk(root)
        for name in names if name.endswith(".pkl")
    )


# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_position_independent_across_version_pair(
        self, version_pair, config
    ):
        old_built, new_built, flipped = version_pair
        _, old_fps = _fingerprint(old_built, config)
        _, new_fps = _fingerprint(new_built, config)
        assert old_fps[flipped].local != new_fps[flipped].local
        shifted = [
            name for name in old_fps
            if name != flipped and old_fps[name].addr != new_fps[name].addr
        ]
        assert shifted, "patch did not shift any function address"
        for name in shifted:
            assert old_fps[name].local == new_fps[name].local
            assert old_fps[name].closure == new_fps[name].closure

    def test_deterministic(self, version_pair, config):
        old_built, _, _ = version_pair
        _, first = _fingerprint(old_built, config)
        _, second = _fingerprint(old_built, config)
        assert first == second

    def test_closure_tracks_callees(self):
        def build(ret):
            asm = (
                ".globl caller\ncaller:\n    push {lr}\n    bl callee\n"
                "    pop {pc}\n"
                ".globl callee\ncallee:\n    mov r0, #%d\n    bx lr\n" % ret
            )
            elf, _ = build_executable("arm", asm, imports=[])
            return load_elf(elf)

        def fps(binary):
            detector = DTaint(binary, name="t")
            detector.analyze_functions()
            return fingerprint_functions(
                binary, detector.functions, detector.call_graph
            )

        one, two = fps(build(1)), fps(build(2))
        assert one["callee"].local != two["callee"].local
        assert one["caller"].local == two["caller"].local
        # The caller's own body is unchanged but its callee closure
        # moved underneath it — the summary-reuse invalidation signal.
        assert one["caller"].closure != two["caller"].closure


class TestRelocation:
    def test_relocated_equals_fresh(self, version_pair, config):
        old_built, new_built, flipped = version_pair
        old_det, old_fps = _fingerprint(old_built, config)
        new_det, new_fps = _fingerprint(new_built, config)
        moved = [
            name for name in old_det.summaries
            if name != flipped
            and name in new_fps
            and old_fps[name].addr != new_fps[name].addr
        ]
        assert moved
        for name in moved:
            stored = old_det.summaries[name]
            strays = stray_addresses(stored, old_built.binary,
                                     old_fps[name].literals)
            assert strays_compatible(new_built.binary, strays)
            relocated = relocate_summary(
                stored, name, new_fps[name].addr,
                old_fps[name].literals, new_fps[name].literals,
            )
            fresh = new_det.summaries[name]
            assert relocated is not None
            assert relocated.addr == fresh.addr
            assert relocated.def_pairs == fresh.def_pairs
            assert relocated.constraints == fresh.constraints
            assert relocated.ret_values == fresh.ret_values
            assert [c.addr for c in relocated.callsites] == [
                c.addr for c in fresh.callsites
            ]
            assert [c.args for c in relocated.callsites] == [
                c.args for c in fresh.callsites
            ]

    def test_stray_content_mismatch_refused(self, version_pair, config):
        old_built, _, _ = version_pair
        det, fps = _fingerprint(old_built, config)
        with_strays = [
            (name, stray_addresses(det.summaries[name], old_built.binary,
                                   fps[name].literals))
            for name in det.summaries
        ]
        name, strays = next(
            (n, s) for n, s in with_strays if s
        )
        assert strays_compatible(old_built.binary, strays)
        tampered = tuple((value, "deadbeef") for value, _tag in strays)
        assert not strays_compatible(old_built.binary, tampered)
        unmapped = tuple((0x7FFF0000, tag) for _v, tag in strays)
        assert not strays_compatible(old_built.binary, unmapped)


class TestFleetIndex:
    def test_round_trip(self, tmp_path, version_pair, config):
        old_built, _, _ = version_pair
        det, fps = _fingerprint(old_built, config)
        name = sorted(det.summaries)[0]
        fp = fps[name]
        strays = stray_addresses(det.summaries[name], old_built.binary,
                                 fp.literals)
        writer = FleetIndex(str(tmp_path), summary_fingerprint(config))
        writer.put_summary(fp.closure, det.summaries[name], fp.literals,
                           strays=strays)
        assert writer.stored == 1
        writer.flush()
        reader = FleetIndex(str(tmp_path), summary_fingerprint(config))
        hit = reader.get_summary(fp.closure)
        assert hit is not None
        summary, literals, read_strays = hit
        assert summary.name == name
        assert literals == fp.literals
        assert read_strays == strays
        assert reader.get_summary("0" * 32) is None
        assert reader.stats["fleet_hits"] == 1
        assert reader.stats["fleet_misses"] == 1

    def test_stale_version_quarantined(self, tmp_path):
        index = FleetIndex(str(tmp_path), "cfg")
        path = index._summary_path("ab" * 16)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(_stale(encode_record({"blob": b""}, "pickle")))
        assert index.get_summary("ab" * 16) is None
        assert index.corrupt == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")


class TestIncrementalScan:
    def test_zero_symexec_on_fleet_only_rescan(
        self, tmp_path, version_pair, config
    ):
        old_built, _, _ = version_pair
        report, cold = _scan_image(old_built, str(tmp_path), config)
        assert cold.stats["fleet_stored"] > 0
        # No per-binary bundle: the fleet layer carries the warm
        # re-scan alone, via relocation at offset zero.
        assert not os.path.exists(os.path.join(str(tmp_path), "summaries"))
        before = profiling.PROFILER.snapshot()
        warm_report, warm = _scan_image(old_built, str(tmp_path), config)
        counters = profiling.delta(
            before, profiling.PROFILER.snapshot()
        )["counters"]
        assert counters.get("symexec_functions", 0) == 0
        assert counters.get("fingerprinted_functions", 0) > 0
        assert warm.stats["summary_misses"] == 0
        assert warm.stats["reuse_ratio"] == 1.0
        assert findings_fingerprint(warm_report.to_dict()) == \
            findings_fingerprint(report.to_dict())

    def test_mutation_reanalyzes_only_changed_closure(
        self, tmp_path, version_pair, config
    ):
        old_built, new_built, flipped = version_pair
        old_report, _ = _scan_image(old_built, str(tmp_path), config)
        before = profiling.PROFILER.snapshot()
        report, cache = _scan_image(new_built, str(tmp_path), config)
        counters = profiling.delta(
            before, profiling.PROFILER.snapshot()
        )["counters"]
        old_doc = _image_doc(old_built, old_report)
        new_doc = _image_doc(new_built, report)
        changed = classify_functions(old_doc["fingerprints"],
                                     new_doc["fingerprints"])
        closure_size = len(
            changed["body_changed"] + changed["callee_changed"]
            + changed["added"]
        )
        assert flipped in changed["body_changed"]
        assert counters.get("symexec_functions", 0) == closure_size
        assert cache.stats["summary_misses"] == closure_size
        assert cache.stats["reuse_ratio"] >= 0.8
        # The delta classifies the patch as exactly one fix, in the
        # flipped handler, its only changed body.
        delta = compute_delta(old_doc, new_doc)
        assert delta["counts"]["new"] == 0
        assert delta["counts"]["fixed"] == 1
        assert delta["findings"]["fixed"][0]["function"] == flipped
        assert delta["functions"]["body_changed"] == [flipped]
        assert delta["function_counts"]["added"] == 0
        assert delta["function_counts"]["removed"] == 0
        # Differential soundness: the incremental scan must equal a
        # cold scan of the mutated image.
        cold_report, _ = _scan_image(
            new_built, str(tmp_path / "cold"), config
        )
        assert findings_fingerprint(report.to_dict()) == \
            findings_fingerprint(cold_report.to_dict())

    def test_execute_job_image_findings_reuse(self, tmp_path):
        job = FleetJob(job_id=KEY, kind="profile", key=KEY, scale=SCALE)
        cold = execute_job(job, cache_dir=str(tmp_path),
                           use_fleet_index=True)
        assert cold["fingerprints"]
        assert not cold["cache"].get("image_findings_hit")
        # Each artefact has one store: no per-binary bundle, and the
        # exact-bytes record lives in reports/.
        assert not os.path.exists(str(tmp_path / "summaries"))
        assert not os.path.exists(str(tmp_path / "fleet" / "img" / "sha"))
        assert len(_exact_records(str(tmp_path))) == 1
        warm = execute_job(job, cache_dir=str(tmp_path),
                           use_fleet_index=True)
        assert warm["cache"]["image_findings_hit"]
        assert warm["fingerprints"] == cold["fingerprints"]
        assert findings_fingerprint(warm["report"]) == \
            findings_fingerprint(cold["report"])

    def test_one_job_rollup_reuse_ratio_equals_the_job(self, tmp_path,
                                                        version_pair):
        from repro.pipeline.scheduler import JobResult

        old_built, new_built, _ = version_pair
        cache_dir = str(tmp_path / "cache")
        execute_job(_elf_job(tmp_path, old_built, job_id="old"),
                    cache_dir=cache_dir, use_fleet_index=True)
        job = _elf_job(tmp_path, new_built, job_id="new")
        payload = execute_job(job, cache_dir=cache_dir,
                              use_fleet_index=True)
        ratio = payload["cache"]["reuse_ratio"]
        assert 0.0 < ratio < 1.0
        result = JobResult(job=job, status="ok", attempts=1,
                           report=payload["report"], cache=payload["cache"])
        assert rollup_document([result], 1.0)["totals"]["reuse_ratio"] \
            == ratio


class TestExactImageKey:
    """The image layer's ``(member sha256, report fingerprint)`` key."""

    def _cold(self, tmp_path, version_pair):
        job = _elf_job(tmp_path, version_pair[0])
        cache_dir = str(tmp_path / "cache")
        cold = execute_job(job, cache_dir=cache_dir, use_fleet_index=True)
        assert len(_exact_records(cache_dir)) == 1
        return job, cache_dir, cold

    def _assert_same(self, warm, cold):
        assert warm["cache"]["image_findings_hit"]
        assert findings_fingerprint(warm["report"]) == \
            findings_fingerprint(cold["report"])
        assert warm["fingerprints"] == cold["fingerprints"]

    def test_byte_identical_rescan_skips_cfg(self, tmp_path, version_pair,
                                             monkeypatch):
        job, cache_dir, cold = self._cold(tmp_path, version_pair)
        _refuse_cfg(monkeypatch)
        warm, symexec = _symexec_job(job, cache_dir)
        assert symexec == 0
        assert warm["cache"]["cache_corrupt"] == 0
        self._assert_same(warm, cold)

    @pytest.mark.parametrize("damage", ["undecodable", "stale", "ill_typed"])
    def test_damaged_record_falls_back_to_closure_key(
        self, tmp_path, version_pair, damage
    ):
        job, cache_dir, cold = self._cold(tmp_path, version_pair)
        record, = _exact_records(cache_dir)
        doc = read_record(record)
        if damage == "ill_typed":
            doc["fingerprints"] = sorted(doc["fingerprints"])
        blob = encode_record(doc, "json")
        if damage == "stale":
            blob = _stale(blob)
        elif damage == "undecodable":
            blob = blob[:len(blob) // 2]
        with open(record, "wb") as handle:
            handle.write(blob)
        warm, symexec = _symexec_job(job, cache_dir)
        assert warm["cache"]["cache_corrupt"] == 1
        assert os.path.exists(record + ".corrupt")
        assert symexec == 0
        self._assert_same(warm, cold)
        # The closure-key hit wrote a clean record back.
        assert _exact_records(cache_dir) == [record]

    def test_per_binary_record_is_a_fleet_index_miss(self, tmp_path,
                                                     version_pair):
        job = _elf_job(tmp_path, version_pair[0])
        cache_dir = str(tmp_path / "cache")
        plain = execute_job(job, cache_dir=cache_dir)
        record, = _exact_records(cache_dir)
        assert read_record(record)["fingerprints"] is None
        cold, symexec = _symexec_job(job, cache_dir)
        assert symexec > 0
        assert not cold["cache"].get("image_findings_hit")
        assert cold["cache"]["cache_corrupt"] == 0
        # The fleet-index run overwrote the record with its fingerprints.
        assert read_record(record)["fingerprints"] == cold["fingerprints"]
        self._assert_same(_symexec_job(job, cache_dir)[0], cold)
        # Either mode reads the shared record.
        again = execute_job(job, cache_dir=cache_dir)
        assert again["cache"]["report_cache_hit"]
        assert findings_fingerprint(again["report"]) == \
            findings_fingerprint(plain["report"])

    def test_closure_hit_backfills_exact_record(self, tmp_path, version_pair,
                                                monkeypatch):
        job, cache_dir, cold = self._cold(tmp_path, version_pair)
        for record in _exact_records(cache_dir):
            os.unlink(record)
        second, _ = _symexec_job(job, cache_dir)
        self._assert_same(second, cold)
        assert len(_exact_records(cache_dir)) == 1
        _refuse_cfg(monkeypatch)
        third, symexec = _symexec_job(job, cache_dir)
        assert symexec == 0
        self._assert_same(third, cold)

    def test_sharded_run_hits_at_plan_phase(self, tmp_path, monkeypatch):
        # The smallest dir645 build whose cost clears two shards.
        built = build_firmware(KEY, scale=0.25)
        job = _elf_job(tmp_path, built, shards=2)
        flat = execute_job(replace(job, shards=0),
                           cache_dir=str(tmp_path / "flat"),
                           use_fleet_index=True)
        cache_dir = str(tmp_path / "sharded")
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        with FleetScheduler(jobs=1, backoff=0.0, telemetry=telemetry,
                            cache_dir=cache_dir,
                            use_fleet_index=True) as scheduler:
            cold, = scheduler.run([job])
        assert cold.ok, cold.error
        assert any(event["event"] == "shard_plan" and event["shards"] >= 2
                   for event in events)
        _refuse_cfg(monkeypatch)
        warm, symexec = _symexec_job(replace(job, shard_phase="plan"),
                                     cache_dir)
        assert warm["status"] == "ok"
        assert symexec == 0
        self._assert_same(warm, flat)


PAIR_SEED = 20180625
# Profiles and scales whose images clear two min-cost shards.
PAIR_PROFILES = (("dgn1000", 0.1), ("dgn2200", 0.05), ("hikvision", 0.02))


@dataclass
class SeededPair:
    old: FleetJob
    new: FleetJob
    cold_sha256: str      # no-cache cold scan of the new release
    cold_fingerprints: dict


@pytest.fixture(scope="module")
def seeded_pairs(tmp_path_factory):
    """One version pair per profile, each flipping a seeded handler."""
    rng = random.Random(PAIR_SEED)
    pairs = []
    for key, scale in PAIR_PROFILES:
        flip = rng.choice([
            kwargs.get("name") for _factory, kwargs, _module
            in PROFILES[key].handlers
        ])
        old, new, _ = build_version_pair(key, scale=scale, flip=flip)
        directory = tmp_path_factory.mktemp(key)
        jobs = []
        for which, built in (("old", old), ("new", new)):
            path = directory / ("%s.elf" % which)
            path.write_bytes(built.elf_bytes)
            jobs.append(FleetJob(job_id="%s.%s" % (key, which), kind="elf",
                                 path=str(path),
                                 modules=analyzed_module_prefixes(key)))
        cold = execute_job(jobs[1])
        _, fps = _fingerprint(
            new, DTaintConfig(modules=analyzed_module_prefixes(key))
        )
        pairs.append(SeededPair(
            old=jobs[0], new=jobs[1],
            cold_sha256=findings_fingerprint(cold["report"]),
            cold_fingerprints={
                name: {"local": fp.local, "closure": fp.closure}
                for name, fp in fps.items()
            },
        ))
    return pairs


def _damage_records(cache_dir, damage):
    """Delete every dataflow record, or corrupt them three ways in turn:
    undecodable, stale version, ill-typed."""
    for index, name in enumerate(_flow_records(cache_dir)):
        path = os.path.join(cache_dir, name)
        if damage == "deleted":
            os.unlink(path)
            continue
        record = read_record(path)
        blob = [
            b"\x80\x04garbage",
            _stale(encode_record(record, "pickle")),
            encode_record(dict(record, enriched="not a summary"), "pickle"),
        ][index % 3]
        with open(path, "wb") as handle:
            handle.write(blob)


class TestIncrementalEqualsCold:
    """Indexing the old release and rescanning the new one reports what
    a no-cache cold scan of the new release reports."""

    def _assert_cold(self, pair, report, fingerprints):
        assert findings_fingerprint(report) == pair.cold_sha256
        assert fingerprints == pair.cold_fingerprints

    @pytest.mark.parametrize("damage", [None, "deleted", "corrupted"])
    def test_unsharded(self, seeded_pairs, tmp_path, damage):
        for pair in seeded_pairs:
            cache_dir = str(tmp_path / pair.old.job_id)
            execute_job(pair.old, cache_dir=cache_dir, use_fleet_index=True)
            indexed = _flow_records(cache_dir)
            assert indexed
            if damage:
                _damage_records(cache_dir, damage)
            new = execute_job(pair.new, cache_dir=cache_dir,
                              use_fleet_index=True)
            self._assert_cold(pair, new["report"], new["fingerprints"])
            stats = new["cache"]
            assert (stats["flow_hits"] > 0) == (damage is None)
            assert (stats["cache_corrupt"] > 0) == (damage == "corrupted")
            # At least the patched closure gets new records.
            assert set(_flow_records(cache_dir)) - set(indexed)

    def test_sharded(self, seeded_pairs, tmp_path):
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        for pair in seeded_pairs:
            cache_dir = str(tmp_path / pair.old.job_id)
            flat_dir = str(tmp_path / (pair.old.job_id + ".flat"))
            reread_dir = str(tmp_path / (pair.old.job_id + ".reread"))
            with FleetScheduler(jobs=1, backoff=0.0, telemetry=telemetry,
                                cache_dir=cache_dir,
                                use_fleet_index=True) as scheduler:
                old, = scheduler.run([replace(pair.old, shards=2)])
                assert old.ok, old.error
                shutil.copytree(cache_dir, reread_dir)
                new, = scheduler.run([replace(pair.new, shards=2)])
            assert new.ok, new.error
            self._assert_cold(pair, new.report, new.fingerprints)
            # The merge wrote the records an unsharded run writes, and
            # an unsharded rescan reads them.
            execute_job(pair.old, cache_dir=flat_dir, use_fleet_index=True)
            assert _flow_records(reread_dir) == _flow_records(flat_dir)
            reread = execute_job(pair.new, cache_dir=reread_dir,
                                 use_fleet_index=True)
            assert reread["cache"]["flow_hits"] > 0
            self._assert_cold(pair, reread["report"],
                              reread["fingerprints"])
        planned = [event for event in events
                   if event["event"] == "shard_plan"]
        assert len(planned) == 2 * len(seeded_pairs)
        assert all(event["shards"] >= 2 for event in planned)

    def test_degraded_member_voids_callers_records(self, tmp_path,
                                                    seeded_pairs):
        pair = seeded_pairs[0]
        with open(pair.old.path, "rb") as handle:
            data = handle.read()
        binary = load_elf(data)
        config = DTaintConfig(modules=pair.old.modules)
        cache_dir = str(tmp_path)
        cache = open_incremental_cache(cache_dir, config)
        detector = DTaint(binary, config=config, summary_cache=cache)
        detector.build_cfg()
        # A function other functions' records depend on.
        victim = next(
            name for name in sorted(cache.flows)
            if any(name in flow.closure
                   for other, flow in cache.flows.items() if other != name)
        )
        with injected(["symexec@interproc:%s" % victim]):
            detector.run()
        cache.flush()
        assert victim in detector.degraded
        written = set(_flow_records(cache_dir))
        voided = {name for name, flow in cache.flows.items()
                  if victim in flow.watch}
        assert len(voided) >= 2
        assert len(voided) < len(cache.flows)
        for name, flow in cache.flows.items():
            path = os.path.relpath(cache.index._flow_path(flow.key),
                                   cache_dir)
            assert (path in written) == (name not in voided), name

    @pytest.mark.parametrize("stage", ["symexec", "aliasing"])
    def test_degraded_member_voids_served_records(self, tmp_path,
                                                  seeded_pairs,
                                                  monkeypatch, stage):
        """A record whose closure member degrades in the reading run
        (in symbolic execution or the first alias pass) is not used:
        that function takes the summary path instead, and the report
        equals a cold run with the same degradation."""
        from repro.core import detector as detector_mod
        from repro.symexec import SymbolicEngine

        pair = seeded_pairs[0]
        with open(pair.old.path, "rb") as handle:
            data = handle.read()
        config = DTaintConfig(modules=pair.old.modules)
        cache_dir = str(tmp_path)

        def scan(with_cache):
            cache = (open_incremental_cache(cache_dir, config)
                     if with_cache else None)
            detector = DTaint(load_elf(data), config=config,
                              summary_cache=cache)
            report = detector.run()
            if cache is not None:
                cache.flush()
            return detector, cache, report

        _, indexed, _ = scan(True)
        victim = next(
            name for name in sorted(indexed.flows)
            if any(name in flow.closure
                   for other, flow in indexed.flows.items() if other != name)
        )
        # The victim's own records are gone, so this run analyses it.
        fingerprint = indexed.fingerprints[victim]
        os.unlink(indexed.index._summary_path(fingerprint.closure))
        os.unlink(indexed.index._flow_path(indexed.flows[victim].key))
        if stage == "symexec":
            analyze = SymbolicEngine.analyze_function

            def fail_victim(engine, function):
                if function.name == victim:
                    raise MemoryError("victim")
                return analyze(engine, function)

            monkeypatch.setattr(SymbolicEngine, "analyze_function",
                                fail_victim)
        else:
            infer = detector_mod.infer_types

            def fail_victim(summary):
                if summary.name == victim:
                    raise MemoryError("victim")
                return infer(summary)

            monkeypatch.setattr(detector_mod, "infer_types", fail_victim)
        detector, cache, report = scan(True)
        assert detector.degraded[victim].phase == stage
        assert victim in detector.degraded
        voided = {name for name, flow in indexed.flows.items()
                  if victim in flow.watch and name != victim}
        assert voided
        assert voided.isdisjoint(detector._flows)
        assert cache.flow_hits == len(detector._flows) > 0
        assert cache.stats["summary_hits"] + cache.stats["summary_misses"] \
            == len(detector.summaries) + 1
        _, _, cold = scan(False)
        assert findings_fingerprint(report.to_dict()) == \
            findings_fingerprint(cold.to_dict())


# main -> ping <-> pong: a recursion SCC whose members import each
# other in a fixed order (pong first, so only ping sees pong's effects).
_RECURSIVE_ASM = """
.globl main
main:
    push {lr}
    sub sp, sp, #16
    mov r0, sp
    bl ping
    ldr r0, [sp]
    bl system
    add sp, sp, #16
    pop {pc}
.globl ping
ping:
    push {r4, lr}
    mov r4, r0
    ldr r0, =n_cmd
    bl getenv
    str r0, [r4]
    mov r0, r4
    bl pong
    pop {r4, pc}
.ltorg
.globl pong
pong:
    push {r4, lr}
    mov r4, r0
    mov r1, #2
    str r1, [r4, #4]
    cmp r4, #0
    beq pong_done
    mov r0, r4
    bl ping
pong_done:
    pop {r4, pc}
.rodata
n_cmd: .asciz "CMD"
"""


class TestRecursiveGroup:
    """A recursion SCC is served from dataflow records all or nothing."""

    def test_lost_member_record_recomputes_whole_scc(self, tmp_path):
        data, _ = build_executable("arm", _RECURSIVE_ASM,
                                   imports=["getenv", "system"])
        config = DTaintConfig()
        cache_dir = str(tmp_path)

        def scan(with_cache):
            cache = (open_incremental_cache(cache_dir, config)
                     if with_cache else None)
            detector = DTaint(load_elf(data), config=config,
                              summary_cache=cache)
            report = detector.run()
            if cache is not None:
                cache.flush()
            return detector, cache, report

        def dataflow(detector, report):
            return findings_fingerprint(report.to_dict()), {
                name: sorted((pretty(p.dest), pretty(p.value), p.site)
                             for p in enriched.def_pairs)
                for name, enriched in detector.enriched.items()
            }

        detector, _, report = scan(False)
        assert report.findings
        cold = dataflow(detector, report)
        _, indexed, _ = scan(True)
        assert indexed.flows["ping"].group == {"ping", "pong"}
        assert indexed.flows["main"].group == {"main"}
        # A record lost on its own (a kill during flush, a quarantined
        # file): ping's record alone must not be served.
        os.unlink(indexed.index._flow_path(indexed.flows["pong"].key))
        detector, cache, report = scan(True)
        assert sorted(detector._flows) == ["main"]
        assert cache.flow_hits == 1
        assert dataflow(detector, report) == cold
        # The rewritten record is the cold one, and now all serve.
        detector, cache, report = scan(True)
        assert cache.flow_hits == 3
        assert dataflow(detector, report) == cold

    @pytest.mark.parametrize("fleet_index", [False, True],
                             ids=["per_binary", "fleet_index"])
    def test_split_scc_shards_like_unsharded(self, tmp_path, monkeypatch,
                                             fleet_index):
        """The planner may put ping and pong in different shards; the
        sharded findings still equal the unsharded run's."""
        data, _ = build_executable("arm", _RECURSIVE_ASM,
                                   imports=["getenv", "system"])
        path = tmp_path / "recursive.elf"
        path.write_bytes(data)
        job = FleetJob(job_id="rec", kind="elf", path=str(path), shards=3)
        # Three tiny functions clear three shards only under a lower
        # floor; workers fork inside the test and inherit it.
        monkeypatch.setattr(shards_mod, "MIN_SHARD_COST", 64)
        plan = execute_job(replace(
            job, shard_phase="plan",
            shard_payload={"spill_dir": str(tmp_path)},
        ))
        homes = {name: index for index, shard in enumerate(plan["shards"])
                 for name in shard}
        assert homes["ping"] != homes["pong"]
        flat = execute_job(replace(job, shards=0))
        assert flat["report"]["vulnerable_paths"]
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        with FleetScheduler(jobs=1, retries=0, backoff=0.0,
                            telemetry=telemetry,
                            cache_dir=str(tmp_path / "cache"),
                            use_fleet_index=fleet_index) as scheduler:
            sharded, = scheduler.run([job])
        assert sharded.status == "ok", sharded.error
        assert [event["shards"] for event in events
                if event["event"] == "shard_plan"] == [3]
        assert findings_fingerprint(sharded.report) == \
            findings_fingerprint(flat["report"])


class TestDelta:
    def test_version_pair_delta_classifies_fix(
        self, tmp_path, version_pair, config
    ):
        old_built, new_built, flipped = version_pair
        old_report, _ = _scan_image(old_built, str(tmp_path), config)
        new_report, _ = _scan_image(new_built, str(tmp_path), config)
        doc = compute_delta(
            _image_doc(old_built, old_report),
            _image_doc(new_built, new_report),
        )
        assert doc["counts"]["new"] == 0
        assert doc["counts"]["fixed"] == 1
        assert doc["findings"]["fixed"][0]["function"] == flipped
        assert doc["function_counts"]["body_changed"] == 1
        assert flipped in doc["functions"]["body_changed"]
        assert doc["function_counts"]["added"] == 0
        assert doc["function_counts"]["removed"] == 0

    def test_self_delta_empty_and_byte_identical(
        self, tmp_path, version_pair, config
    ):
        old_built, _, _ = version_pair
        report_a, _ = _scan_image(old_built, str(tmp_path / "a"), config)
        report_b, _ = _scan_image(old_built, str(tmp_path / "b"), config)
        doc_ab = compute_delta(
            _image_doc(old_built, report_a),
            _image_doc(old_built, report_b),
        )
        doc_ba = compute_delta(
            _image_doc(old_built, report_b),
            _image_doc(old_built, report_a),
        )
        assert doc_ab["counts"]["new"] == 0
        assert doc_ab["counts"]["fixed"] == 0
        assert doc_ab["changed_closure"] == []
        assert delta_fingerprint(doc_ab) == delta_fingerprint(doc_ba)

    def test_classify_functions_accepts_plain_dicts(self):
        old = {
            "a": {"local": "1", "closure": "1"},
            "b": {"local": "2", "closure": "2"},
            "gone": {"local": "3", "closure": "3"},
        }
        new = {
            "a": {"local": "1", "closure": "9"},
            "b": {"local": "x", "closure": "y"},
            "fresh": {"local": "4", "closure": "4"},
        }
        out = classify_functions(old, new)
        assert out["callee_changed"] == ["a"]
        assert out["body_changed"] == ["b"]
        assert out["added"] == ["fresh"]
        assert out["removed"] == ["gone"]
        assert out["unchanged"] == []


class TestCacheGC:
    def _seed(self, root):
        """Quarantine leftovers plus one bad record of every kind; the
        records are returned after the first two paths."""
        def put(relpath, data):
            path = os.path.join(root, *relpath.split("/"))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(data)
            return path

        live = encode_record({"report": {}, "fingerprints": None}, "json")
        flipped = bytearray(live)
        flipped[-3] ^= 0x01
        return [
            put("summaries/ab/x.pkl.corrupt", b"junk"),
            put("summaries/ab/y.pkl.tmp.123", b"half-written"),
            # A bundle from before the record format.
            put("summaries/ab/z.pkl", pickle.dumps(
                {0x1000: b"DTSUM" + bytes([255]) + b"old"})),
            put("fleet/sum/cd/w.pkl",
                _stale(encode_record({"blob": b""}, "pickle"))),
            put("fleet/flow/ef/v.pkl", pickle.dumps(
                {"version": CACHE_FORMAT_VERSION - 1})),
            put("fleet/flow/ef/u.pkl",
                encode_record({"strays": ()}, "pickle")[:20]),
            put("reports/ab/ab-torn.json", live[:len(live) // 2]),
            put("reports/ab/ab-stale.json", _stale(live)),
            put("reports/ab/ab-flipped.json", bytes(flipped)),
            # The exact-bytes key's former home.
            put("fleet/img/sha/cd/cd-old.json", json.dumps(
                {"version": CACHE_FORMAT_VERSION - 1, "report": {},
                 "fingerprints": {}}).encode("utf-8")),
        ]

    def test_dry_run_touches_nothing(self, tmp_path):
        root = str(tmp_path)
        paths = self._seed(root)
        stats = collect_garbage(root, dry_run=True)
        assert stats["corrupt_removed"] == 1
        assert stats["tmp_removed"] == 1
        assert stats["files_removed"] == len(paths) - 2
        assert stats["bytes_freed"] > 0
        for path in paths:
            assert os.path.exists(path)

    def test_gc_removes_stale_files(self, tmp_path):
        root = str(tmp_path)
        paths = self._seed(root)
        stats = collect_garbage(root)
        assert stats["corrupt_removed"] == 1
        assert stats["tmp_removed"] == 1
        assert stats["files_removed"] == len(paths) - 2
        for path in paths:
            assert not os.path.exists(path)

    def test_gc_keeps_live_entries(self, tmp_path, version_pair, config):
        old_built, _, _ = version_pair
        _, cache = _scan_image(old_built, str(tmp_path), config)
        stored = cache.stats["fleet_stored"]
        assert stored > 0
        assert _flow_records(str(tmp_path))
        stats = collect_garbage(str(tmp_path))
        assert stats["files_removed"] == 0
        # The fleet layer still serves a full warm re-scan.
        _, warm = _scan_image(old_built, str(tmp_path), config)
        assert warm.stats["summary_misses"] == 0

    def test_gc_prunes_stale_image_records(self, tmp_path, version_pair):
        cache_dir = str(tmp_path / "cache")
        job = _elf_job(tmp_path, version_pair[0])
        execute_job(job, cache_dir=cache_dir, use_fleet_index=True)
        img = os.path.join(cache_dir, "fleet", "img")
        live = sorted(
            os.path.join(dirpath, name)
            for dirpath, _dirnames, names in os.walk(cache_dir)
            for name in names
        )
        assert _exact_records(cache_dir) and any(
            path.startswith(img) for path in live)
        stale = [os.path.join(img, "ab", "ab-old.json"),
                 os.path.join(img, "sha", "cd", "cd-old.json"),
                 os.path.join(img, "sha", "ef", "ef-torn.json")]
        for path, blob in zip(stale, [
            {"version": CACHE_FORMAT_VERSION - 1, "report": {},
             "entries": {}},
            {"version": CACHE_FORMAT_VERSION - 1, "report": {},
             "fingerprints": {}},
            None,
        ]):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(b"{\"vers" if blob is None
                             else json.dumps(blob).encode("utf-8"))
        stats = collect_garbage(cache_dir)
        assert stats["files_removed"] == len(stale)
        for path in stale:
            assert not os.path.exists(path)
        for path in live:
            assert os.path.exists(path)
        warm = execute_job(job, cache_dir=cache_dir, use_fleet_index=True)
        assert warm["cache"]["image_findings_hit"]
        assert warm["cache"]["cache_corrupt"] == 0


class TestAtomicResults:
    def _result(self, tmp_path):
        job = FleetJob(job_id=KEY, kind="profile", key=KEY, scale=SCALE)
        payload = execute_job(job, cache_dir=str(tmp_path / "cache"))
        from repro.pipeline.scheduler import JobResult

        result = JobResult(job=job, status="ok", attempts=1,
                           report=payload["report"],
                           cache=payload["cache"],
                           resources=payload["resources"])
        return result

    def test_mid_write_fault_leaves_previous_file_intact(self, tmp_path):
        result = self._result(tmp_path)
        out_dir = str(tmp_path / "out")
        first, = write_run_dir(out_dir, rollup_document([result], 1.0))
        with open(first) as handle:
            before = handle.read()
        with injected(["malformed@results:fleet.json"]):
            with pytest.raises(MalformedInput):
                write_run_dir(out_dir, rollup_document([result], 2.0))
        with open(first) as handle:
            assert handle.read() == before
        leftovers = [
            name for name in os.listdir(str(tmp_path / "out"))
            if ".tmp." in name
        ]
        assert leftovers == []
        # The writer recovers once the fault is gone.
        write_run_dir(out_dir, rollup_document([result], 3.0))
        with open(first) as handle:
            assert json.load(handle)["wall_seconds"] == 3.0

    def test_image_write_is_atomic_under_fault(self, tmp_path):
        result = self._result(tmp_path)
        out_dir = str(tmp_path / "out")
        target = "%s.json" % result.job.job_id
        with injected(["malformed@results:%s" % target]):
            with pytest.raises(MalformedInput):
                write_run_dir(out_dir, images=[image_document(result)])
        images = os.listdir(str(tmp_path / "out" / "images"))
        assert images == []
        path, = write_run_dir(out_dir, images=[image_document(result)])
        with open(path) as handle:
            assert json.load(handle)["status"] == "ok"


class TestCLI:
    def test_delta_cli(self, tmp_path, capsys, version_pair):
        from repro.cli import main

        old_built, new_built, _ = version_pair
        old_path, new_path = str(tmp_path / "old"), str(tmp_path / "new")
        with open(old_path, "wb") as handle:
            handle.write(old_built.elf_bytes)
        with open(new_path, "wb") as handle:
            handle.write(new_built.elf_bytes)
        code = main([
            "delta", old_path, new_path, "--modules", "cgi_",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 fixed" in out
        assert "0 new" in out
        with open(str(tmp_path / "out" / "delta.json")) as handle:
            doc = json.load(handle)
        assert doc["counts"]["fixed"] == 1

    def test_cache_gc_cli(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path)
        os.makedirs(os.path.join(root, "reports"), exist_ok=True)
        with open(os.path.join(root, "reports", "x.json.corrupt"),
                  "w") as handle:
            handle.write("junk")
        code = main(["cache", "gc", "--cache-dir", root, "--dry-run"])
        assert code == 0
        assert "would remove 1 corrupt" in capsys.readouterr().out
        assert os.path.exists(os.path.join(root, "reports",
                                           "x.json.corrupt"))
        code = main(["cache", "gc", "--cache-dir", root])
        assert code == 0
        assert "removed 1 corrupt" in capsys.readouterr().out
        assert not os.path.exists(os.path.join(root, "reports",
                                               "x.json.corrupt"))


def _fleet_scan(cache_dir, out_dir, *extra):
    from repro.cli import main

    return main([
        "fleet-scan", "dir645", "--scale", "0.05", "--jobs", "1",
        "--cache-dir", cache_dir, "--out", out_dir,
    ] + list(extra))


def _delta_images(out_dir):
    with open(os.path.join(out_dir, "delta.json")) as handle:
        return json.load(handle)["images"]


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    """One incremental dir645 run, recorded to a JSON dir and a DB."""
    root = tmp_path_factory.mktemp("baseline")
    paths = {
        "cache": str(root / "cache"),
        "out": str(root / "out"),
        "db": str(root / "db" / "dtaint.sqlite"),
    }
    assert _fleet_scan(paths["cache"], paths["out"], "--incremental",
                       "--results-db", paths["db"]) == 0
    return paths


class TestFleetScanBaseline:
    def test_json_and_sqlite_baselines_agree(self, baseline_run, tmp_path):
        from_json, from_db = str(tmp_path / "json"), str(tmp_path / "db")
        assert _fleet_scan(baseline_run["cache"], from_json,
                           "--baseline", baseline_run["out"]) == 0
        assert _fleet_scan(baseline_run["cache"], from_db,
                           "--baseline", baseline_run["db"]) == 0
        images = _delta_images(from_json)
        assert images["dir645"]["status"] == "ok"
        assert images["dir645"]["counts"]["new"] == 0
        assert images == _delta_images(from_db)

    def test_missing_baseline_exits_usage(self, baseline_run, tmp_path,
                                          capsys):
        from repro.cli import EXIT_USAGE

        code = _fleet_scan(baseline_run["cache"], str(tmp_path / "out"),
                           "--baseline", str(tmp_path / "no-such-run"))
        assert code == EXIT_USAGE
        assert "bad --baseline" in capsys.readouterr().err

    def test_non_database_file_exits_usage_untouched(self, baseline_run,
                                                     tmp_path):
        from repro.cli import EXIT_USAGE

        rollup = os.path.join(baseline_run["out"], "fleet.json")
        with open(rollup, "rb") as handle:
            before = handle.read()
        code = _fleet_scan(baseline_run["cache"], str(tmp_path / "out"),
                           "--baseline", rollup)
        assert code == EXIT_USAGE
        with open(rollup, "rb") as handle:
            assert handle.read() == before

    def test_removed_findings_fail_on_findings(self, baseline_run,
                                               tmp_path):
        from repro.cli import EXIT_FINDINGS

        rollup, images, _ = read_run_dir(baseline_run["out"])
        findings = images["dir645"]["findings"]
        findings["vulnerabilities"] = findings["vulnerable_paths"] = []
        edited = str(tmp_path / "edited")
        write_run_dir(edited, rollup, images.values())
        out_dir = str(tmp_path / "out")
        assert _fleet_scan(baseline_run["cache"], out_dir, "--baseline",
                           edited, "--fail-on-findings") == EXIT_FINDINGS
        assert _delta_images(out_dir)["dir645"]["counts"]["new"] > 0
