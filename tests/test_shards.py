"""Intra-image shard scheduling: planner, blob shipping, byte-identity.

The acceptance property of the whole subsystem is that sharding is
*invisible* in the output: any shard count (including auto) must yield
a findings fingerprint and coverage counters byte-identical to the
unsharded pipeline, because shards only repartition the
pre-interprocedural work and the merge reassembles the exact state the
serial tail would have seen.  Everything else here — planner
determinism and balance, summary-blob shipping, the unsharded
fallback — exists in service of that property.
"""

import os
import pickle
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus.profiles import analyzed_module_prefixes, build_firmware
from repro.firmware.image import pack_trx
from repro.firmware.simplefs import SimpleFS
from repro.pipeline import FleetJob, FleetScheduler, findings_fingerprint
from repro.pipeline.shards import AUTO_SHARDS, MIN_SHARD_COST, plan_shards
from repro.pipeline.telemetry import Telemetry
from repro.service import fleet_job_from_spec, job_spec

IMAGE = "dir645"
SCALE = 0.25    # smallest build whose cost clears two min-cost shards


@pytest.fixture(scope="module")
def image_elf(tmp_path_factory):
    built = build_firmware(IMAGE, scale=SCALE)
    path = tmp_path_factory.mktemp("shards") / ("%s.elf" % IMAGE)
    path.write_bytes(built.elf_bytes)
    return str(path)


@pytest.fixture(scope="module")
def image_firmware(image_elf, tmp_path_factory):
    """The same ELF as ``image_elf``, packed in a TRX firmware image."""
    with open(image_elf, "rb") as handle:
        elf_bytes = handle.read()
    rootfs = SimpleFS()
    rootfs.add_file("/bin/httpd", elf_bytes)
    path = tmp_path_factory.mktemp("shards-fw") / "fw.trx"
    path.write_bytes(pack_trx(b"KERNELKERNEL", rootfs.pack()))
    return str(path)


def _image_job(path, shards, job_id="img"):
    return FleetJob(job_id=job_id, kind="elf", path=path,
                    modules=analyzed_module_prefixes(IMAGE),
                    shards=shards)


def _kind_job(kind, paths, shards, job_id):
    """A job of ``kind`` over the one test image."""
    if kind == "profile":
        return FleetJob(job_id=job_id, kind="profile", key=IMAGE,
                        scale=SCALE, shards=shards)
    return FleetJob(job_id=job_id, kind=kind, path=paths[kind],
                    modules=analyzed_module_prefixes(IMAGE),
                    shards=shards)


def _cache_files(root):
    """Relative paths of every file under a cache directory."""
    return {
        os.path.relpath(os.path.join(dirpath, name), root)
        for dirpath, _dirnames, names in os.walk(root)
        for name in names
    }


# ---------------------------------------------------------------------------
# Planner: an exact, order-independent, balanced partition.


class TestShardPlanner:
    def test_partition_and_determinism(self):
        costs = {"f%02d" % i: MIN_SHARD_COST + i for i in range(20)}
        plans = [plan_shards(costs, 4) for _ in range(3)]
        first = plans[0]
        assert all(plan == first for plan in plans)
        flat = [name for shard in first for name in shard]
        assert sorted(flat) == sorted(costs)        # exact partition
        assert len(first) == 4

    def test_min_cost_collapses_small_images(self):
        costs = {"a": 10, "b": 10}
        assert plan_shards(costs, 8) == (("a", "b"),)

    def test_shards_capped_by_components(self):
        # Each function is its own unit of placement, so the shard
        # count never exceeds the function count.
        costs = {name: MIN_SHARD_COST for name in "abc"}
        assert plan_shards(costs, 16) == (("a",), ("b",), ("c",))

    @given(
        costs=st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            st.integers(min_value=1, max_value=20000),
            min_size=1, max_size=16,
        ),
        shard_count=st.integers(min_value=1, max_value=8),
        seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_plan_is_a_deterministic_partition(self, costs, shard_count,
                                               seed):
        plan = plan_shards(costs, shard_count)
        shuffled = list(costs.items())
        seed.shuffle(shuffled)
        assert plan_shards(dict(shuffled), shard_count) == plan
        flat = [name for shard in plan for name in shard]
        assert sorted(flat) == sorted(costs)      # partition: no loss/dup
        assert all(shard == tuple(sorted(shard)) for shard in plan)
        assert all(plan)                          # no empty shard
        total = sum(costs.values())
        assert len(plan) == max(
            min(shard_count, len(costs), total // MIN_SHARD_COST), 1
        )
        loads = [sum(costs[name] for name in shard) for shard in plan]
        assert max(loads) <= total / len(plan) + max(costs.values())


# ---------------------------------------------------------------------------
# The program's imports: the standard library only.


def test_program_imports_without_numpy():
    """The CLI and every module perfbench preloads import on the
    standard library alone: nothing pulls in numpy."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import importlib, sys\n"
        "from perfbench.run import PRELOAD\n"
        "import repro.cli\n"
        "for name in PRELOAD:\n"
        "    importlib.import_module(name)\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=repo,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# The acceptance property: shard count never changes findings.


class TestShardIdentity:
    def test_shard_counts_yield_identical_findings(self, image_elf):
        """0 / 1 / 2 / auto shards: one fingerprint, one coverage."""
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        baseline = None
        with FleetScheduler(jobs=1, backoff=0.0,
                            telemetry=telemetry) as scheduler:
            for shards in (0, 1, 2, AUTO_SHARDS):
                result = scheduler.run(
                    [_image_job(image_elf, shards,
                                job_id="s%d" % shards)]
                )[0]
                assert result.ok, result.error
                probe = (findings_fingerprint(result.report),
                         result.report.get("coverage"))
                if baseline is None:
                    baseline = probe
                assert probe == baseline, "shards=%d diverged" % shards
        # The test only means something if sharding actually engaged.
        planned = [event for event in events
                   if event["event"] == "shard_plan"]
        assert planned and any(event["shards"] >= 2 for event in planned)
        merged = [event for event in events
                  if event["event"] == "shard_merge_finish"]
        assert merged, "sharded runs must go through the merge task"

    def test_incremental_identity_cold_and_warm(self, image_elf,
                                                tmp_path):
        """Fleet-index runs: shards 0 / 2, cold then warm, one result.

        The third pass drops the whole-image records so the sharded
        plan cannot short-circuit: shard tasks must seed the shipped
        fingerprints and read summaries back from the on-disk index.
        """
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        probes = {}
        for shards in (0, 2):
            cache_dir = tmp_path / ("cache%d" % shards)
            with FleetScheduler(jobs=1, backoff=0.0, telemetry=telemetry,
                                cache_dir=str(cache_dir),
                                use_fleet_index=True) as scheduler:
                for run in ("cold", "warm", "summaries"):
                    if run == "summaries":
                        shutil.rmtree(str(cache_dir / "fleet" / "img"))
                        shutil.rmtree(str(cache_dir / "reports"))
                    result = scheduler.run(
                        [_image_job(image_elf, shards,
                                    job_id="i%d%s" % (shards, run))]
                    )[0]
                    assert result.ok, result.error
                    if run == "summaries":
                        assert result.cache.get("summary_hits", 0) > 0
                    probes[(shards, run)] = (
                        findings_fingerprint(result.report),
                        result.report.get("coverage"),
                    )
        baseline = probes[(0, "cold")]
        for key, probe in probes.items():
            assert probe == baseline, "%s diverged" % (key,)
        # Both the cold and the summaries-only sharded runs fan out.
        fanned = [event for event in events
                  if event["event"] == "shard_plan" and event["shards"] >= 2]
        assert len(fanned) >= 2

    @pytest.mark.parametrize("kind", ["profile", "elf", "firmware"])
    def test_every_job_kind_shards_identically(self, kind, image_elf,
                                               image_firmware):
        """Each job kind shards with no retry budget, and the sharded
        findings equal the unsharded run's."""
        paths = {"elf": image_elf, "firmware": image_firmware}
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        probes = {}
        with FleetScheduler(jobs=1, retries=0, backoff=0.0,
                            telemetry=telemetry) as scheduler:
            for shards in (0, 2):
                result = scheduler.run(
                    [_kind_job(kind, paths, shards, "k%d" % shards)]
                )[0]
                assert result.status == "ok", result.error
                probes[shards] = (findings_fingerprint(result.report),
                                  result.report.get("coverage"))
        assert probes[2] == probes[0]
        kinds = [event["event"] for event in events]
        assert "shard_fallback" not in kinds
        assert any(event["event"] == "shard_plan" and event["shards"] >= 2
                   for event in events)

    @pytest.mark.parametrize("fleet_index", [False, True],
                             ids=["plain", "fleet_index"])
    def test_cache_files_do_not_depend_on_sharding(self, fleet_index,
                                                   image_elf, tmp_path):
        """An unsharded and a sharded run leave the same cache files.

        Names only: bundle pickles keep insertion order, which follows
        the schedule.
        """
        files = {}
        for shards in (0, 4):
            cache_dir = str(tmp_path / ("cache%d" % shards))
            with FleetScheduler(jobs=1, retries=0, backoff=0.0,
                                cache_dir=cache_dir,
                                use_fleet_index=fleet_index) as scheduler:
                result = scheduler.run(
                    [_image_job(image_elf, shards, job_id="c%d" % shards)]
                )[0]
            assert result.ok, result.error
            files[shards] = _cache_files(cache_dir)
        assert files[0], "the run must write cache records"
        assert files[4] == files[0]

    def test_alias_fault_degrades_identically(self, image_elf,
                                              monkeypatch):
        """Alias pass 1 raising for one function degrades it the same
        way in a shard worker as in the unsharded detector."""
        import repro.core.detector as detector_mod

        victim = "cgi_do_cmd"
        infer_types = detector_mod.infer_types

        def faulty(summary):
            if summary.name == victim:
                raise RuntimeError("alias fault")
            return infer_types(summary)

        # Workers fork on the first run and inherit the patch.
        monkeypatch.setattr(detector_mod, "infer_types", faulty)
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        reports = {}
        with FleetScheduler(jobs=1, retries=0, backoff=0.0,
                            telemetry=telemetry) as scheduler:
            for shards in (0, 2):
                result = scheduler.run(
                    [_image_job(image_elf, shards, job_id="a%d" % shards)]
                )[0]
                assert result.status == "ok", result.error
                reports[shards] = result.report
        assert any(event["event"] == "shard_plan" and event["shards"] >= 2
                   for event in events)
        assert "shard_fallback" not in [event["event"] for event in events]
        degraded = {
            shards: [(d["function"], d["phase"])
                     for d in report["degraded_functions"]]
            for shards, report in reports.items()
        }
        assert degraded[0] == [(victim, "aliasing")]
        assert degraded[2] == degraded[0]
        assert findings_fingerprint(reports[2]) == \
            findings_fingerprint(reports[0])

    def test_failed_shard_falls_back_to_unsharded(self, image_elf):
        events = []
        telemetry = Telemetry()
        telemetry.add_sink(lambda record: events.append(dict(record)))
        with FleetScheduler(jobs=1, retries=1, backoff=0.0,
                            telemetry=telemetry) as scheduler:
            clean = scheduler.run(
                [_image_job(image_elf, 2, job_id="clean")]
            )[0]
            broken = scheduler.run(
                [FleetJob(job_id="boom", kind="elf", path=image_elf,
                          modules=analyzed_module_prefixes(IMAGE),
                          shards=2, fault="error", fault_attempts=1)]
            )[0]
        assert clean.ok and broken.ok
        assert broken.attempts == 2
        kinds = [event["event"] for event in events]
        assert "shard_fallback" in kinds
        assert findings_fingerprint(broken.report) == \
            findings_fingerprint(clean.report)

    def test_backoff_state_is_pruned_after_run(self, image_elf):
        with FleetScheduler(jobs=1, retries=2, backoff=0.01) as scheduler:
            result = scheduler.run(
                [FleetJob(job_id="flaky", kind="elf", path=image_elf,
                          fault="error", fault_attempts=1)]
            )[0]
            assert result.ok and result.attempts == 2
            # Retry jitter memos must not accumulate across a fleet's
            # lifetime: terminal jobs drop their per-job state.
            assert scheduler._backoff_state == {}


# ---------------------------------------------------------------------------
# Summary blobs shipped from shard tasks to the merge.


class TestSharedState:
    def test_summary_cache_blob_shipping(self, tmp_path):
        from repro.pipeline.cache import BoundSummaryCache

        source = BoundSummaryCache(str(tmp_path / "a.pkl"))
        bundle = source._load()
        bundle[0x1000] = pickle.dumps({"f": 1})
        bundle[0x2000] = pickle.dumps({"g": 2})
        blobs = source.export_blobs([0x1000, 0x2000, 0x9999])
        assert sorted(blobs) == [0x1000, 0x2000]
        target = BoundSummaryCache(str(tmp_path / "b.pkl"))
        target._load()[0x1000] = b"existing-wins"
        target.preload(blobs)
        assert target._load()[0x1000] == b"existing-wins"
        assert target._load()[0x2000] == blobs[0x2000]


# ---------------------------------------------------------------------------
# Service plumbing: shard counts survive the queue round trip.


class TestServicePlumbing:
    def test_job_spec_carries_shards(self):
        spec = job_spec("elf", path="/tmp/x.elf", shards=2)
        assert spec["shards"] == 2
        job = fleet_job_from_spec(spec, "j1")
        assert job.shards == 2

    def test_daemon_default_applies_only_when_unset(self):
        spec = job_spec("elf", path="/tmp/x.elf")
        assert fleet_job_from_spec(spec, "j2").shards == 0
        assert fleet_job_from_spec(spec, "j3",
                                   default_shards=AUTO_SHARDS).shards == \
            AUTO_SHARDS
        pinned = job_spec("elf", path="/tmp/x.elf", shards=4)
        assert fleet_job_from_spec(pinned, "j4",
                                   default_shards=AUTO_SHARDS).shards == 4

    def test_cli_shard_parser(self):
        from repro.cli import _parse_shards

        assert _parse_shards("auto") == AUTO_SHARDS
        assert _parse_shards("0") == 0
        assert _parse_shards("8") == 8
        with pytest.raises(ValueError):
            _parse_shards("many")
