"""The selectable alias-engine subsystem (`repro.alias`).

Acceptance properties:

* engine identity is cache identity: summary/report fingerprints and
  service dedup keys differ by engine, and a warm cache populated by
  one engine serves **zero** summaries to the other;
* ``--alias-engine dtaint`` is a no-op: its canonical report is
  byte-identical to the committed golden corpus;
* the sse engine is a strict refinement on the seeded fixtures — it
  drops the dead-store false positive and keeps both vulnerable
  twins — and never *adds* findings on generated programs;
* sse's surviving entries partition dtaint's (survivors + killed =
  Algorithm 1's full alias set), and the engines differ only in
  which stores they believe: sse leaves the pairs dtaint leaves once
  sse's dead stores are removed;
* nested profiler phases bill exclusively, so alias work inside
  interproc summary application is attributed to ``alias``.
"""

import os
import shutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import profiling
from repro.alias import DEFAULT_ENGINE, ENGINE_NAMES, get_engine
from repro.alias.compare import canonical_json, golden_path
from repro.alias.fixtures import build_fixture
from repro.core import DTaint, DTaintConfig
from repro.core.types import infer_types
from repro.errors import PipelineError
from repro.pipeline import FleetJob, execute_job, findings_fingerprint
from repro.pipeline.cache import report_fingerprint, summary_fingerprint
from repro.service.queue import dedup_key, job_spec
from repro.symexec.state import DefPair, FunctionSummary
from repro.symexec.value import SymConst, SymVar, mk_add, mk_deref, mk_sub

KEY = "dir645"
SCALE = 0.05


def _run(built, name, engine):
    config = DTaintConfig(alias_engine=engine)
    return DTaint(built.binary, config=config, name=name).run()


def _flagged(report):
    return {f.function for f in report.findings if not f.sanitized}


# ---------------------------------------------------------------------------
# Registry.


class TestRegistry:
    def test_singletons(self):
        assert get_engine("dtaint") is get_engine("dtaint")
        assert get_engine("sse") is get_engine("sse")
        assert get_engine("").name == DEFAULT_ENGINE

    def test_names(self):
        for name in ENGINE_NAMES:
            assert get_engine(name).name == name

    def test_unknown_engine_rejected(self):
        with pytest.raises(PipelineError):
            get_engine("points-to")


# ---------------------------------------------------------------------------
# Query-surface properties over synthetic summaries.

# A store event: which stack slot, which argument pointer, which
# offset off that pointer.  Repeated slots create dead stores.
_store = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
)


def _summary_from(stores):
    """A summary of pointer stores; repeated slots overwrite."""
    summary = FunctionSummary(name="prop", addr=0x1000)
    sp0 = SymVar("sp0")
    for site, (slot, base_index, offset) in enumerate(stores):
        base = SymVar("arg%d" % base_index)
        dest = mk_deref(mk_sub(sp0, SymConst(8 + 4 * slot)))
        value = mk_add(base, SymConst(4 * offset)) if offset else base
        summary.def_pairs.append(
            DefPair(dest=dest, value=value, site=0x1000 + site)
        )
        # A field access through the base so type inference sees a
        # pointer (same shape as the detector's real summaries).
        field = mk_deref(mk_add(base, SymConst(0x10)))
        summary.def_pairs.append(
            DefPair(dest=field, value=SymConst(site), site=0x2000 + site)
        )
    return summary


class TestQueryProperties:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(_store, min_size=1, max_size=8))
    def test_sse_partitions_dtaint(self, stores):
        summary = _summary_from(stores)
        types = infer_types(summary)
        full = get_engine("dtaint").query(summary, types)
        sparse = get_engine("sse").query(summary, types)
        # Survivors are a subset of Algorithm 1's alias set, and
        # survivors + killed account for every candidate store.
        assert set(sparse.entries) <= set(full.entries)
        assert len(sparse.entries) + len(sparse.killed) \
            == len(full.entries)
        # Every killed pair has a later store to the identical cell.
        sites = {}
        for pair in summary.def_pairs:
            sites.setdefault(pair.dest, []).append(pair.site)
        for pair in sparse.killed:
            assert max(sites[pair.dest]) > pair.site

    @settings(deadline=None, max_examples=60)
    @given(st.lists(_store, min_size=1, max_size=8))
    def test_engines_differ_only_in_believed_stores(self, stores):
        # sse == dtaint run after sse's dead stores are removed: both
        # engines share the candidate filter and the rewrite.
        summary = _summary_from(stores)
        types = infer_types(summary)
        killed = set(get_engine("sse").query(summary, types).killed)
        pruned = _summary_from(stores)
        pruned.def_pairs[:] = [
            p for p in pruned.def_pairs if p not in killed
        ]
        get_engine("sse").apply(summary, types)
        get_engine("dtaint").apply(pruned, types)
        assert summary.def_pairs == pruned.def_pairs


# ---------------------------------------------------------------------------
# The seeded fixtures: sse is a strict refinement.


class TestFixtures:
    def test_dead_store_fp_split(self):
        built = build_fixture("dead_store_fp")
        target = built.ground_truth[0].function
        assert target in _flagged(_run(built, "fp", "dtaint"))
        assert target not in _flagged(_run(built, "fp", "sse"))

    @pytest.mark.parametrize("key", ["dead_store_recall",
                                     "distinct_cells"])
    def test_vulnerable_twins_kept_by_both(self, key):
        built = build_fixture(key)
        target = built.ground_truth[0].function
        for engine in ENGINE_NAMES:
            assert target in _flagged(_run(built, key, engine)), engine

    @settings(deadline=None, max_examples=3)
    @given(st.integers(min_value=2, max_value=60))
    def test_sse_never_adds_findings_on_generated_programs(self, seed):
        from repro.diffcheck.generate import build_program, generate_specs

        for spec in generate_specs(seed, 2):
            built = build_program(spec)
            full = _flagged(_run(built, spec.name, "dtaint"))
            sparse = _flagged(_run(built, spec.name, "sse"))
            assert sparse <= full
            # No recall loss relative to dtaint on labeled-vulnerable
            # functions.
            vulnerable = {g.function for g in built.ground_truth
                          if g.vulnerable}
            assert vulnerable & full <= sparse


# ---------------------------------------------------------------------------
# Golden identity: the default engine is a no-op.


class TestGoldenIdentity:
    def test_dtaint_engine_matches_golden_corpus(self):
        import json

        from repro.corpus.profiles import (
            analyzed_module_prefixes,
            build_firmware,
        )

        with open(golden_path()) as handle:
            golden = json.load(handle)
        built = build_firmware(KEY, scale=0.1)
        config = DTaintConfig(
            modules=analyzed_module_prefixes(KEY), alias_engine="dtaint",
        )
        report = DTaint(built.binary, config=config, name=KEY).run()
        assert canonical_json(report.to_dict()) == json.dumps(
            golden[KEY], indent=2, sort_keys=True
        )


# ---------------------------------------------------------------------------
# Cache identity.


class TestCacheIdentity:
    def test_fingerprints_differ_by_engine(self):
        dtaint = DTaintConfig(alias_engine="dtaint")
        sse = DTaintConfig(alias_engine="sse")
        assert summary_fingerprint(dtaint) != summary_fingerprint(sse)
        assert report_fingerprint(dtaint) != report_fingerprint(sse)

    def test_dedup_key_separates_engines(self):
        dtaint = job_spec(kind="profile", key=KEY, scale=SCALE,
                          alias_engine="dtaint")
        sse = job_spec(kind="profile", key=KEY, scale=SCALE,
                       alias_engine="sse")
        assert dedup_key(dtaint) != dedup_key(sse)
        # Specs persisted before the field existed ran the default.
        legacy = {k: v for k, v in dtaint.items() if k != "alias_engine"}
        assert dedup_key(legacy) == dedup_key(dtaint)

    def test_job_spec_rejects_unknown_engine(self):
        with pytest.raises(PipelineError):
            job_spec(kind="profile", key=KEY, alias_engine="bogus")

    def test_no_cross_engine_summary_reuse(self, tmp_path):
        def job(engine):
            return FleetJob(job_id="%s-%s" % (KEY, engine),
                            kind="profile", key=KEY, scale=SCALE,
                            alias_engine=engine)

        cache_dir = str(tmp_path)

        def summaries_only(engine):
            # Drop the report records: the summary store must answer.
            shutil.rmtree(os.path.join(cache_dir, "reports"),
                          ignore_errors=True)
            return execute_job(job(engine), cache_dir=cache_dir)

        cold = summaries_only("dtaint")
        assert cold["cache"]["summary_misses"] > 0
        other = summaries_only("sse")
        assert other["cache"]["summary_hits"] == 0
        warm = summaries_only("dtaint")
        assert warm["cache"]["summary_hits"] > 0
        assert findings_fingerprint(warm["report"]) == \
            findings_fingerprint(cold["report"])


# ---------------------------------------------------------------------------
# Profiler attribution.


class TestPhaseAttribution:
    def test_nested_phases_bill_exclusively(self):
        profiler = profiling.PhaseProfiler()
        with profiler.phase("interproc"):
            time.sleep(0.005)
            with profiler.phase("alias"):
                time.sleep(0.02)
        assert profiler.seconds["alias"] >= 0.02
        assert profiler.seconds["interproc"] < 0.02
        assert profiler.seconds["interproc"] > 0.0

    def test_scan_attributes_alias_inside_interproc(self):
        built = build_fixture("dead_store_fp")
        for engine in ENGINE_NAMES:
            before = profiling.PROFILER.snapshot()
            _run(built, "attr-%s" % engine, engine)
            profile = profiling.delta(
                before, profiling.PROFILER.snapshot()
            )
            assert profile["counters"].get("alias_queries", 0) > 0
            assert profile["seconds"].get("alias", 0.0) >= 0.0
            if engine == "sse":
                assert profile["counters"].get("sse_queries", 0) > 0
                assert profile["counters"].get(
                    "sse_killed_stores", 0
                ) > 0
