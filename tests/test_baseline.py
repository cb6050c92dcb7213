"""Tests for the top-down baseline (the Table VII comparator)."""

import pytest

from repro.baseline import TopDownDDG
from repro.core import DTaint
from repro.corpus.openssl import build_openssl
from repro.corpus.profiles import build_firmware


@pytest.fixture(scope="module")
def prepared():
    built = build_firmware("dir645", scale=0.08)
    detector = DTaint(built.binary, name="dir645")
    detector.build_cfg()
    detector.analyze_functions()
    return built, detector


def test_baseline_reanalyzes_shared_callees(prepared):
    built, detector = prepared
    baseline = TopDownDDG(
        binary=built.binary, functions=detector.functions,
        call_graph=detector.call_graph,
    )
    baseline.build()
    local = len([f for f in detector.functions.values() if not f.is_import])
    # The defining property: strictly more analyses than functions.
    assert baseline.stats.contexts_analyzed > local
    assert baseline.stats.reanalyses > 0


def test_baseline_tracks_register_definitions(prepared):
    built, detector = prepared
    baseline = TopDownDDG(
        binary=built.binary, functions=detector.functions,
        call_graph=detector.call_graph, max_contexts_per_function=2,
    )
    graph = baseline.build()
    assert baseline.stats.definitions > 0
    assert len(graph) > 0
    assert baseline.stats.edges == sum(len(uses) for uses in graph.values())


def test_baseline_respects_context_budget(prepared):
    built, detector = prepared
    baseline = TopDownDDG(
        binary=built.binary, functions=detector.functions,
        call_graph=detector.call_graph, max_total_contexts=10,
    )
    baseline.build()
    assert baseline.stats.contexts_analyzed <= 10


def test_baseline_roots_are_uncalled_functions():
    built = build_openssl()
    detector = DTaint(built.binary, name="openssl")
    detector.build_cfg()
    baseline = TopDownDDG(
        binary=built.binary, functions=detector.functions,
        call_graph=detector.call_graph,
    )
    roots = baseline.roots()
    assert "ssl3_read_bytes" in roots
    assert "ssl3_read_n" not in roots


def test_baseline_slower_than_bottom_up(prepared):
    import time

    built, detector = prepared
    start = time.perf_counter()
    detector.run_dataflow()
    bottom_up = time.perf_counter() - start

    baseline = TopDownDDG(
        binary=built.binary, functions=detector.functions,
        call_graph=detector.call_graph,
    )
    baseline.build()
    top_down = baseline.stats.ssa_seconds + baseline.stats.ddg_seconds
    assert top_down > bottom_up
