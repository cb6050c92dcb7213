"""Self-tests of the benchmark's own arithmetic, grammar and gate.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (REPO, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import gate, run, spans, workloads  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# -- span arithmetic ---------------------------------------------------------


def test_self_times_subtract_direct_children():
    # root 0..10 ⊃ cfg 1..4 ⊃ arch 2..3 ; symexec 5..9 ⊃ arch 6..8
    recorder = spans.Recorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 8, 9, 10))
    with recorder.span(spans.ROOT):
        with recorder.span("cfg"):
            with recorder.span("arch"):
                pass
        with recorder.span("symexec"):
            with recorder.span("arch"):
                pass
    assert spans.self_times(recorder.spans) == {
        spans.ROOT: 3, "cfg": 2, "arch": 3, "symexec": 2,
    }
    layers = spans.layer_seconds(recorder.spans)
    assert layers["unattributed_s"] == 3
    assert layers["arch.lift_s"] == 3
    assert sum(layers.values()) == spans.root_seconds(recorder.spans) == 10


def test_self_times_sum_to_roots_over_many_iterations():
    ticks = [0, 1, 3, 4, 10, 12, 13, 17]
    recorder = spans.Recorder(clock=FakeClock(*ticks))
    for _ in range(2):
        with recorder.span(spans.ROOT):
            with recorder.span("detect"):
                pass
    assert spans.root_seconds(recorder.spans) == 4 + 7
    assert sum(spans.self_times(recorder.spans).values()) == 11
    assert spans.self_times(recorder.spans)["detect"] == 2 + 1


def test_out_of_order_close_is_refused():
    recorder = spans.Recorder(clock=FakeClock(0, 1, 2))
    outer = recorder.open("a")
    recorder.open("b")
    with pytest.raises(RuntimeError):
        recorder.close_span(outer)


def test_wrappers_record_counts_and_restore_originals():
    from repro.corpus.matryoshka import build_matryoshka
    from repro.firmware import binwalk

    original = binwalk.extract_tree
    blob = build_matryoshka(seed=3).blob
    with spans.Recorder().install() as recorder:
        assert binwalk.extract_tree is not original
        with recorder.span(spans.ROOT):
            tree = binwalk.extract_tree(blob, name="nest")
    assert binwalk.extract_tree is original
    assert len(tree.elves()) == 4
    assert recorder.counts["firmware"] == 1
    layers = spans.layer_seconds(recorder.spans)
    assert layers["firmware.unpack_s"] > 0
    assert set(layers) == {"unattributed_s", "firmware.unpack_s"}


def test_every_self_time_metric_is_listed():
    for _module, _path, layer, _counter in spans.TARGETS:
        assert spans.layer_metric(layer) in spans.SELF_TIME_METRICS
    assert spans.SELF_TIME_METRICS <= set(run.PER_LAYER)


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("name",
                         sorted(run.END_TO_END) + sorted(run.PER_LAYER))
def test_metric_names_follow_the_grammar(name):
    assert run.NAME.match(name)


@pytest.mark.parametrize("name", ["", "_lead", "has space", "a/b", "x" * 65,
                                  "cfg:self"])
def test_bad_metric_names_are_rejected(name):
    assert not run.NAME.match(name)


def test_every_listed_workload_is_implemented():
    from perfbench import inputs

    assert set(run.WORKLOADS) == set(workloads.ITERATIONS) \
        == set(inputs.SETUPS)


# -- outcome counting --------------------------------------------------------


def test_failed_counts_refused_and_unfinished_submissions():
    statuses = [201, 429, 201, 201, 503]
    rows = {1: {"state": "done"}, 2: {"state": "failed"},
            3: {"state": "running"}}
    assert workloads.count_outcomes(statuses, rows) == (5, 4)


def test_all_done_means_no_failures():
    rows = {1: {"state": "done"}, 2: {"state": "done"}}
    assert workloads.count_outcomes([201, 200], rows) == (2, 0)


def test_failed_ratio_is_failed_over_attempted():
    results = [
        {"traced": False, "wall": 1.0, "attempted": 6, "failed": 0,
         "layers": {}, "spans": {}},
        {"traced": True, "wall": 1.0, "attempted": 4, "failed": 1,
         "layers": {}, "spans": {"unattributed_s": 0.25,
                                 "trace.wall_s": 0.25}},
    ]
    assert run.per_layer(results, [0.5])["failed_ratio"] == pytest.approx(0.1)


def test_per_layer_refuses_self_times_that_miss_the_wall():
    results = [
        {"traced": False, "wall": 1.0, "attempted": 1, "failed": 0,
         "layers": {}, "spans": {}},
        {"traced": True, "wall": 1.0, "attempted": 1, "failed": 0,
         "layers": {}, "spans": {"unattributed_s": 0.2, "cfg.self_s": 0.3,
                                 "trace.wall_s": 0.6}},
    ]
    with pytest.raises(run.BenchError):
        run.per_layer(results, [0.5])


# -- host scaling ------------------------------------------------------------


MEASURED = {"setup_s": 4.0, "wall_s": 2.0, "jobs_per_s": 3.0,
            "latency_p50_s": 0.5, "latency_p90_s": 1.0, "peak_rss_mb": 70.0}


def test_a_host_twice_as_slow_scales_cpu_bound_timings_back():
    slow = [2 * run.REFERENCE_CALIBRATION_S] * 3
    scaled = run.host_scaled("cold_scan", MEASURED, slow)
    assert scaled == pytest.approx({
        "setup_s": 2.0, "wall_s": 1.0, "jobs_per_s": 6.0,
        "latency_p50_s": 0.25, "latency_p90_s": 0.5, "peak_rss_mb": 70.0,
    })


def test_service_scales_only_its_set_up():
    slow = [run.REFERENCE_CALIBRATION_S, 2 * run.REFERENCE_CALIBRATION_S,
            3 * run.REFERENCE_CALIBRATION_S]
    scaled = run.host_scaled("service", MEASURED, slow)
    assert scaled == pytest.approx(dict(MEASURED, setup_s=2.0))


# -- the correctness gate ----------------------------------------------------


def test_gate_passes_matching_fingerprints():
    gate.check_fingerprints({"a": "1", "b": "2"}, {"a": "1", "b": "2"})


def test_gate_trips_on_a_wrong_reference(tmp_path):
    from repro.corpus.matryoshka import build_matryoshka
    from repro.pipeline.results import findings_fingerprint
    from repro.pipeline.scheduler import FleetJob, execute_job

    from perfbench import inputs

    with pytest.raises(gate.GateError):
        gate.check_fingerprints({"a": "1"}, {"a": "2"})
    with pytest.raises(gate.GateError):
        gate.check_fingerprints({"a": "1", "b": "2"}, {"a": "1"})

    path = tmp_path / "nest.bin"
    path.write_bytes(build_matryoshka(seed=5).blob)
    job = FleetJob(job_id="m", kind="firmware", path=str(path))
    reference = inputs.reference_sha(job)
    observed = findings_fingerprint(execute_job(job)["report"])
    gate.check_fingerprints({"m": reference}, {"m": observed})
    with pytest.raises(gate.GateError):
        gate.check_fingerprints({"m": reference[::-1]}, {"m": observed})


def test_member_gate_lets_only_cache_served_twins_share_a_report():
    references = {"a": "ra", "b": "rb", "c": "rc"}
    members = {"a": "m1", "b": "m1", "c": "m2"}
    own = {"a": ("m1", "ra"), "b": ("m1", "rb"), "c": ("m2", "rc")}
    gate.check_members(references, members, own, served=set())
    twin = dict(own, b=("m1", "ra"))
    gate.check_members(references, members, twin, served={"b"})
    with pytest.raises(gate.GateError):
        gate.check_members(references, members, twin, served=set())
    with pytest.raises(gate.GateError):
        gate.check_members(references, members, dict(own, b=("m1", "rc")),
                           served={"b"})
    with pytest.raises(gate.GateError):
        gate.check_members(references, members, dict(own, c=("m1", "ra")),
                           served={"c"})
    with pytest.raises(gate.GateError):
        gate.check_members(references, members,
                           {"a": own["a"], "b": own["b"]}, served=set())


def test_gate_trips_on_wrong_ground_truth():
    from repro.core import DTaint, DTaintConfig
    from repro.corpus.profiles import analyzed_module_prefixes, build_firmware

    built = build_firmware("dir645", scale=0.01)
    report = DTaint(built.binary, config=DTaintConfig(
        modules=analyzed_module_prefixes("dir645"))).run()
    image = {"key": "dir645", "vulnerabilities": 4,
             "labels": [[g.function, bool(g.vulnerable)]
                        for g in built.ground_truth]}
    gate.check_ground_truth(image, report, built.binary)
    flipped = dict(image, labels=[[f, not v] for f, v in image["labels"]])
    with pytest.raises(gate.GateError):
        gate.check_ground_truth(flipped, report, built.binary)
    with pytest.raises(gate.GateError):
        gate.check_ground_truth(dict(image, vulnerabilities=5), report,
                                built.binary)
