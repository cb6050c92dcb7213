"""Outside-in span recorder: times calls into each layer's public API.

Nothing under ``src/`` is instrumented.  :func:`install` swaps each
entry point named in :data:`TARGETS` for a timing wrapper, at the
place the caller looks it up (a class attribute, or the module global
a caller imported by name), and :meth:`Recorder.uninstall` puts the
originals back.  Spans stay in memory; the benchmark turns them into
per-layer self times when the run ends.

A span's *self time* is its duration minus the durations of its
direct children.  Spans come from one thread and nest as a stack, so
children never overlap and the self times of a tree sum exactly to
its root.  The root span is the timed workload iteration; its own
self time is the time no wrapped layer claimed, reported as
``unattributed_s``.

Only the process and thread that installed the recorder record
anything.  Forked pool workers inherit the wrappers but pass straight
through, so worker work is attributed from what the scheduler returns
(see ``workloads.py``), never from spans lost with the worker.
"""

import contextlib
import functools
import importlib
import os
import threading
import time

ROOT = "root"

# Work counters: ``counter(result, args)`` turns one call into
# ``{suffix: amount}`` added to the ``<layer>[.<suffix>]`` counts.


def _count_one(result, args):
    return {"": 1}


def _count_len(result, args):
    return {"": len(result or ())}


def _count_truncated(result, args):
    return {"": 1, "truncated": int(bool(getattr(result, "truncated", 0)))}


def _count_summary_read(result, args):
    return _read_bytes(result, args[0]._summary_path(*args[1:]))


def _count_image_read(result, args):
    return _read_bytes(result, args[0]._image_path(*args[1:]))


def _read_bytes(result, path):
    if result is None or not os.path.exists(path):
        return {"misses": 1}
    return {"hits": 1, "bytes": os.path.getsize(path)}


# (module, attribute path, layer, counter).  A layer's self time is
# reported as ``<layer>.self_s`` unless LAYER_METRIC names it.
TARGETS = (
    ("repro.firmware.binwalk", "extract_tree", "firmware", _count_one),
    ("repro.loader.binary", "load_elf", "loader", None),
    ("repro.cfg.builder", "CFGBuilder.build_all", "cfg", _count_len),
    ("repro.core.detector", "DTaint.build_cfg", "cfg", None),
    ("repro.arch.arm.lifter", "ArmLifter.lift_block", "arch", _count_one),
    ("repro.arch.mips.lifter", "MipsLifter.lift_block", "arch", _count_one),
    ("repro.symexec.engine", "SymbolicEngine.analyze_function", "symexec",
     _count_truncated),
    ("repro.core.detector", "DTaint.analyze_functions", "symexec", None),
    ("repro.alias.dtaint", "DTaintAliasEngine.apply", "alias", _count_one),
    ("repro.alias.sse", "SseAliasEngine.apply", "alias", _count_one),
    ("repro.core.detector", "infer_types", "alias", None),
    ("repro.core.detector", "resolve_indirect_calls", "structure",
     _count_len),
    ("repro.core.structure", "address_taken_functions", "structure", None),
    ("repro.core.interproc", "InterproceduralAnalysis.run", "interproc",
     None),
    ("repro.core.detector", "DTaint.run_dataflow", "interproc", None),
    ("repro.core.paths", "PathFinder.trace", "detect", _count_len),
    ("repro.core.detector", "DTaint.detect", "detect", None),
    ("repro.increment.reuse", "fingerprint_functions",
     "increment.fingerprint", None),
    ("repro.increment.reuse", "image_fingerprint", "increment.fingerprint",
     None),
    ("repro.increment.reuse", "relocate_summary", "increment.relocate",
     None),
    ("repro.increment.reuse", "relocate_report", "increment.relocate", None),
    ("repro.increment.index", "FleetIndex.get_summary",
     "increment.index_read", _count_summary_read),
    ("repro.increment.index", "FleetIndex.get_image_report",
     "increment.index_read", _count_image_read),
    ("repro.increment.index", "FleetIndex.put_summary",
     "increment.index_write", None),
    ("repro.increment.index", "FleetIndex.put_image_report",
     "increment.index_write", None),
    ("repro.increment.index", "FleetIndex.flush", "increment.index_write",
     None),
    ("repro.pipeline.cache", "BoundSummaryCache.get", "cache.read", None),
    ("repro.pipeline.cache", "ReportCache.get", "cache.read", None),
    ("repro.pipeline.cache", "BoundSummaryCache.put", "cache.write", None),
    ("repro.pipeline.cache", "BoundSummaryCache.flush", "cache.write", None),
    ("repro.pipeline.cache", "ReportCache.put", "cache.write", None),
    ("repro.pipeline.scheduler", "execute_job", "pipeline", None),
    ("repro.pipeline.scheduler", "FleetScheduler.run", "pool", None),
)

# Layers whose self time is not reported as ``<layer>.self_s``.
LAYER_METRIC = {
    ROOT: "unattributed_s",
    "firmware": "firmware.unpack_s",
    "loader": "loader.load_s",
    "arch": "arch.lift_s",
    "increment.fingerprint": "increment.fingerprint_s",
    "increment.relocate": "increment.relocate_s",
    "increment.index_read": "increment.index_read_s",
    "increment.index_write": "increment.index_write_s",
    "cache.read": "cache.read_s",
    "cache.write": "cache.write_s",
    # Spans the service load generator records around its own calls.
    "service.http_submit": "service.http_submit_s",
    "service.poll": "service.poll_s",
    "loadgen.idle": "loadgen.idle_s",
}


def layer_metric(layer):
    """The metric name a layer's self time is reported under."""
    return LAYER_METRIC.get(layer, layer + ".self_s")


# Every metric that holds a span self time; together they make up the
# traced wall time exactly.
SELF_TIME_METRICS = frozenset(
    [layer_metric(layer) for _m, _p, layer, _c in TARGETS]
    + list(LAYER_METRIC.values())
)


class Recorder:
    """In-memory span stack for one thread of one process.

    ``spans`` holds ``[layer, start, end, parent_index]`` rows;
    ``counts`` accumulates the work counters the wrappers derive from
    results.  ``clock`` is injectable so the arithmetic can be tested
    on synthetic spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._restore = []

    def active(self):
        return (os.getpid() == self._pid
                and threading.get_ident() == self._thread)

    def open(self, layer):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close_span(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %d closed out of order" % index)
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, layer):
        """Context manager recording one ``layer`` span."""
        index = self.open(layer)
        try:
            yield
        finally:
            self.close_span(index)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, function, layer, counter=None):
        """A wrapper that records one ``layer`` span per call."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active():
                return function(*args, **kwargs)
            index = recorder.open(layer)
            try:
                result = function(*args, **kwargs)
                if counter is not None:
                    for suffix, amount in counter(result, args).items():
                        recorder.count(
                            layer + ("." + suffix if suffix else ""), amount
                        )
            finally:
                recorder.close_span(index)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Patch every target in place; :meth:`uninstall` restores them."""
        for module_name, path, layer, counter in targets:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self.wrap(original, layer, counter))
            self._restore.append((owner, attribute, original))
        return self

    def uninstall(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """``{layer: self seconds}`` over closed ``[layer, start, end,
    parent]`` rows; the values sum to the roots' total duration."""
    totals = {}
    for layer, start, end, _parent in spans:
        totals[layer] = totals.get(layer, 0.0) + (end - start)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            parent_layer = spans[parent][0]
            totals[parent_layer] = totals[parent_layer] - (end - start)
    return totals


def root_seconds(spans):
    """Total duration of the root spans (those without a parent)."""
    return sum(end - start for _l, start, end, parent in spans
               if parent < 0)


def layer_seconds(spans):
    """Self times keyed by metric name (root self = ``unattributed_s``)."""
    return {layer_metric(layer): seconds
            for layer, seconds in self_times(spans).items()}
