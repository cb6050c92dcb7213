"""The alias-engine showdown: precision/recall/runtime per engine.

One harness, three legs, shared by ``dtaint alias-compare`` and
``benchmarks/bench_alias_engines.py``:

* **ground truth** — seeded diffcheck-generated labeled programs; the
  static verdict per labeled function scores TP/FP/FN (a finding in an
  unlabeled filler counts as FP: fillers are constructed benign).
* **fixtures** — the seeded alias-stress corpus
  (:mod:`repro.alias.fixtures`), built so the engines *must* differ:
  the dtaint engine false-positives on the interprocedural dead-store
  pattern, the sse engine must not, and both must keep the vulnerable
  twins.
* **vendor** — the six-profile corpus at the golden scale; for the
  ``dtaint`` engine the canonical report of every profile is compared
  byte-for-byte against the committed golden corpus (any divergence is
  a red gate: selecting the default engine must be a no-op).

Each leg runs under a profiler bracket so the comparison publishes
honest per-phase seconds per engine alongside wall clock.
"""

import json
import os
import time

from repro import profiling
from repro.alias.base import ENGINE_NAMES
from repro.alias.fixtures import FIXTURES, build_fixture
from repro.core import DTaint, DTaintConfig

GOLDEN_SCALE = 0.1

# -- canonical report documents (shared with tests/golden_util.py) ---------

_TIMING_KEYS = ("elapsed_seconds", "summary_cache", "phase_profile")


def _finding_key(finding):
    return (
        finding.get("kind", ""),
        finding.get("function", ""),
        finding.get("sink_name", ""),
        finding.get("sink_addr", 0),
        finding.get("source_name", ""),
        finding.get("source_addr", 0),
        finding.get("expr", ""),
        finding.get("hops", 0),
    )


def canonical_report_doc(report_dict):
    """Timing-free, deterministically ordered form of a report dict."""
    doc = {k: v for k, v in report_dict.items() if k not in _TIMING_KEYS}
    for key in ("vulnerable_paths", "vulnerabilities", "sanitized_paths"):
        doc[key] = sorted(doc.get(key, ()), key=_finding_key)
    doc["degraded_functions"] = sorted(
        (
            {k: v for k, v in d.items() if k != "elapsed_seconds"}
            for d in doc.get("degraded_functions", ())
        ),
        key=lambda d: (d.get("addr", 0), d.get("function", "")),
    )
    return doc


def canonical_json(report_dict):
    """The byte-comparable serialisation of a canonical report."""
    return json.dumps(canonical_report_doc(report_dict), indent=2,
                      sort_keys=True)


def golden_path():
    """The committed golden corpus, located from the repo layout."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(root, "tests", "data",
                        "golden_corpus_reports.json")


# -- scoring ---------------------------------------------------------------

def _confusion():
    return {"tp": 0, "fp": 0, "fn": 0, "tn": 0}


def _derive(confusion):
    tp, fp, fn = confusion["tp"], confusion["fp"], confusion["fn"]
    confusion["precision"] = round(tp / (tp + fp), 4) if tp + fp else 1.0
    confusion["recall"] = round(tp / (tp + fn), 4) if tp + fn else 1.0
    denom = 2 * tp + fp + fn
    confusion["f1"] = round(2 * tp / denom, 4) if denom else 1.0
    return confusion


def _score(confusion, labels, reported):
    """Fold one program's verdicts into a confusion dict."""
    for name, truth in labels.items():
        flagged = name in reported
        if truth.vulnerable and flagged:
            confusion["tp"] += 1
        elif truth.vulnerable:
            confusion["fn"] += 1
        elif flagged:
            confusion["fp"] += 1
        else:
            confusion["tn"] += 1
    # Findings in unlabeled functions (fillers) are false positives by
    # construction.
    confusion["fp"] += len(reported - set(labels))


def _static_vuln(report):
    return {f.function for f in report.findings if not f.sanitized}


def _run_engine(binary, name, engine, modules=()):
    config = DTaintConfig(modules=tuple(modules), alias_engine=engine)
    return DTaint(binary, config=config, name=name).run()


# -- the harness -----------------------------------------------------------

def compare_engines(seed=1, count=20, arches=None, scale=GOLDEN_SCALE,
                    vendor=True, engines=ENGINE_NAMES, log=None):
    """Run every engine over the three legs; returns the comparison doc."""
    from repro.diffcheck.generate import (
        ARCHES,
        build_program,
        generate_specs,
    )

    say = log or (lambda message: None)
    arches = tuple(arches) if arches else ARCHES

    # Build every target once; the engines disagree about analysis,
    # never about bytes.
    specs = generate_specs(seed, count, arches=arches)
    programs = []
    for spec in specs:
        built = build_program(spec)
        labels = {g.function: g for g in built.ground_truth}
        programs.append((spec.name, built, labels))
    say("built %d labeled programs (seed %d)" % (len(programs), seed))
    fixtures = [(key, build_fixture(key)) for key in sorted(FIXTURES)]

    golden = None
    if vendor and abs(scale - GOLDEN_SCALE) < 1e-9:
        path = golden_path()
        if os.path.exists(path):
            with open(path) as handle:
                golden = json.load(handle)

    document = {
        "seed": seed,
        "count": count,
        "arches": list(arches),
        "scale": scale,
        "engines": {},
    }
    for engine in engines:
        document["engines"][engine] = _compare_one(
            engine, programs, fixtures, vendor, scale, golden, say,
        )
    document["gates"] = _gates(document)
    return document


def _compare_one(engine, programs, fixtures, vendor, scale, golden, say):
    before = profiling.PROFILER.snapshot()
    started = time.perf_counter()

    ground_truth = _confusion()
    for name, built, labels in programs:
        report = _run_engine(built.binary, name, engine)
        _score(ground_truth, labels, _static_vuln(report))

    fixture_scores = _confusion()
    per_fixture = {}
    for key, built in fixtures:
        report = _run_engine(built.binary, key, engine)
        labels = {g.function: g for g in built.ground_truth}
        reported = _static_vuln(report)
        _score(fixture_scores, labels, reported)
        truth = next(iter(labels.values()))
        per_fixture[key] = {
            "expected": bool(truth.vulnerable),
            "reported": truth.function in reported,
        }

    vendor_doc = None
    if vendor:
        from repro.corpus.profiles import (
            PROFILE_ORDER,
            analyzed_module_prefixes,
            build_firmware,
        )

        profiles = {}
        divergences = [] if (golden is not None and engine == "dtaint") \
            else None
        for key in PROFILE_ORDER:
            built = build_firmware(key, scale=scale)
            profile_start = time.perf_counter()
            report = _run_engine(
                built.binary, key, engine,
                modules=analyzed_module_prefixes(key),
            )
            profiles[key] = {
                "findings": len(report.findings),
                "sanitized": len(report.sanitized_paths),
                "wall_seconds": round(
                    time.perf_counter() - profile_start, 3
                ),
            }
            if divergences is not None:
                expected = json.dumps(
                    golden.get(key), indent=2, sort_keys=True
                )
                if canonical_json(report.to_dict()) != expected:
                    divergences.append(key)
        vendor_doc = {
            "profiles": profiles,
            "findings": sum(p["findings"] for p in profiles.values()),
            "golden_divergences": divergences,
        }

    profile = profiling.delta(before, profiling.PROFILER.snapshot())
    result = {
        "ground_truth": _derive(ground_truth),
        "fixtures": _derive(fixture_scores),
        "per_fixture": per_fixture,
        "vendor": vendor_doc,
        "phase_seconds": profile.get("seconds", {}),
        "counters": profile.get("counters", {}),
        "wall_seconds": round(time.perf_counter() - started, 3),
    }
    say("engine %s: gt P=%.3f R=%.3f F1=%.3f, fixtures fp=%d, %.1fs"
        % (engine, ground_truth["precision"], ground_truth["recall"],
           ground_truth["f1"], fixture_scores["fp"],
           result["wall_seconds"]))
    return result


def _combined_recall(engine_doc):
    tp = engine_doc["ground_truth"]["tp"] + engine_doc["fixtures"]["tp"]
    fn = engine_doc["ground_truth"]["fn"] + engine_doc["fixtures"]["fn"]
    return tp / (tp + fn) if tp + fn else 1.0


def _gates(document):
    """The acceptance gates the bench (and CI) enforce."""
    engines = document["engines"]
    gates = {}
    dtaint = engines.get("dtaint")
    sse = engines.get("sse")
    if dtaint is not None and dtaint.get("vendor"):
        divergences = dtaint["vendor"].get("golden_divergences")
        gates["dtaint_golden_identical"] = (
            None if divergences is None else not divergences
        )
    if dtaint is not None and sse is not None:
        gates["sse_fixture_fp_reduction"] = (
            sse["fixtures"]["fp"] < dtaint["fixtures"]["fp"]
        )
        gates["sse_recall_preserved"] = (
            _combined_recall(sse) >= _combined_recall(dtaint)
        )
        gates["sse_total_fp"] = (
            sse["ground_truth"]["fp"] + sse["fixtures"]["fp"]
        )
        gates["dtaint_total_fp"] = (
            dtaint["ground_truth"]["fp"] + dtaint["fixtures"]["fp"]
        )
    return gates


def render_comparison(document):
    """Human-readable comparison table."""
    lines = [
        "alias-engine comparison (seed %d, %d programs, arches %s)"
        % (document["seed"], document["count"],
           "/".join(document["arches"])),
        "  %-8s %9s %9s %9s %12s %12s %10s"
        % ("engine", "precision", "recall", "f1", "fixture-fp",
           "vendor-find", "wall(s)"),
    ]
    for engine, doc in sorted(document["engines"].items()):
        vendor = doc.get("vendor") or {}
        lines.append(
            "  %-8s %9.3f %9.3f %9.3f %12d %12s %10.1f"
            % (engine,
               doc["ground_truth"]["precision"],
               doc["ground_truth"]["recall"],
               doc["ground_truth"]["f1"],
               doc["fixtures"]["fp"],
               str(vendor.get("findings", "-")),
               doc["wall_seconds"])
        )
    for engine, doc in sorted(document["engines"].items()):
        seconds = doc.get("phase_seconds", {})
        if not seconds:
            continue
        total = sum(seconds.values()) or 1.0
        breakdown = "  ".join(
            "%s=%.2fs(%.0f%%)" % (name, seconds[name],
                                  100.0 * seconds[name] / total)
            for name in profiling.PHASES if name in seconds
        )
        lines.append("  phases[%s]: %s" % (engine, breakdown))
    for name, value in sorted((document.get("gates") or {}).items()):
        lines.append("  gate %s: %s" % (name, value))
    return "\n".join(lines)
