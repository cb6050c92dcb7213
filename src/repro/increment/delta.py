"""Firmware-version delta reports (``dtaint delta OLD NEW``).

Matches functions across two images by **name** and compares them by
fingerprint — position-independent, so a rebuilt image where every
address shifted still reports "unchanged" for untouched code:

* ``unchanged``      — local and closure fingerprints both equal;
* ``body_changed``   — the function's own canonical IR differs;
* ``callee_changed`` — own body identical, but something in its callee
  closure changed (its summary-derived findings may still move);
* ``added`` / ``removed`` — present in only one image.

Findings are classified with an **address-free** key
``(function, kind, sink_name, source_name)`` — rebuilds shift every
address, so address-bearing keys would misreport a recompiled-but-
identical bug as fixed-plus-new:

* ``new``        — keyed finding present only in the new image;
* ``fixed``      — present only in the old image;
* ``persisting`` — present in both.

The delta document is canonical (sorted lists, no wall times, no
cache counters), so diffing an image against itself yields an empty,
byte-identical delta regardless of worker count or exploration order
— the same determinism contract the golden corpus enforces for scans.
"""

import tempfile
from dataclasses import replace

from repro.pipeline.results import canonical_digest, canonical_report

DELTA_FORMAT_VERSION = 1

_FINDING_KEY_FIELDS = ("function", "kind", "sink_name", "source_name")


def _finding_key(finding):
    return tuple(str(finding.get(name, "")) for name in _FINDING_KEY_FIELDS)


def _keyed_findings(findings_doc, section="vulnerabilities"):
    """key -> representative finding dict (first under canonical order)."""
    keyed = {}
    for finding in findings_doc.get(section, []) or []:
        keyed.setdefault(_finding_key(finding), finding)
    return keyed


def classify_functions(old_fps, new_fps):
    """Function-level delta taxonomy over fingerprint maps.

    Each map is ``name -> object`` with ``local`` and ``closure``
    attributes or keys (FunctionFingerprint instances and plain dicts
    both work, so baselines loaded from JSON compare directly).
    """

    def field(fp, name):
        value = getattr(fp, name, None)
        if value is None and isinstance(fp, dict):
            value = fp.get(name)
        return value

    out = {
        "unchanged": [], "body_changed": [], "callee_changed": [],
        "added": [], "removed": [],
    }
    for name in sorted(set(old_fps) | set(new_fps)):
        old, new = old_fps.get(name), new_fps.get(name)
        if old is None:
            out["added"].append(name)
        elif new is None:
            out["removed"].append(name)
        elif field(old, "local") != field(new, "local"):
            out["body_changed"].append(name)
        elif field(old, "closure") != field(new, "closure"):
            out["callee_changed"].append(name)
        else:
            out["unchanged"].append(name)
    return out


def classify_findings(old_doc, new_doc, section="vulnerabilities"):
    """Finding-level new/fixed/persisting split over canonical docs."""
    old_keyed = _keyed_findings(old_doc, section)
    new_keyed = _keyed_findings(new_doc, section)
    new_only = sorted(set(new_keyed) - set(old_keyed))
    fixed = sorted(set(old_keyed) - set(new_keyed))
    persisting = sorted(set(new_keyed) & set(old_keyed))
    return {
        "new": [new_keyed[k] for k in new_only],
        "fixed": [old_keyed[k] for k in fixed],
        "persisting": [new_keyed[k] for k in persisting],
    }


def compute_delta(old_image, new_image):
    """The canonical delta document for two scanned images.

    Each input is a dict with ``name``, ``sha256``, ``findings`` (a
    :func:`~repro.pipeline.results.canonical_report` document) and
    ``fingerprints`` (``name -> {local, closure}`` or
    FunctionFingerprint map).
    """
    functions = classify_functions(
        old_image.get("fingerprints", {}), new_image.get("fingerprints", {})
    )
    findings = classify_findings(
        old_image.get("findings", {}), new_image.get("findings", {})
    )
    paths = classify_findings(
        old_image.get("findings", {}), new_image.get("findings", {}),
        section="vulnerable_paths",
    )
    changed = (functions["body_changed"] + functions["callee_changed"]
               + functions["added"] + functions["removed"])
    return {
        "version": DELTA_FORMAT_VERSION,
        "old": {"name": old_image.get("name", ""),
                "sha256": old_image.get("sha256", "")},
        "new": {"name": new_image.get("name", ""),
                "sha256": new_image.get("sha256", "")},
        "functions": functions,
        "function_counts": {
            kind: len(names) for kind, names in functions.items()
        },
        "changed_closure": sorted(changed),
        "findings": findings,
        "counts": {
            "new": len(findings["new"]),
            "fixed": len(findings["fixed"]),
            "persisting": len(findings["persisting"]),
            "new_paths": len(paths["new"]),
            "fixed_paths": len(paths["fixed"]),
            "persisting_paths": len(paths["persisting"]),
        },
    }


def delta_fingerprint(delta_doc):
    """SHA-256 of the canonical delta bytes (byte-identity checks)."""
    return canonical_digest(delta_doc)


def render_delta(delta_doc):
    """Human-readable delta summary."""
    counts = delta_doc["counts"]
    fn_counts = delta_doc["function_counts"]
    lines = [
        "DTaint delta: %s -> %s" % (
            delta_doc["old"]["name"] or delta_doc["old"]["sha256"][:12],
            delta_doc["new"]["name"] or delta_doc["new"]["sha256"][:12],
        ),
        "  functions: %d unchanged, %d body changed, %d callee-closure "
        "changed, %d added, %d removed" % (
            fn_counts["unchanged"], fn_counts["body_changed"],
            fn_counts["callee_changed"], fn_counts["added"],
            fn_counts["removed"],
        ),
        "  vulnerabilities: %d new, %d fixed, %d persisting" % (
            counts["new"], counts["fixed"], counts["persisting"],
        ),
        "  vulnerable paths: %d new, %d fixed, %d persisting" % (
            counts["new_paths"], counts["fixed_paths"],
            counts["persisting_paths"],
        ),
    ]
    for label in ("new", "fixed"):
        for finding in delta_doc["findings"][label]:
            lines.append("  [%s] %s: %s <- %s in %s" % (
                label, finding.get("kind", ""), finding.get("sink_name", ""),
                finding.get("source_name", ""), finding.get("function", ""),
            ))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# End-to-end: scan two ELFs and diff them.


def scan_image(path, config=None, cache_dir=None, member=""):
    """Scan one binary incrementally; returns the delta-ready dict.

    ``path`` may be a bare ELF or a packed firmware image — anything
    without an ELF magic goes through the recursive extractor, and
    ``member`` selects which embedded binary to scan (default: the
    preferred network-facing target), so a delta can compare two
    *image* releases directly.  The scan is an ordinary fleet job run
    through :func:`~repro.pipeline.scheduler.execute_job` on the fleet
    index under ``cache_dir`` (a throwaway directory when ``None``).
    ``config`` may set only ``modules`` and ``alias_engine``, the two
    knobs a job carries.
    """
    if cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="dtaint-delta-") as tmp:
            return scan_image(path, config=config, cache_dir=tmp,
                              member=member)
    from repro.core import DTaintConfig
    from repro.errors import PipelineError
    from repro.pipeline.scheduler import FleetJob, execute_job, job_config

    config = config or DTaintConfig()
    with open(path, "rb") as handle:
        is_elf = handle.read(4) == b"\x7fELF"
    job = FleetJob(
        job_id=path, kind="elf" if is_elf and not member else "firmware",
        path=path, member=member, modules=tuple(config.modules),
        alias_engine=config.alias_engine,
    )
    if job_config(job) != replace(config, modules=job.modules):
        raise PipelineError("delta scans take only modules and "
                            "alias_engine from the config")
    payload = execute_job(job, cache_dir=cache_dir, use_fleet_index=True)
    return {
        "name": payload["name"],
        "sha256": payload["sha256"],
        "findings": canonical_report(payload["report"]),
        "fingerprints": payload["fingerprints"],
        "cache": payload["cache"],
    }


def run_delta(old_path, new_path, config=None, cache_dir=None):
    """Scan both images and return (delta_doc, old_image, new_image).

    Both scans share one fleet index — ``cache_dir``, or a throwaway
    directory when ``None`` — so the new image reuses the summaries
    of every function whose closure the old image already analysed.
    """
    if cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="dtaint-delta-") as tmp:
            return run_delta(old_path, new_path, config=config,
                             cache_dir=tmp)
    old_image = scan_image(old_path, config=config, cache_dir=cache_dir)
    new_image = scan_image(new_path, config=config, cache_dir=cache_dir)
    return compute_delta(old_image, new_image), old_image, new_image
