"""Incremental fleet analysis: dedup by content, re-analyse by delta.

DTaint's fleet workload (6,529 crawled images) is massively redundant
— the same binaries recur across products and firmware versions — yet
a per-binary cache re-keys everything on a one-byte rebuild.  This
package recognises redundancy across images:

* :mod:`repro.increment.fingerprint` — position-independent canonical
  IR fingerprints and Merkle-style callee-closure hashes;
* :mod:`repro.increment.index` — the content-addressed fleet store
  (closure fingerprint -> summary, image fingerprint -> findings);
* :mod:`repro.increment.relocate` — rebase a cached summary onto a
  new address layout;
* :mod:`repro.increment.reuse` — the fleet-index summary store the
  detector binds to in fleet-index runs;
* :mod:`repro.increment.delta` — firmware-version delta reports
  (``dtaint delta``): function and finding classification.
"""

from repro.increment.delta import (
    classify_findings,
    classify_functions,
    compute_delta,
    delta_fingerprint,
    render_delta,
    run_delta,
    scan_image,
)
from repro.increment.fingerprint import (
    FunctionFingerprint,
    fingerprint_functions,
    image_fingerprint,
)
from repro.increment.index import FleetIndex
from repro.increment.relocate import (
    relocate_summary,
    stray_addresses,
    strays_compatible,
)
from repro.increment.reuse import (
    IncrementalSummaryCache,
    open_incremental_cache,
)

__all__ = [
    "FunctionFingerprint", "fingerprint_functions", "image_fingerprint",
    "FleetIndex", "relocate_summary", "stray_addresses",
    "strays_compatible",
    "IncrementalSummaryCache", "open_incremental_cache",
    "classify_functions", "classify_findings", "compute_delta",
    "delta_fingerprint", "render_delta", "run_delta", "scan_image",
]
