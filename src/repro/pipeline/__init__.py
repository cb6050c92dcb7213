"""Fleet-scale orchestration over the DTaint pipeline.

The paper evaluates DTaint one image at a time; its workload is a
6,529-image corpus.  This package closes that gap:

* :mod:`repro.pipeline.scheduler` — a multiprocessing scheduler with
  per-job timeout, bounded retry, and crash quarantine;
* :mod:`repro.pipeline.cache` — content-addressed stores for
  per-function summaries and whole reports, keyed by
  ``(binary-sha256, function-addr, config-fingerprint)``;
* :mod:`repro.pipeline.telemetry` — structured JSONL run events and
  the end-of-run summary table;
* :mod:`repro.pipeline.results` — canonical per-image findings, the
  fleet-level rollup, and the JSON run directory's one writer and one
  reader.

The fault-injection entry points the chaos suite and ``--inject`` use
are re-exported from :mod:`repro.faultinject`, which sits below this
package because its probes are compiled into the analysis layers.
"""

from repro.faultinject import (
    FaultInjector,
    FaultSpec,
    injected,
    pick_target,
)
from repro.pipeline.cache import (
    ReportCache,
    SummaryCache,
    binary_sha256,
    collect_garbage,
    report_fingerprint,
    summary_fingerprint,
)
from repro.pipeline.results import (
    canonical_report,
    findings_fingerprint,
    image_document,
    read_run_dir,
    rollup_document,
    write_run_dir,
)
from repro.pipeline.scheduler import (
    FleetJob,
    FleetScheduler,
    JobResult,
    execute_job,
)
from repro.pipeline.telemetry import (
    Telemetry,
    read_events,
    render_fleet_summary,
)
from repro.pipeline.workerpool import PoolWorker, WorkerPool

__all__ = [
    "FleetJob", "FleetScheduler", "JobResult", "execute_job",
    "WorkerPool", "PoolWorker",
    "SummaryCache", "ReportCache", "binary_sha256",
    "summary_fingerprint", "report_fingerprint", "collect_garbage",
    "Telemetry", "read_events", "render_fleet_summary",
    "canonical_report", "findings_fingerprint",
    "image_document", "rollup_document", "read_run_dir", "write_run_dir",
    "FaultInjector", "FaultSpec", "injected", "pick_target",
]
