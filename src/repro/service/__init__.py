"""DTaint-as-a-service: the persistent analysis daemon.

The paper's fleet (1,463 firmware images, 3.8M functions) is a
sustained workload, not a one-shot CLI run.  This package turns the
pipeline into a long-running service:

* :mod:`repro.service.store` — the results store: one WAL-mode sqlite
  file holding runs, per-image canonical findings (indexed), coverage,
  auxiliary documents, the durable job queue and the mirrored
  telemetry stream; lossless migration to/from the JSON run directory;
* :mod:`repro.service.queue` — the durable queue: priorities,
  idempotent submission keyed by image+config fingerprint, crash-safe
  resume;
* :mod:`repro.service.daemon` — the orchestration core: a dispatcher
  thread that refills each free slot of the persistent warm worker
  pool from the queue and publishes each job transactionally;
* :mod:`repro.service.api` — the REST/JSON frontend (stdlib
  ``http.server``);
* :mod:`repro.service.client` — the urllib client behind
  ``dtaint client`` and ``fleet-scan --server``.

Every frontend (CLI, REST, in-process embedding) drives the same
:class:`AnalysisDaemon`, and service runs carry the same
byte-identical canonical-findings fingerprints as in-process
``fleet-scan`` runs.
"""

from repro.service.client import ServiceClient, ServiceError, ServiceTimeout
from repro.service.daemon import (
    AnalysisDaemon,
    fleet_job_from_spec,
    verify_roundtrip,
)
from repro.service.queue import (
    CANCELLED,
    DEAD,
    DONE,
    FAILED,
    PENDING,
    POISON_ERROR_TYPES,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    JobQueue,
    dedup_key,
    job_spec,
)
from repro.service.store import (
    DB_FILENAME,
    SCHEMA_VERSION,
    ResultsDB,
    default_db_path,
    export_run_dir,
    migrate_output_dir,
)

try:
    from repro.service.api import ServiceServer, serve
except ImportError:                  # pragma: no cover - no http.server
    ServiceServer = serve = None

__all__ = [
    "AnalysisDaemon", "fleet_job_from_spec", "verify_roundtrip",
    "JobQueue", "job_spec", "dedup_key",
    "PENDING", "RUNNING", "DONE", "FAILED", "CANCELLED", "DEAD",
    "STATES", "TERMINAL_STATES", "POISON_ERROR_TYPES",
    "ResultsDB", "migrate_output_dir", "export_run_dir",
    "default_db_path", "DB_FILENAME", "SCHEMA_VERSION",
    "ServiceClient", "ServiceError", "ServiceTimeout",
    "ServiceServer", "serve",
]
