"""DTaint's core: data-flow identification and vulnerability detection.

Pipeline (paper Fig. 4):

1. function analysis — :mod:`repro.symexec` summaries per function;
2. pointer aliasing — Algorithm 1, behind a selectable engine
   (:mod:`repro.alias`);
3. data-structure layout similarity — Formula 2
   (:mod:`repro.core.structure`) resolving indirect calls;
4. interprocedural data flow — bottom-up definition updating,
   Algorithm 2 (:mod:`repro.core.interproc`);
5. sink/source identification and backward path generation
   (:mod:`repro.core.sinks`, :mod:`repro.core.paths`);
6. sanitization constraint checking (:mod:`repro.core.sanitize`).

:class:`~repro.core.detector.DTaint` wires the stages together.
"""

from repro.core.detector import DTaint, DTaintConfig
from repro.core.report import Finding, Report

__all__ = ["DTaint", "DTaintConfig", "Finding", "Report"]
