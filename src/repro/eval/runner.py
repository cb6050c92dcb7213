"""Shared evaluation context: builds firmware once, runs DTaint once.

The benchmarks all need the same expensive artefacts (built firmware
images, detection reports); :class:`EvalContext` caches them for the
lifetime of the process so every table/figure bench can run in one
pytest invocation without rebuilding six binaries each.
"""

import os
from dataclasses import dataclass, field

from repro.core import DTaint, DTaintConfig
from repro.corpus.profiles import (
    PROFILES,
    PROFILE_ORDER,
    analyzed_module_prefixes,
    build_firmware,
)

DEFAULT_SCALE = 0.25


def get_scale():
    """Evaluation scale from ``REPRO_SCALE`` (default 0.25).

    1.0 reproduces Table II's function counts exactly; smaller values
    shrink the generated images proportionally (planted vulnerabilities
    are never scaled away).
    """
    raw = os.environ.get("REPRO_SCALE", "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_SCALE
    return min(max(value, 0.01), 1.0)


@dataclass
class EvalContext:
    scale: float = None
    _built: dict = field(default_factory=dict)
    _detectors: dict = field(default_factory=dict)
    _reports: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scale is None:
            self.scale = get_scale()

    def built(self, key):
        if key not in self._built:
            self._built[key] = build_firmware(key, scale=self.scale)
        return self._built[key]

    def detector(self, key):
        if key not in self._detectors:
            built = self.built(key)
            config = DTaintConfig(modules=analyzed_module_prefixes(key))
            self._detectors[key] = DTaint(
                built.binary, config=config,
                name=PROFILES[key].binary_name,
            )
        return self._detectors[key]

    def report(self, key):
        if key not in self._reports:
            self._reports[key] = self.detector(key).run()
        return self._reports[key]


_SHARED = None


def shared_context():
    """Process-wide cached context (used by the benchmarks)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = EvalContext()
    return _SHARED
