"""Selectable alias-analysis engines behind a common interface.

``get_engine("dtaint")`` is the paper's Algorithm-1 heuristics (the
default, byte-identical to the historical pipeline); ``get_engine
("sse")`` is the sparse-symbolic-execution engine from the authors'
follow-up paper.  ``base.py`` holds what both engines share (the
Algorithm-1 candidate filter and rewrite) and the registry;
``compare.py`` is the precision/recall/runtime showdown harness.
"""

from repro.alias.base import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    AliasResult,
    get_engine,
)

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "AliasResult",
    "get_engine",
]
