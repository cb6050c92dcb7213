"""The paper's Algorithm-1 heuristics behind the engine interface.

Every Formula-1 store is believed: :meth:`query` returns the whole
candidate set, so selecting ``--alias-engine dtaint`` (the default)
is byte-identical to the pre-engine pipeline — the golden-corpus
differential test pins exactly that.
"""

from repro.alias.base import AliasResult, apply_entries, candidate_stores
from repro.profiling import PROFILER


class DTaintAliasEngine:
    """Heuristic base+offset pattern match (paper Algorithm 1)."""

    name = "dtaint"

    def query(self, summary, types):
        candidates = candidate_stores(summary.def_pairs, types)
        return AliasResult(
            engine=self.name, entries=tuple(e for _p, e in candidates)
        )

    def apply(self, summary, types, max_new=512):
        with PROFILER.phase("alias"):
            PROFILER.count("alias_queries")
            entries = self.query(summary, types).entries
            return apply_entries(summary, entries, max_new)
