"""The correctness gate: every check raises :class:`GateError`.

A benchmark number is only reported for outputs that are right, so
each workload iteration passes its results through one of these
checks and the run exits nonzero on the first wrong answer.
"""


class GateError(AssertionError):
    """A workload produced a wrong output."""


def require(condition, message):
    if not condition:
        raise GateError(message)


def check_fingerprints(references, observed, what="job"):
    """Every reference job finished with exactly its reference
    ``findings_sha256``; ``observed`` maps job -> sha (``None`` when
    the job failed)."""
    missing = sorted(set(references) - set(observed))
    require(not missing, "%d %s(s) never finished, e.g. %s"
            % (len(missing), what, missing[:3]))
    wrong = sorted(name for name, sha in observed.items()
                   if references.get(name) != sha)
    require(not wrong, "%d %s(s) differ from the in-process reference, "
            "e.g. %s" % (len(wrong), what, wrong[:3]))


def check_members(references, members, observed, served):
    """:func:`check_fingerprints` for fleet member jobs.

    ``members`` maps job -> sha256 of its extracted ELF, ``observed``
    job -> ``(member sha, findings sha)`` and ``served`` is the set of
    jobs answered from the report cache.  The report cache is keyed by
    the member's bytes, so a served job carries the report, and with
    it the ``binary`` name, of the job with the same bytes whose
    analysis filled the cache (DESIGN.md, "Extraction": one analysis,
    byte-identical findings).  A served job must therefore match the
    in-process reference of a job with its bytes; every other job must
    match its own."""
    missing = sorted(set(references) - set(observed))
    require(not missing, "%d job(s) never finished, e.g. %s"
            % (len(missing), missing[:3]))
    wrong_member = sorted(name for name, (member, _sha) in observed.items()
                          if members.get(name) != member)
    require(not wrong_member, "%d job(s) analysed another member than "
            "the in-process reference, e.g. %s"
            % (len(wrong_member), wrong_member[:3]))
    wrong = []
    for name, (member, sha) in observed.items():
        if name in served:
            allowed = {references[other] for other in references
                       if members[other] == member}
        else:
            allowed = {references[name]}
        if sha not in allowed:
            wrong.append(name)
    require(not wrong, "%d job(s) differ from the in-process reference, "
            "e.g. %s" % (len(wrong), sorted(wrong)[:3]))


def check_ground_truth(image, report, binary):
    """Each planted label is found (vulnerable) or not (sanitized),
    and the distinct vulnerabilities match the paper's count."""
    for function, vulnerable in image["labels"]:
        symbol = binary.functions.get(function)
        require(symbol is not None, "%s: no symbol %s"
                % (image["key"], function))
        low, high = symbol.addr, symbol.addr + symbol.size
        hit = any(low <= f.sink_addr < high for f in report.vulnerable_paths)
        require(hit == vulnerable, "%s: %s should be %s"
                % (image["key"], function,
                   "found" if vulnerable else "clean"))
    require(len(report.vulnerabilities) == image["vulnerabilities"],
            "%s: %d vulnerabilities, ground truth %d"
            % (image["key"], len(report.vulnerabilities),
               image["vulnerabilities"]))


def check_rescan(pair, unchanged, patched, delta, closure, known):
    """Unchanged rescans reproduce the cold findings without symbolic
    execution.  A patched rescan reports exactly one fix, whose sink
    lies in a function whose body the patch changed, and symbolically
    executes exactly the changed functions whose closure fingerprint
    the index does not hold yet (``known``: closures stored before
    this image; equal closures dedup)."""
    key = pair["key"]
    require(unchanged["sha256"] == pair["cold_sha256"],
            "%s: unchanged rescan changed the findings" % key)
    require(unchanged["symexec"] == 0, "%s: unchanged rescan ran %d "
            "symbolic executions" % (key, unchanged["symexec"]))
    counts = delta["counts"]
    require(counts["fixed"] == 1 and counts["new"] == 0,
            "%s: delta fixed=%d new=%d, expected 1 and 0"
            % (key, counts["fixed"], counts["new"]))
    sink = delta["findings"]["fixed"][0]["sink_addr"]
    owner = [name for name, (addr, size) in pair["old_functions"].items()
             if addr <= sink < addr + size]
    require(owner and owner[0] in closure["body_changed"],
            "%s: the fixed sink 0x%x lies in %s, not in a function the "
            "patch changed" % (key, sink, owner or "no function"))
    changed = (closure["body_changed"] + closure["callee_changed"]
               + closure["added"])
    fresh = {patched["fingerprints"][name]["closure"]
             for name in changed} - set(known)
    require(patched["symexec"] == len(fresh), "%s: patched rescan ran %d "
            "symbolic executions, %d changed closures are new"
            % (key, patched["symexec"], len(fresh)))
