"""Deterministic, seedable in-analysis fault injection.

The analysis layers carry fixed **probe points** — one ``check(site,
target)`` call per isolation boundary (per function, per file).  With
no injector installed a probe is a single global read, so production
runs pay nothing.  Chaos tests install a :class:`FaultInjector` built
from :class:`FaultSpec` records; when a probe's ``(site, target)``
matches an armed spec the corresponding typed fault from
:mod:`repro.errors` is raised *at that exact point*, exercising the
same degradation paths a real decode bug or malformed file would.

Probe sites
-----------

======================  ============================  ==================
site                    target                        faults
======================  ============================  ==================
``cfg``                 function name                 decode, lift
``cfg.lift``            function name                 lift (mid-build)
``symexec``             function name                 symexec
``symexec.deadline``    function name                 deadline
``interproc``           function name                 symexec
``detect``              function name                 symexec
``loader``              file label (may be empty)     malformed, sigstop
``firmware.unpack``     file label (may be empty)     malformed
``firmware.file``       filesystem path               malformed
``results``             output file basename          malformed
``service.claim``       claimed queue job ids         kill9
``service.dispatch``    queue job id                  kill9
``service.publish``     queue job id                  kill9
``service.api``         request path                  disconnect
======================  ============================  ==================

Beyond the typed exception faults there are three **action faults**
for service chaos: ``kill9`` delivers an un-catchable ``SIGKILL`` to
the current process at the probe (modelling a daemon killed mid-claim
/ mid-publish), ``disconnect`` raises ``ConnectionResetError``
(modelling a client connection torn mid-response), and ``sigstop``
freezes the current process with ``SIGSTOP`` until someone sends it
``SIGCONT`` (a worker held mid-job for exactly as long as a test
needs, with no timing involved).  All fire through the same
spec/shots machinery, so a chaos sweep arms them exactly like any
analysis fault.

Determinism: a spec either names its target exactly or uses ``*``
(first eligible probe at that site).  :func:`pick_target` maps an
integer seed onto a candidate list, so a CI sweep over seeds walks the
corpus deterministically — same seed, same victim, same degraded
output, every run.

Spec string form (CLI / :class:`~repro.pipeline.scheduler.FleetJob`):
``fault@site:target``, e.g. ``decode@cfg:handle_request`` or
``malformed@firmware.file:/bin/httpd``.
"""

import os
import signal
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceeded,
    DecodeFault,
    LiftFault,
    MalformedInput,
    ResourceExhausted,
    SymexecFault,
)

FAULT_CLASSES = {
    "decode": DecodeFault,
    "lift": LiftFault,
    "symexec": SymexecFault,
    "deadline": DeadlineExceeded,
    "malformed": MalformedInput,
    "resource": ResourceExhausted,
}

# Action faults do something to the process instead of raising a typed
# analysis error: service chaos points.
ACTION_FAULTS = ("kill9", "disconnect", "sigstop")

MATCH_ANY = "*"


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: which type, at which probe, hitting what."""

    fault: str                 # key into FAULT_CLASSES
    site: str                  # probe site name
    target: str = MATCH_ANY    # exact target, or '*' for first eligible

    def __post_init__(self):
        if self.fault not in FAULT_CLASSES and self.fault not in ACTION_FAULTS:
            raise ValueError(
                "unknown fault %r (choices: %s)"
                % (self.fault,
                   ", ".join(sorted(FAULT_CLASSES) + sorted(ACTION_FAULTS)))
            )

    @classmethod
    def parse(cls, text):
        """Parse the ``fault@site:target`` string form."""
        head, _, target = text.partition(":")
        fault, sep, site = head.partition("@")
        if not sep or not fault or not site:
            raise ValueError(
                "bad fault spec %r (expected fault@site[:target])" % text
            )
        return cls(fault=fault, site=site, target=target or MATCH_ANY)

    def describe(self):
        return "%s@%s:%s" % (self.fault, self.site, self.target)


@dataclass
class FiredFault:
    """A record of one injection that actually happened."""

    spec: FaultSpec
    target: str
    count: int = 1


class FaultInjector:
    """Matches probe calls against armed specs and raises typed faults.

    Each spec fires at most ``shots`` times (default once), so a fault
    degrades exactly its target and the rest of the run proceeds
    clean.  ``fired`` keeps the audit trail the chaos tests assert on.
    """

    def __init__(self, specs, shots=1):
        self.specs = [
            FaultSpec.parse(s) if isinstance(s, str) else s for s in specs
        ]
        self.shots = shots
        self._remaining = {spec: shots for spec in self.specs}
        self.fired = []

    @classmethod
    def parse(cls, spec_strings, shots=1):
        return cls([FaultSpec.parse(s) for s in spec_strings], shots=shots)

    def check(self, site, target=""):
        for spec in self.specs:
            if spec.site != site or self._remaining[spec] <= 0:
                continue
            if spec.target != MATCH_ANY and spec.target != target:
                continue
            self._remaining[spec] -= 1
            self.fired.append(
                FiredFault(spec=spec, target=target or spec.target)
            )
            if spec.fault == "kill9":
                # Un-catchable hard death at this exact point: the
                # chaos harness asserts durable state recovers.
                os.kill(os.getpid(), signal.SIGKILL)
            if spec.fault == "sigstop":
                os.kill(os.getpid(), signal.SIGSTOP)
                return
            if spec.fault == "disconnect":
                raise ConnectionResetError(
                    "injected dropped connection at %s" % site
                )
            raise FAULT_CLASSES[spec.fault](
                "injected %s fault at %s" % (spec.fault, site),
                **_fault_kwargs(spec.fault, target),
            )

    def fired_specs(self):
        return [f.spec.describe() for f in self.fired]


def _fault_kwargs(fault, target):
    if fault == "malformed":
        return {"path": target or None}
    return {"function": target or None}


# ---------------------------------------------------------------------------
# Process-global installation.  Workers are separate processes, so one
# slot per process is exactly one slot per analysis.

_ACTIVE = None


def install(injector):
    """Arm ``injector`` for this process; returns it."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall():
    global _ACTIVE
    _ACTIVE = None


def active():
    return _ACTIVE


def check(site, target=""):
    """Probe call; no-op unless an injector is installed."""
    if _ACTIVE is not None:
        _ACTIVE.check(site, target)


class injected:
    """``with injected(["decode@cfg:f3"]):`` — scoped installation."""

    def __init__(self, specs, shots=1):
        self.injector = (
            specs if isinstance(specs, FaultInjector)
            else FaultInjector(specs, shots=shots)
        )

    def __enter__(self):
        return install(self.injector)

    def __exit__(self, *exc):
        uninstall()


def pick_target(candidates, seed):
    """Deterministic seeded choice: seed ``k`` -> the ``k mod n``-th
    candidate in sorted order.  The chaos sweep maps its seed range
    onto functions/files with this, so every seed names one victim and
    the full sweep covers the corpus."""
    ordered = sorted(candidates)
    if not ordered:
        raise ValueError("no candidates to pick a fault target from")
    return ordered[seed % len(ordered)]
