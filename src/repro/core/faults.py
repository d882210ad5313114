"""Deterministic fault injection for the sharded pipelines.

The fault-tolerance layer (checkpoint/resume, shard retry, serving
drain) is only trustworthy if its failure paths are exercised the same
way every run.  This module provides that substrate: a
:class:`FaultPlan` compiled from a compact spec string (the
``REPRO_FAULTS`` environment variable or the ``--inject-faults`` CLI
flag) that the executor and its workers consult at stage boundaries.

Spec grammar (comma- or whitespace-separated entries)::

    SITE:INDEX:ACTION[=VALUE][:xTIMES]

    shard:3:crash          raise InjectedFault at shard occurrence 3
    shard:5:slow=2.0       sleep 2 s at shard occurrence 5
    shard:1:kill           SIGKILL the worker at shard occurrence 1
    export:2:ioerror       raise OSError(ENOSPC), disk full, on the 3rd
                           export file write
    property:0:crash:x2    crash property occurrence 0 on its first 2 runs

Sites map to pipeline stages: ``count`` / ``property`` / ``structure``
/ ``match`` fire at the matching stage, ``shard`` at any pool-executed
shard job, ``ledger`` in the parent before each append to the spool's
catalog (the window between a part file landing and its ack),
``spill`` before each scratch file a spool starts (a sorted run, a
spilled structure or matching map) and ``export`` at each write.  The
index is fixed by the plan, never by arrival: ``export`` counts
writes; elsewhere the ``j``-th occurrence of the plan's ``n``-th of
``T`` tasks at the site — its shard, catalog event or scratch file —
is ``n + j * T`` (:func:`repro.core.tasks.site_numbers`).

Every fault fires a bounded number of times (default once) and the
fired-state lives in small append-only files under a state directory,
not in memory — so a fault that kills a worker stays fired across the
pool respawn and across a ``--resume`` of the same plan, which is what
makes retry/resume tests deterministic.  Plans pickle as (spec text,
state dir) and the executor installs the active plan in a module
global before the worker pool forks, so forked workers inherit it.
"""

from __future__ import annotations

import errno
import os
import re
import shutil
import signal
import tempfile
import time

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "fire",
    "fire_occurrence",
    "install_plan",
    "parse_faults",
    "plan_from_env",
    "wrap_export_handle",
]

#: Stage boundaries that consult the plan.  ``shard`` is the generic
#: site: it matches any pool-executed shard job, numbered by the plan.
FAULT_SITES = (
    "count", "property", "structure", "match", "export", "ledger", "spill",
    "shard",
)

FAULT_ACTIONS = ("crash", "kill", "slow", "ioerror")

ENV_FAULTS = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_STATE"

_SPEC_RE = re.compile(
    r"^(?P<site>[a-z]+):(?P<index>\d+):(?P<action>[a-z]+)"
    r"(?:=(?P<value>[0-9.]+))?(?::x(?P<times>\d+))?$"
)


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault — a stand-in for an arbitrary
    worker/stage exception in tests and chaos runs."""


class FaultSpec:
    """One parsed fault: fire ``action`` at ``site`` occurrence
    ``index``, at most ``times`` times."""

    __slots__ = ("site", "index", "action", "value", "times")

    def __init__(self, site, index, action, value=0.0, times=1):
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; expected one of {FAULT_SITES}"
            )
        if action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if action == "slow" and value <= 0:
            raise ValueError("slow faults need a positive =SECONDS value")
        self.site = site
        self.index = int(index)
        self.action = action
        self.value = float(value)
        self.times = int(times)
        if self.times < 1:
            raise ValueError("fault times must be >= 1")

    @property
    def tag(self):
        """Stable filename-safe identity used for fired-state files."""
        return f"{self.site}.{self.index}.{self.action}"

    def text(self):
        """Round-trip back to spec-grammar text."""
        out = f"{self.site}:{self.index}:{self.action}"
        if self.action == "slow":
            out += f"={self.value:g}"
        if self.times != 1:
            out += f":x{self.times}"
        return out

    def __repr__(self):  # pragma: no cover - debug aid
        return f"FaultSpec({self.text()!r})"


def parse_faults(text):
    """Parse a spec string into a tuple of :class:`FaultSpec`.

    >>> [s.text() for s in parse_faults("shard:3:crash, export:2:ioerror")]
    ['shard:3:crash', 'export:2:ioerror']
    >>> parse_faults("shard:5:slow=2.0")[0].value
    2.0
    """
    specs = []
    for token in re.split(r"[,\s]+", (text or "").strip()):
        if not token:
            continue
        match = _SPEC_RE.match(token)
        if match is None:
            raise ValueError(
                f"bad fault spec {token!r}; expected "
                "SITE:INDEX:ACTION[=VALUE][:xTIMES] "
                "like 'shard:3:crash' or 'shard:5:slow=2.0'"
            )
        specs.append(FaultSpec(
            match.group("site"),
            int(match.group("index")),
            match.group("action"),
            float(match.group("value") or 0.0),
            int(match.group("times") or 1),
        ))
    return tuple(specs)


class FaultPlan:
    """A compiled set of faults plus their cross-process fired-state.

    The fired counter for each fault is the *size in bytes* of an
    append-only file under ``state_dir`` — appends of one byte are
    atomic, so concurrent workers and respawned pools agree on how
    many times a fault has fired without any locking.
    """

    def __init__(self, specs, state_dir=None):
        if isinstance(specs, str):
            specs = parse_faults(specs)
        self.specs = tuple(specs)
        self._owns_state = False
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-faults-")
            self._owns_state = True
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self._sites = frozenset(spec.site for spec in self.specs)

    @property
    def text(self):
        return ",".join(spec.text() for spec in self.specs)

    def has_site(self, site):
        return site in self._sites

    # -- fired-state ------------------------------------------------------

    def _claim(self, spec):
        """Record one firing; True while the fault still has shots."""
        path = os.path.join(self.state_dir, spec.tag + ".fired")
        with open(path, "ab") as handle:
            handle.write(b"x")
            handle.flush()
            fired = handle.tell()
        return fired <= spec.times

    def fired_count(self, spec):
        path = os.path.join(self.state_dir, spec.tag + ".fired")
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def reset(self):
        """Forget all fired-state (a fresh chaos round)."""
        for name in os.listdir(self.state_dir):
            if name.endswith(".fired"):
                os.unlink(os.path.join(self.state_dir, name))

    def cleanup(self):
        if self._owns_state:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    # -- firing -----------------------------------------------------------

    def fire(self, site, index):
        """Trigger any matching fault for occurrence ``index`` of
        ``site``.  Crash/ioerror faults raise; kill SIGKILLs the
        current process; slow sleeps."""
        if site not in self._sites:
            return
        index = int(index)
        for spec in self.specs:
            if spec.site != site or spec.index != index:
                continue
            if not self._claim(spec):
                continue
            if spec.action == "crash":
                raise InjectedFault(
                    f"injected fault {spec.text()!r} at {site}:{index}"
                )
            if spec.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if spec.action == "ioerror":
                raise OSError(
                    errno.ENOSPC,
                    f"injected I/O fault {spec.text()!r} at {site}:{index}"
                )
            if spec.action == "slow":
                time.sleep(spec.value)

    # -- pickling (workers get (text, state_dir), never owning state) -----

    def __getstate__(self):
        return {"text": self.text, "state_dir": self.state_dir}

    def __setstate__(self, state):
        self.specs = parse_faults(state["text"])
        self.state_dir = state["state_dir"]
        self._owns_state = False
        self._sites = frozenset(spec.site for spec in self.specs)


def plan_from_env(environ=None):
    """Compile a plan from ``REPRO_FAULTS`` (state dir from
    ``REPRO_FAULTS_STATE`` if set); None when the variable is unset
    or empty."""
    environ = os.environ if environ is None else environ
    text = environ.get(ENV_FAULTS, "").strip()
    if not text:
        return None
    return FaultPlan(text, state_dir=environ.get(ENV_STATE) or None)


def as_plan(faults):
    """Coerce a spec string / FaultPlan / None; None falls back to the
    environment so chaos harnesses can inject into any entry point."""
    if faults is None:
        return plan_from_env()
    if isinstance(faults, FaultPlan):
        return faults
    return FaultPlan(faults)


# -- the active plan ----------------------------------------------------------
#
# Installed by the executor for the duration of a run.  A module global
# (not an argument threaded through every stage) because forked pool
# workers must inherit it and the fast path — no plan installed — must
# cost one attribute load.

_ACTIVE = None


def install_plan(plan):
    """Install ``plan`` as the active plan; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def fire(site, index):
    """Stage-boundary hook: no-op unless a plan is active and matches."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site, index)


def fire_occurrence(site, number, j=0):
    """:func:`fire` the ``j``-th occurrence of a task the plan numbers
    ``(n, tasks)`` at ``site``: index ``n + j * tasks``."""
    n, tasks = number
    fire(site, n + j * tasks)


class _ExportHandle:
    """Write-path wrapper firing the ``export`` site once per write
    call (the occurrence counter is plan-global, so ``export:N``
    addresses the N-th formatted chunk written this run)."""

    def __init__(self, handle, plan):
        self._handle = handle
        self._plan = plan

    def write(self, text):
        self._plan.fire("export", _next_export_index(self._plan))
        return self._handle.write(text)

    def __enter__(self):
        self._handle.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _next_export_index(plan):
    """Per-plan export write counter, persisted like fired-state so it
    survives a resume of the same plan only within one process run."""
    counter = getattr(plan, "_export_counter", None)
    if counter is None:
        counter = [0]
        plan._export_counter = counter
    index = counter[0]
    counter[0] += 1
    return index


def wrap_export_handle(handle):
    """Wrap a text write handle with the export fault site; the
    identity function when no active plan targets ``export``."""
    plan = _ACTIVE
    if plan is None or not plan.has_site("export"):
        return handle
    return _ExportHandle(handle, plan)
