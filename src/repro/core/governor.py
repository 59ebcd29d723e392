"""Per-query resource governance: budgets, deadlines, cancellation.

The paper warns that DUEL expressions are arbitrarily expensive —
``1..`` and ``while(1) x++`` are runaway generators — and relies on
"the standard gdb ^C interrupt" to stop them.  A production-scale
query service needs the same property as a first-class subsystem:
every query runs under a :class:`ResourceGovernor` that owns all
per-query limits and a cooperative :class:`CancelToken`, and decides
*how* exhaustion surfaces:

``raise``
    the historical behaviour — abort the query with a
    :class:`~repro.core.errors.DuelEvalLimit` (side-effecting queries
    are rolled back by the session);

``truncate``
    stop driving, keep every value already produced, and let the
    display layer emit one paper-style diagnostic line, e.g.::

        (stopped: 10000 values, step budget exhausted; raise with 'limits steps 20000000')

The governor is threaded through both evaluation engines (the
generator :class:`~repro.core.eval.Evaluator` and the paper's explicit
:class:`~repro.core.statemachine.StateMachineEvaluator`), the session
drive/print loop, and the debugger-interface boundary
(:class:`~repro.target.interface.TargetPort`), so the two engines
trip identical budgets at identical counts and a ^C lands between
target operations as well as between generator steps.

Governed resources (the ``limits`` REPL command uses these names):

========== ======================================================
name        meaning
========== ======================================================
steps       generator steps (one per value any node produces)
expand      nodes expanded per ``-->`` / ``==>`` walk
deadline_ms per-query wall-clock deadline, in milliseconds
lines       output values printed per query
calls       target function calls per query
allocs      target scratch allocations per query
symnodes    symbolic derivation nodes built per query (off by default)
========== ======================================================
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.errors import DuelCancelled, DuelEvalLimit, DuelTruncation

_UNLIMITED = float("inf")

#: Default per-query limits (None disables a limit entirely).
DEFAULT_LIMITS: dict[str, Optional[int]] = {
    "steps": 10_000_000,
    "expand": 1_000_000,
    "deadline_ms": 30_000,
    "lines": 10_000,
    "calls": 100_000,
    "allocs": 100_000,
    "symnodes": None,
}

#: Default exhaustion policies.  Pure evaluation budgets degrade
#: gracefully (truncate: partial results stand, as under the paper's
#: ^C); target-side quotas abort (raise) so the session's rollback
#: machinery undoes a half-applied mutation storm.
DEFAULT_POLICIES: dict[str, str] = {
    "steps": "truncate",
    "expand": "truncate",
    "deadline_ms": "truncate",
    "lines": "truncate",
    "calls": "raise",
    "allocs": "raise",
    "symnodes": "truncate",
}

#: Counter attribute backing each limit (deadline_ms has none).
_COUNTERS: dict[str, str] = {
    "steps": "steps",
    "expand": "expands",
    "lines": "lines",
    "calls": "calls",
    "allocs": "allocs",
    "symnodes": "symnodes",
}


class CancelToken:
    """Cooperative cancellation flag, safe to trip from a signal handler.

    Tripping only sets a flag; the governor notices at its next
    checkpoint and raises :class:`~repro.core.errors.DuelCancelled`,
    which the drive loop turns into partial results plus a
    ``(stopped: ... interrupted)`` line — the paper's ^C behaviour.
    """

    __slots__ = ("tripped", "reason")

    def __init__(self) -> None:
        self.tripped = False
        self.reason: Optional[str] = None

    def trip(self, reason: str = "interrupt") -> None:
        """Request cancellation (idempotent; signal-handler safe)."""
        self.reason = reason
        self.tripped = True

    def clear(self) -> None:
        self.tripped = False
        self.reason = None


class ResourceGovernor:
    """Owns every per-query limit, counter, and the cancel token.

    Hot-path contract: :meth:`step` is called once per value any node
    produces (both engines), so it is a handful of attribute ops; the
    wall clock and the cancel token are only consulted every
    ``CHECK_EVERY`` steps and at explicit :meth:`checkpoint` calls
    (per output line, per target call).
    """

    #: Steps between deadline/cancellation checks (power of two).
    CHECK_EVERY = 256

    __slots__ = ("limits", "policies", "token", "steps", "expands",
                 "lines", "calls", "allocs", "symnodes", "_t0",
                 "_deadline", "_finished", "_max_steps", "_max_symnodes",
                 "_next_check")

    def __init__(self, limits: Optional[dict] = None,
                 policies: Optional[dict] = None):
        self.limits = dict(DEFAULT_LIMITS)
        self.policies = dict(DEFAULT_POLICIES)
        self.token = CancelToken()
        self.steps = 0
        self.expands = 0
        self.lines = 0
        self.calls = 0
        self.allocs = 0
        self.symnodes = 0
        self._t0 = time.monotonic()
        self._deadline: Optional[float] = None
        self._finished: Optional[float] = None
        self._refresh()
        if limits:
            for name, value in limits.items():
                self.set_limit(name, value)
        if policies:
            for name, policy in policies.items():
                self.set_policy(name, policy)

    # -- configuration -----------------------------------------------------
    def set_limit(self, name: str, value: Optional[int]) -> None:
        """Set one limit; ``None`` or a non-positive value disables it."""
        if name not in DEFAULT_LIMITS:
            raise ValueError(f"unknown limit {name!r} "
                             f"(know: {', '.join(DEFAULT_LIMITS)})")
        if value is not None:
            value = int(value)
            if value <= 0:
                value = None
        self.limits[name] = value
        self._refresh()
        if name == "deadline_ms":
            self._stamp_deadline()

    def set_policy(self, name: str, policy: str) -> None:
        """Set one limit's exhaustion policy: ``raise`` or ``truncate``."""
        if name not in DEFAULT_LIMITS:
            raise ValueError(f"unknown limit {name!r}")
        if policy not in ("raise", "truncate"):
            raise ValueError(f"unknown policy {policy!r} "
                             "(know: raise, truncate)")
        self.policies[name] = policy

    def _refresh(self) -> None:
        """Cache the hot-path thresholds as plain comparands."""
        steps = self.limits["steps"]
        self._max_steps = _UNLIMITED if steps is None else steps
        symnodes = self.limits["symnodes"]
        self._max_symnodes = _UNLIMITED if symnodes is None else symnodes
        self._schedule_check()

    def _schedule_check(self) -> None:
        """Recompute the next step count that needs the slow path: the
        nearer of the step limit and the next CHECK_EVERY boundary."""
        every = self.CHECK_EVERY
        boundary = self.steps - (self.steps % every) + every
        self._next_check = min(self._max_steps + 1, boundary)

    def _stamp_deadline(self) -> None:
        deadline_ms = self.limits["deadline_ms"]
        self._deadline = (None if deadline_ms is None
                          else self._t0 + deadline_ms / 1000.0)

    # -- query lifecycle ---------------------------------------------------
    def begin_query(self) -> None:
        """Zero the counters, clear the token, stamp the deadline."""
        self.steps = 0
        self.expands = 0
        self.lines = 0
        self.calls = 0
        self.allocs = 0
        self.symnodes = 0
        self.token.clear()
        self._t0 = time.monotonic()
        self._finished = None
        self._stamp_deadline()
        self._schedule_check()

    def end_query(self) -> None:
        """Freeze the wall clock for post-query stats reporting."""
        self._finished = time.monotonic()

    def elapsed_ms(self) -> float:
        """Wall-clock milliseconds since the current query began."""
        end = self._finished if self._finished is not None \
            else time.monotonic()
        return (end - self._t0) * 1000.0

    # -- hot-path charging -------------------------------------------------
    def step(self) -> None:
        """Charge one generator step (called once per value produced).

        The generator engine inlines this increment-and-compare in
        ``Evaluator._counted`` to keep a method call off the hot path;
        both funnel into :meth:`step_check` at the same counts.
        """
        n = self.steps + 1
        self.steps = n
        if n >= self._next_check:
            self.step_check()

    def step_check(self) -> None:
        """Slow path, reached every CHECK_EVERY steps and exactly once
        past the step limit: enforce the budget, poll the token and the
        deadline, schedule the next check."""
        if self.steps > self._max_steps:
            self._exhaust("steps")
        self.checkpoint()
        self._schedule_check()

    def sym_node(self) -> None:
        """Charge one symbolic derivation node."""
        n = self.symnodes + 1
        self.symnodes = n
        if n > self._max_symnodes:
            self._exhaust("symnodes")

    def charge(self, name: str, amount: int = 1) -> None:
        """Charge ``amount`` against the named quota."""
        attr = _COUNTERS[name]
        total = getattr(self, attr) + amount
        setattr(self, attr, total)
        limit = self.limits[name]
        if limit is not None and total > limit:
            self._exhaust(name)

    def checkpoint(self) -> None:
        """Honour the cancel token and the wall-clock deadline."""
        if self.token.tripped:
            raise DuelCancelled(self.token.reason or "interrupt")
        if self._deadline is not None and time.monotonic() > self._deadline:
            self._exhaust("deadline_ms")

    def _exhaust(self, name: str):
        limit = self.limits[name]
        if self.policies.get(name, "raise") == "truncate":
            raise DuelTruncation(limit, name)
        raise DuelEvalLimit(limit, name)

    # -- reporting ---------------------------------------------------------
    def stats(self) -> dict:
        """Counters of the current/last query (for the stats footer)."""
        return {
            "steps": self.steps,
            "expand": self.expands,
            "lines": self.lines,
            "calls": self.calls,
            "allocs": self.allocs,
            "symnodes": self.symnodes,
            "wall_ms": self.elapsed_ms(),
        }

    def describe(self) -> list[str]:
        """One ``name  limit  policy`` line per limit (REPL ``limits``)."""
        out = []
        for name in DEFAULT_LIMITS:
            limit = self.limits[name]
            shown = "off" if limit is None else str(limit)
            out.append(f"{name:<12} {shown:>12}   ({self.policies[name]})")
        return out
