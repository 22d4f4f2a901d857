"""Session core: one live range per session, many sessions per process.

:class:`RangeSession` wraps a compiled :class:`~repro.range.CyberRange`
with everything a hosted tenant needs:

* **lifecycle** — ``created → running ⇄ paused → closed``
  (:class:`SessionState`); close tears the range down via
  :meth:`CyberRange.close` so an evicted session costs nothing;
* **pacing** — each session owns a wall-clock anchor mapping wall time to
  a virtual-time target at its own ``speed`` (virtual seconds per wall
  second; ``0`` = unpaced, i.e. as fast as the driver allows).  The
  driver calls :meth:`advance` with an event budget and the session
  slices its kernel forward with
  :meth:`~repro.kernel.Simulator.step_until` — cooperative multitasking
  over many independent simulators on one thread;
* **events** — an attached :class:`~repro.service.broker.EventBroker`
  streaming point deltas, scenario phases, HMI alarms, injected-action
  acks and periodic stats snapshots to bounded subscriber queues;
* **interaction** — :meth:`inject` executes any declarative action spec
  (``operate``, ``write_point``, ``inject_breaker``, ``mitm_spoof``, …)
  against the live range mid-run, and :meth:`start_scenario` arms a
  scenario whose :meth:`finish <repro.scenario.engine.ScenarioRun.finish>`
  is scheduled *in virtual time* so verdicts are deterministic under any
  pacing;
* **reporting** — :meth:`report` returns the scenario runs in the same
  per-run schema campaign reports use (``wall_s`` + ``seed`` included).

:class:`SessionManager` is the registry: per-tenant isolation (a tenant
can only see and touch its own sessions), global and per-tenant session
limits, and TTL eviction of sessions nobody has touched.
"""

from __future__ import annotations

import enum
import secrets
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.kernel import SECOND, StepSlice
from repro.range import CyberRange
from repro.scenario.actions import ActionError, action_from_spec
from repro.scenario.engine import ScenarioRun
from repro.scenario.scenario import Scenario
from repro.service.broker import EventBroker

DEFAULT_SPEED = 1.0
#: A paced session more than this many virtual seconds behind its target
#: re-anchors instead of trying to catch up (overload shedding).
DEFAULT_MAX_LAG_S = 2.0
#: Virtual time an unpaced (speed=0) session advances per driver pass.
UNPACED_SLICE_S = 0.5


class ServiceError(Exception):
    """Session/service layer misuse (bad state, unknown id, limits).

    ``code``/``retryable`` feed the wire error envelope
    (``{"error": {"code", "message", "retryable"}}``); subclasses carry
    route-specific codes so the server never sniffs message strings.
    """

    code = "bad_request"
    retryable = False


class UnknownSessionError(ServiceError):
    """No such session for this tenant (maps to HTTP 404)."""

    code = "unknown_session"


class SessionLimitError(ServiceError):
    """Global or per-tenant session limit hit (maps to HTTP 429)."""

    code = "limit_reached"
    retryable = True


class OverloadedError(ServiceError):
    """Driver is saturated; admission refused (maps to HTTP 503)."""

    code = "overloaded"
    retryable = True


class SessionState(str, enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    CLOSED = "closed"


class RangeSession:
    """One tenant's independently-paced live cyber range."""

    def __init__(
        self,
        session_id: str,
        cyber_range: CyberRange,
        *,
        tenant: str = "default",
        name: str = "",
        model: str = "",
        speed: float = DEFAULT_SPEED,
        max_lag_s: float = DEFAULT_MAX_LAG_S,
        queue_depth: int = 2048,
        stats_period_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        journal: Optional[Any] = None,
    ) -> None:
        if speed < 0:
            raise ServiceError(f"speed must be >= 0, got {speed}")
        self.id = session_id
        self.tenant = tenant
        self.name = name or session_id
        self.model = model
        self.cyber_range = cyber_range
        self.state = SessionState.CREATED
        self.speed = speed
        self.max_lag_s = max_lag_s
        self._clock = clock
        self.created_at = clock()
        #: Last API touch (create/inspect/inject/stream); TTL eviction key.
        self.last_activity = self.created_at
        self.broker = EventBroker(
            queue_depth=queue_depth, stats_period_s=stats_period_s
        )
        self.broker.attach(cyber_range)
        # Pacing anchor: virtual target = origin_virtual +
        # (wall - origin_wall) * speed.  Re-set on start/resume/set_speed.
        self._origin_wall = self.created_at
        self._origin_virtual = cyber_range.simulator.now
        #: Times the pacing anchor was reset because the session fell more
        #: than ``max_lag_s`` virtual seconds behind (overload indicator).
        self.lag_resets = 0
        #: Driver slices executed / kernel events run through this session.
        self.slices = 0
        self.events_executed = 0
        self.scenario_runs: list[ScenarioRun] = []
        self.action_log: list[dict] = []
        #: Write-ahead journal (``repro.service.recovery.SessionJournal``)
        #: or ``None``; every state-mutating op is appended *before* it
        #: applies so a crash never loses an applied-but-unrecorded op.
        self.journal = journal
        #: How many times this session was rebuilt from its journal.
        self.restored = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def touch(self) -> None:
        self.last_activity = self._clock()

    def _require_open(self) -> None:
        if self.state is SessionState.CLOSED:
            raise ServiceError(f"session {self.id} is closed")

    def _journal_now(self) -> int:
        return self.cyber_range.simulator.now

    def journal_mark(self) -> None:
        """Record durable progress (only at replay-safe boundaries).

        The driver calls this after a ``done`` slice — every event at or
        before the clock has executed, so a replay reaching the same
        virtual time processes the same event count (the mark embeds the
        kernel digest to verify exactly that).
        """
        if self.journal is None or self.state is not SessionState.RUNNING:
            return
        digest = self.cyber_range.simulator.digest()
        self.journal.mark(digest["now"], digest["processed"])

    def start(self) -> None:
        """created/paused → running; (re)anchors pacing at the call instant."""
        self._require_open()
        if self.state is SessionState.RUNNING:
            return
        if self.journal is not None:
            if self.state is SessionState.CREATED:
                self.journal.record_start(self._journal_now())
            else:
                self.journal.record_lifecycle(self._journal_now(), "resume")
        self.cyber_range.start()
        self._anchor()
        self.state = SessionState.RUNNING
        self.broker.publish("session", {"event": "running", "session": self.id})

    def pause(self, journal: bool = True) -> None:
        """running → paused: the driver stops advancing this session.

        Virtual time freezes exactly where the last slice left it; nothing
        is torn down, and :meth:`resume` re-anchors pacing so no wall-clock
        gap is ever "caught up" — pause is free, not a debt.
        ``journal=False`` is the supervisor's quarantine path: a crash
        record already explains the freeze, and a restore should bring the
        session back *running*, not paused.
        """
        self._require_open()
        if self.state is not SessionState.RUNNING:
            return
        if journal and self.journal is not None:
            self.journal.record_lifecycle(self._journal_now(), "pause")
        self.state = SessionState.PAUSED
        self.broker.publish("session", {"event": "paused", "session": self.id})

    def resume(self) -> None:
        self.start()

    def set_speed(self, speed: float) -> None:
        """Change pacing mid-run (0 = unpaced); re-anchors immediately."""
        if speed < 0:
            raise ServiceError(f"speed must be >= 0, got {speed}")
        self._require_open()
        if self.journal is not None:
            self.journal.record_lifecycle(self._journal_now(), "speed", speed)
        self.speed = speed
        self._anchor()
        self.broker.publish(
            "session", {"event": "speed", "session": self.id, "speed": speed}
        )

    def close(self, journal_reason: Optional[str] = "close") -> None:
        """Tear the range down (idempotent).  Queued events stay readable.

        ``journal_reason`` ("close", "evicted") is written to the journal
        as a *clean* end — a later restore refuses it.  Pass ``None`` to
        tear down without recording (the supervisor's restart path, where
        the journal must stay restorable).
        """
        if self.state is SessionState.CLOSED:
            return
        if self.journal is not None and journal_reason is not None:
            self.journal.record_close(self._journal_now(), journal_reason)
        self.state = SessionState.CLOSED
        self.broker.publish("session", {"event": "closed", "session": self.id})
        self.broker.detach()
        self.cyber_range.close()
        if self.journal is not None:
            self.journal.close()

    def suspend(self) -> None:
        """Orderly shutdown: journal exact progress, tear down, stay
        restorable.

        Unlike :meth:`close` this records a ``suspend`` (with the kernel
        digest) instead of a clean ``close`` — a service restart with the
        same ``--journal-dir`` rebuilds the session to this exact virtual
        time.  Without a journal this degrades to a plain close.
        """
        if self.state is SessionState.CLOSED:
            return
        if self.journal is not None:
            # Finish the current instant first: a budget-exhausted slice
            # can leave same-instant events queued, and a digest taken
            # there would not be reproducible by replay's step_until.
            self.cyber_range.simulator.drain_current()
            digest = self.cyber_range.simulator.digest()
            self.journal.record_suspend(digest["now"], digest["processed"])
        self.close(journal_reason=None)

    def __enter__(self) -> "RangeSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Pacing + driving
    # ------------------------------------------------------------------
    def _anchor(self) -> None:
        self._origin_wall = self._clock()
        self._origin_virtual = self.cyber_range.simulator.now

    def target_virtual(self, wall_now: float) -> int:
        """The virtual time (µs) this session should have reached by now."""
        if self.speed == 0.0:
            return self.cyber_range.simulator.now + int(UNPACED_SLICE_S * SECOND)
        elapsed = wall_now - self._origin_wall
        return self._origin_virtual + int(elapsed * self.speed * SECOND)

    def behind_s(self, wall_now: float) -> float:
        """Virtual seconds between the pacing target and actual time."""
        return (
            self.target_virtual(wall_now) - self.cyber_range.simulator.now
        ) / SECOND

    def advance(
        self, wall_now: float, max_events: Optional[int] = None
    ) -> StepSlice:
        """Run one cooperative slice toward the pacing target.

        Returns the kernel's :class:`~repro.kernel.StepSlice`; ``done``
        means the session has caught up to its target (the driver can
        sleep), ``executed == 0`` with ``done`` means it was already
        caught up (or not running).  A paced session that has fallen more
        than ``max_lag_s`` virtual seconds behind re-anchors first — the
        simulation stays causally intact, it just stops pretending to be
        real-time until load drops (``lag_resets`` counts this).
        """
        if self.state is not SessionState.RUNNING:
            return StepSlice(0, True)
        if self.speed > 0.0 and self.behind_s(wall_now) > self.max_lag_s:
            self._anchor()
            self.lag_resets += 1
        target = self.target_virtual(wall_now)
        if target <= self.cyber_range.simulator.now:
            return StepSlice(0, True)
        result = self.cyber_range.step_until(target, max_events)
        self.slices += 1
        self.events_executed += result.executed
        return result

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------
    def inject(self, spec: dict) -> dict:
        """Execute one declarative action spec against the live range.

        The vocabulary is exactly the scenario engine's
        (:func:`~repro.scenario.actions.action_from_spec`): ``operate``,
        ``write_point``, ``record``, ``inject_breaker``, ``mitm_spoof``.
        The ack (also published on the ``actions`` channel) records the
        virtual time of injection and the action's result string.
        """
        self._require_open()
        if not self.cyber_range.started:
            raise ServiceError(f"session {self.id} has not been started")
        try:
            action_from_spec(spec)  # validate before journaling (WAL)
        except ActionError as exc:
            raise ServiceError(str(exc)) from exc
        # Land mutations only at replay-safe boundaries: finish the
        # current instant so the action can never fall in the middle of a
        # budget-exhausted slice (replay drains the instant too).
        self.cyber_range.simulator.drain_current()
        if self.journal is not None:
            self.journal.record_action(self._journal_now(), spec)
        return self._apply_action(spec)

    def _apply_action(self, spec: dict) -> dict:
        """Execute a (pre-validated) action spec; shared with replay."""
        try:
            action = action_from_spec(spec)
            result = action.execute(self.cyber_range)
        except ActionError as exc:
            raise ServiceError(str(exc)) from exc
        ack = {
            "action": action.description,
            "spec": spec,
            "result": "" if result is None else str(result),
            "time_s": self.cyber_range.simulator.now / SECOND,
        }
        self.action_log.append(ack)
        self.broker.publish("actions", dict(ack))
        return ack

    def replay_action(self, spec: dict) -> None:
        """Re-apply a journaled action during restore.

        A journaled action that *failed* mid-execution live fails the
        same way on replay (same state, same code path); live returned
        the error to the caller and moved on, so replay swallows it too.
        """
        try:
            self._apply_action(spec)
        except ServiceError:
            pass

    def start_scenario(
        self, spec: dict, duration_s: Optional[float] = None
    ) -> dict:
        """Arm a scenario on the live session; finish is scheduled in
        virtual time.

        Unlike :meth:`CyberRange.run_scenario` this does not block: the
        run arms now, progress streams on the ``phases`` channel, and
        :meth:`ScenarioRun.finish` fires ``duration_s`` *virtual* seconds
        later — so the verdict is identical at any speed, paused or not.
        """
        self._require_open()
        if self.state is not SessionState.RUNNING:
            raise ServiceError(
                f"session {self.id} is {self.state.value}; start it before "
                f"arming a scenario"
            )
        try:
            scenario = Scenario.from_spec(spec)
        except Exception as exc:  # spec errors journal nothing (WAL)
            raise ServiceError(f"bad scenario spec: {exc}") from exc
        problems = scenario.validate_graph()
        if problems:
            raise ServiceError(
                f"bad scenario spec: {'; '.join(problems)}"
            )
        effective_s = duration_s or scenario.duration_s or 10.0
        self.cyber_range.simulator.drain_current()
        if self.journal is not None:
            self.journal.record_scenario(
                self._journal_now(), spec, effective_s
            )
        return self._arm_scenario(scenario, effective_s)

    def _arm_scenario(self, scenario: Scenario, effective_s: float) -> dict:
        """Arm a validated scenario now; shared with journal replay."""
        run = ScenarioRun(scenario, self.cyber_range)
        run.set_observer(self.broker.scenario_observer)
        run.start()
        self.cyber_range.simulator.schedule(
            int(effective_s * SECOND),
            run.finish,
            label=f"service:scenario-finish:{scenario.name}",
        )
        self.scenario_runs.append(run)
        return {
            "scenario": scenario.name,
            "index": len(self.scenario_runs) - 1,
            "duration_s": effective_s,
            "armed_at_s": self.cyber_range.simulator.now / SECOND,
        }

    def replay_scenario(self, spec: dict, duration_s: float) -> None:
        """Re-arm a journaled scenario during restore (errors replay as
        no-ops, exactly as a live arming failure left no run behind)."""
        try:
            self._arm_scenario(Scenario.from_spec(spec), duration_s)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Introspection / reporting
    # ------------------------------------------------------------------
    def points(self, prefix: str = "") -> dict[str, Any]:
        """Live snapshot of the session's point registry."""
        self._require_open()
        return self.cyber_range.pointdb.snapshot(prefix)

    def report(self) -> dict:
        """After-action report: campaign-schema entries per scenario run.

        Each entry is :meth:`ScenarioRun.to_dict` — the same per-run shape
        :class:`~repro.scenario.campaign.Campaign` aggregates (``passed``,
        ``phases``, ``branches``, ``wall_s``, ``seed``) — plus
        ``finished`` so a mid-run report is distinguishable.
        """
        runs = []
        for run in self.scenario_runs:
            entry = run.to_dict()
            entry["finished"] = run.finished
            runs.append(entry)
        return {
            "session": self.id,
            "tenant": self.tenant,
            "name": self.name,
            "model": self.model,
            "seed": self.cyber_range.seed,
            "state": self.state.value,
            "time_s": self.cyber_range.simulator.now / SECOND,
            "scenario_count": len(runs),
            "passed": all(r.get("passed") for r in runs) if runs else None,
            "scenarios": runs,
            "actions": list(self.action_log),
        }

    def describe(self) -> dict:
        """Wire-level session summary (list/inspect endpoints)."""
        wall_now = self._clock()
        info = {
            "id": self.id,
            "tenant": self.tenant,
            "name": self.name,
            "model": self.model,
            "state": self.state.value,
            "speed": self.speed,
            "seed": self.cyber_range.seed,
            "time_s": self.cyber_range.simulator.now / SECOND,
            "age_s": wall_now - self.created_at,
            "idle_s": wall_now - self.last_activity,
            "scenario_count": len(self.scenario_runs),
            "action_count": len(self.action_log),
            "journaled": self.journal is not None,
            "restored": self.restored,
        }
        if self.state is SessionState.RUNNING and self.speed > 0:
            info["behind_s"] = round(self.behind_s(wall_now), 3)
        return info

    def stats(self) -> dict:
        """Driver + broker + data-plane counters for one session."""
        self._require_open()
        info = {
            "session": self.id,
            "state": self.state.value,
            "time_s": self.cyber_range.simulator.now / SECOND,
            "slices": self.slices,
            "events_executed": self.events_executed,
            "lag_resets": self.lag_resets,
            "broker": self.broker.stats(),
            "architecture": self.cyber_range.architecture_summary(),
            "data_plane": self.cyber_range.data_plane_stats(),
        }
        if self.journal is not None:
            info["journal"] = self.journal.stats()
        return info


class SessionManager:
    """The session registry: tenant isolation, limits, TTL eviction."""

    def __init__(
        self,
        *,
        max_sessions: int = 32,
        max_per_tenant: int = 8,
        ttl_s: float = 900.0,
        journal_dir: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_sessions = max_sessions
        self.max_per_tenant = max_per_tenant
        self.ttl_s = ttl_s
        #: When set, every session gets a write-ahead journal file here
        #: (``<journal_dir>/<session_id>.jsonl``) and becomes restorable.
        self.journal_dir = journal_dir
        if journal_dir is not None:
            Path(journal_dir).mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._sessions: dict[str, RangeSession] = {}
        #: Sessions evicted by TTL (id → idle seconds at eviction).
        self.evicted: dict[str, float] = {}
        #: Sessions rebuilt from journals (id → restore count).
        self.restored: dict[str, int] = {}

    # ------------------------------------------------------------------
    def create(
        self,
        compile_range: Callable[[], CyberRange],
        *,
        tenant: str = "default",
        name: str = "",
        model: str = "",
        speed: float = DEFAULT_SPEED,
        autostart: bool = True,
        create_spec: Optional[dict] = None,
        **session_kwargs: Any,
    ) -> RangeSession:
        """Compile a fresh range and register a session around it.

        ``compile_range`` is a zero-argument callable (the server binds
        the model resolution + seed into it) so the manager stays ignorant
        of model formats.  Limits are checked *before* compiling.  With a
        ``journal_dir``, ``create_spec`` (the wire create body) plus the
        resolved seed are journaled before the session starts, making it
        restorable via :meth:`restore`.
        """
        open_sessions = [
            s for s in self._sessions.values()
            if s.state is not SessionState.CLOSED
        ]
        if len(open_sessions) >= self.max_sessions:
            raise SessionLimitError(
                f"session limit reached ({self.max_sessions}); close one first"
            )
        tenant_open = sum(1 for s in open_sessions if s.tenant == tenant)
        if tenant_open >= self.max_per_tenant:
            raise SessionLimitError(
                f"tenant {tenant!r} session limit reached "
                f"({self.max_per_tenant}); close one first"
            )
        session_id = secrets.token_hex(6)
        cyber_range = compile_range()
        journal = None
        if self.journal_dir is not None:
            from repro.service.recovery import SessionJournal, journal_path

            journal = SessionJournal(
                journal_path(self.journal_dir, session_id), clock=self._clock
            )
            journal.record_create(
                session_id=session_id,
                tenant=tenant,
                name=name,
                model=model,
                spec=dict(create_spec or {}),
                seed=cyber_range.seed,
                speed=speed,
                max_lag_s=float(
                    session_kwargs.get("max_lag_s", DEFAULT_MAX_LAG_S)
                ),
                queue_depth=int(session_kwargs.get("queue_depth", 2048)),
                stats_period_s=float(
                    session_kwargs.get("stats_period_s", 1.0)
                ),
            )
        try:
            session = RangeSession(
                session_id,
                cyber_range,
                tenant=tenant,
                name=name,
                model=model,
                speed=speed,
                clock=self._clock,
                journal=journal,
                **session_kwargs,
            )
            self._sessions[session_id] = session
            if autostart:
                session.start()
        except Exception:
            if journal is not None:
                journal.close()
                journal.path.unlink(missing_ok=True)
            self._sessions.pop(session_id, None)
            raise
        return session

    def restore(
        self,
        journal: str | Path,
        *,
        resolver: Optional[Callable[[dict], Callable[[], CyberRange]]] = None,
        observe: Optional[Callable[[RangeSession], None]] = None,
    ) -> RangeSession:
        """Rebuild a crashed/suspended session from its journal.

        Re-resolves the journaled create spec to a fresh range compiler
        (``resolver`` defaults to the server's model resolver), replays
        the journal through ``step_until`` to the exact pre-crash virtual
        time (digest-verified), registers the session under its original
        id and re-attaches the journal so the restored session keeps
        appending — a second crash restores too.  Cleanly-closed journals
        are refused (:class:`~repro.service.recovery.RecoveryError`).
        """
        from repro.service.recovery import (
            RecoveryError,
            SessionJournal,
            load_journal,
            replay_session,
        )

        state = load_journal(journal)
        if state.session_id in self._sessions:
            raise RecoveryError(
                f"session {state.session_id!r} is already registered; "
                f"close it before restoring"
            )
        if resolver is None:
            from repro.service.server import default_model_resolver

            resolver = default_model_resolver
        spec = dict(state.spec)
        spec.setdefault("seed", state.seed)
        session = replay_session(
            state, resolver(spec), clock=self._clock, observe=observe
        )
        journal_file = SessionJournal(state.path, clock=self._clock)
        journal_file.record_restored(session.cyber_range.simulator.now)
        session.journal = journal_file
        self._sessions[session.id] = session
        self.restored[session.id] = self.restored.get(session.id, 0) + 1
        return session

    def get(self, session_id: str, tenant: Optional[str] = None) -> RangeSession:
        """Look a session up, enforcing tenant visibility.

        A wrong-tenant access raises the *same* error as an unknown id so
        session ids of other tenants are not probeable.
        """
        session = self._sessions.get(session_id)
        if session is None or (tenant is not None and session.tenant != tenant):
            raise UnknownSessionError(f"unknown session {session_id!r}")
        session.touch()
        return session

    def forget(self, session_id: str) -> None:
        """Drop a session from the registry without touching its journal
        (the supervisor's restart path removes the wreck this way)."""
        self._sessions.pop(session_id, None)

    def list(self, tenant: Optional[str] = None) -> list[RangeSession]:
        sessions = [
            s for s in self._sessions.values()
            if tenant is None or s.tenant == tenant
        ]
        return sorted(sessions, key=lambda s: s.created_at)

    def running(self) -> list[RangeSession]:
        """Sessions the driver must advance this pass."""
        return [
            s for s in self._sessions.values()
            if s.state is SessionState.RUNNING
        ]

    def close(self, session_id: str, tenant: Optional[str] = None) -> RangeSession:
        session = self.get(session_id, tenant)
        session.close()
        return session

    def remove_closed(self) -> int:
        """Forget closed sessions (their reports become unreachable)."""
        closed = [
            sid for sid, s in self._sessions.items()
            if s.state is SessionState.CLOSED
        ]
        for sid in closed:
            del self._sessions[sid]
        return len(closed)

    def evict_idle(self, wall_now: Optional[float] = None) -> list[RangeSession]:
        """Close (but keep registered) sessions idle past the TTL.

        Idle means no API touch — list/inspect/inject/stream all count as
        activity.  Evicted sessions stay visible (state ``closed``) so a
        returning tenant sees *why* the session is gone and can still pull
        the after-action report; ``remove_closed`` is the hard delete.
        """
        if self.ttl_s <= 0:
            return []
        now = self._clock() if wall_now is None else wall_now
        victims = [
            s for s in self._sessions.values()
            if s.state is not SessionState.CLOSED
            and now - s.last_activity > self.ttl_s
        ]
        for session in victims:
            self.evicted[session.id] = now - session.last_activity
            session.close(journal_reason="evicted")
        return victims

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._sessions)

    def stats(self) -> dict:
        by_state: dict[str, int] = {}
        for session in self._sessions.values():
            by_state[session.state.value] = (
                by_state.get(session.state.value, 0) + 1
            )
        return {
            "sessions": len(self._sessions),
            "by_state": by_state,
            "tenants": len({s.tenant for s in self._sessions.values()}),
            "evicted": len(self.evicted),
            "restored": sum(self.restored.values()),
            "journal_dir": self.journal_dir,
            "limits": {
                "max_sessions": self.max_sessions,
                "max_per_tenant": self.max_per_tenant,
                "ttl_s": self.ttl_s,
            },
        }

    def close_all(self, suspend: bool = True) -> None:
        """Tear every session down.  Journaled sessions are *suspended*
        (resumable on the next service start) rather than cleanly closed,
        unless ``suspend=False`` forces the terminal record."""
        for session in self._sessions.values():
            if suspend and session.journal is not None:
                session.suspend()
            else:
                session.close()
