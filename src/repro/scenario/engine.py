"""Scenario execution engine: arming, firing, scoring, reporting.

:class:`ScenarioRun` binds a declarative :class:`~repro.scenario.scenario.
Scenario` to a running :class:`~repro.range.CyberRange`:

* :meth:`ScenarioRun.start` arms every phase trigger.  ``at``/``after``
  triggers become ``scenario:*``-labelled simulator events; ``when``
  triggers become registry delta subscriptions and cost **no** simulator
  events until an input point changes — kernel per-label accounting is the
  audit trail for that claim.
* A trigger fire is routed through one ``scenario:<name>:<phase>`` event
  (``Simulator.call_soon``), so phase actions never run inside a registry
  flush and every data-plane write they make lands in the next batch.
* Actions execute in declaration order; an action that raises is recorded
  as ``FAILED: ...`` and the remaining actions still run (a failed attack
  step is a legitimate exercise outcome).
* Outcomes are scored ``after_s`` seconds past the phase's actions and
  recorded per phase; :attr:`ScenarioRun.passed` is the training verdict.

Determinism: phases are armed in declaration order and same-instant events
fire in scheduling order, so two phases triggered ``at`` the same virtual
time execute in the order the scenario declared them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.kernel import SECOND, Event
from repro.pointdb.registry import PointHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.range import CyberRange
    from repro.scenario.scenario import Phase, Scenario


class ScenarioRunError(Exception):
    """Engine misuse (double start, unknown phase reference, ...)."""


@dataclass
class ActionRecord:
    """One executed action: an entry of the after-action log."""

    time_s: float
    team: str
    description: str
    result: str
    ok: bool
    phase: str


@dataclass
class OutcomeRecord:
    """One scored outcome check."""

    name: str
    status: str  # "pass" | "fail" | "pending"
    detail: str = ""
    time_s: Optional[float] = None
    #: Gating outcomes route branches but are excluded from the run verdict.
    gate: bool = False

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class BranchRecord:
    """One branch-routing decision (taken or suppressed)."""

    time_s: float
    source: str
    edge: str  # "on_pass" | "on_fail" | "on_timeout"
    target: str
    armed: bool
    reason: str = ""  # why a suppressed edge was not taken

    def to_dict(self) -> dict:
        return vars(self).copy()


@dataclass
class PhaseRecord:
    """Structured per-phase timing + scoring for the after-action report.

    ``armed_at_s`` is ``None`` while the phase is dormant (a branch target
    no edge has routed to yet); ``visits`` counts how many times it was
    armed; ``verdict`` resolves to ``"pass"``/``"fail"`` once its outcomes
    score (or ``"timeout"`` if the arming window expired unfired).
    """

    name: str
    team: str
    trigger: str
    armed_at_s: Optional[float] = None
    triggered_at_s: Optional[float] = None
    completed_at_s: Optional[float] = None
    fire_count: int = 0
    visits: int = 0
    verdict: str = ""
    branch_taken: str = ""
    trigger_reason: str = ""
    actions: list[ActionRecord] = field(default_factory=list)
    outcomes: list[OutcomeRecord] = field(default_factory=list)

    @property
    def fired(self) -> bool:
        return self.triggered_at_s is not None

    @property
    def armed(self) -> bool:
        return self.armed_at_s is not None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "team": self.team,
            "trigger": self.trigger,
            "armed_at_s": self.armed_at_s,
            "triggered_at_s": self.triggered_at_s,
            "completed_at_s": self.completed_at_s,
            "fire_count": self.fire_count,
            "visits": self.visits,
            "verdict": self.verdict,
            "branch_taken": self.branch_taken,
            "trigger_reason": self.trigger_reason,
            "actions": [vars(a) for a in self.actions],
            "outcomes": [
                {
                    "name": o.name,
                    "status": o.status,
                    "detail": o.detail,
                    "time_s": o.time_s,
                    "gate": o.gate,
                }
                for o in self.outcomes
            ],
        }


class ScenarioRun:
    """One execution of a scenario against a cyber range.

    Also implements the :class:`~repro.scenario.triggers.TriggerHost`
    protocol triggers arm themselves against.
    """

    def __init__(self, scenario: "Scenario", cyber_range: "CyberRange") -> None:
        self.scenario = scenario
        self.cyber_range = cyber_range
        self.simulator = cyber_range.simulator
        self.pointdb = cyber_range.pointdb
        self.records: dict[str, PhaseRecord] = {}
        #: Chronological log across all phases (the after-action timeline).
        self.log: list[ActionRecord] = []
        #: Chronological branch-routing decisions (taken and suppressed).
        self.branches: list[BranchRecord] = []
        self.started = False
        self.finished = False
        self._base_us = 0
        #: Reference instant for schedule_at_s: scenario start, except
        #: during the (synchronous) arming of a branch-routed phase, where
        #: it is the routing instant — at(t) on a branch target means
        #: "t seconds after being routed to".
        self._epoch_us = 0
        self._completion_listeners: dict[str, list[Callable[[float], None]]] = {}
        self._arming_phase: Optional["Phase"] = None
        self._outcome_events: list[Event] = []
        #: Phases whose trigger is currently armed and unfired.
        self._armed: set[str] = set()
        #: Pending timeout events per armed phase name.
        self._timeout_events: dict[str, Event] = {}
        #: Live progress observer (service event broker); ``None`` costs
        #: one falsy check per emission point.
        self._observer: Optional[Callable[[dict], None]] = None
        #: Wall-clock run cost, frozen by :meth:`finish`.
        self.wall_s: float = 0.0
        self._wall_start: Optional[float] = None

    def set_observer(self, callback: Optional[Callable[[dict], None]]) -> None:
        """Stream structured progress events to ``callback`` as they happen.

        Events are dicts with an ``event`` key (``scenario_started``,
        ``phase_fired``, ``phase_verdict``, ``branch``,
        ``scenario_finished``) plus event-specific fields; the service
        layer fans them out to WebSocket subscribers.  An observer that
        raises would corrupt the run, so emission swallows exceptions.
        """
        self._observer = callback

    def _emit(self, event: str, **data: Any) -> None:
        if self._observer is None:
            return
        payload = {"event": event, "scenario": self.scenario.name, **data}
        try:
            self._observer(payload)
        except Exception:  # observer bugs must not perturb the run
            pass

    # ------------------------------------------------------------------
    # TriggerHost protocol
    # ------------------------------------------------------------------
    def schedule_at_s(
        self, time_s: float, callback: Callable[[], None], label: str
    ) -> Event:
        delay_us = self._epoch_us + int(time_s * SECOND) - self.simulator.now
        return self.simulator.schedule(max(0, delay_us), callback, label=label)

    def schedule_in_s(
        self, delay_s: float, callback: Callable[[], None], label: str
    ) -> Event:
        return self.simulator.schedule(
            max(0, int(delay_s * SECOND)), callback, label=label
        )

    def resolve_point(self, key: str) -> PointHandle:
        return self.pointdb.resolve(key)

    def read_point(self, key: str) -> Any:
        return self.pointdb.get(key)

    def read_handle(self, handle: PointHandle) -> Any:
        return self.pointdb.read(handle)

    def subscribe_point(
        self, handle: PointHandle, callback: Callable[[PointHandle, Any], None]
    ) -> None:
        self.pointdb.subscribe(handle, callback)

    def unsubscribe_point(
        self, handle: PointHandle, callback: Callable[[PointHandle, Any], None]
    ) -> None:
        self.pointdb.unsubscribe(handle, callback)

    def on_phase_complete(
        self, phase_name: str, callback: Callable[[float], None]
    ) -> None:
        if phase_name not in self.records:
            raise ScenarioRunError(
                f"after() references unknown phase {phase_name!r}"
            )
        record = self.records[phase_name]
        if record.completed_at_s is not None:
            callback(record.completed_at_s)
            return
        self._completion_listeners.setdefault(phase_name, []).append(callback)

    def trigger_label(self) -> str:
        phase = self._arming_phase
        suffix = f":{phase.name}" if phase is not None else ""
        return f"scenario:{self.scenario.name}{suffix}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        return (self.simulator.now - self._base_us) / SECOND

    def start(self) -> "ScenarioRun":
        """Arm every *root* phase trigger.  The range must be started.

        Branch-target phases (referenced by an ``on_pass``/``on_fail``/
        ``on_timeout`` edge) stay dormant: no simulator event, no registry
        subscription, until an edge routes to them — an untaken branch
        costs exactly nothing.
        """
        if self.started:
            raise ScenarioRunError("scenario run already started")
        problems = self.scenario.validate_graph()
        if problems:
            raise ScenarioRunError(
                "invalid scenario graph: " + "; ".join(problems)
            )
        self.started = True
        # sgml: lint-ok[det-wallclock] wall accounting
        self._wall_start = time.perf_counter()
        self._base_us = self.simulator.now
        self._epoch_us = self._base_us
        self._emit("scenario_started", time_s=0.0)
        # Records first: after() triggers may reference any phase, including
        # ones declared later (and dormant branch targets need records too).
        for phase in self.scenario.phases:
            self.records[phase.name] = PhaseRecord(
                name=phase.name,
                team=phase.team,
                trigger=phase.trigger.describe(),
            )
        try:
            for phase in self.scenario.root_phases():
                self._arm_phase(phase)
        except Exception:
            # A half-armed run must not leave live subscriptions behind:
            # an aborted scenario's phases would otherwise fire as
            # phantoms on the next matching data-plane change.
            for phase in self.scenario.phases:
                phase.trigger.disarm()
            self._armed.clear()
            raise
        return self

    # ------------------------------------------------------------------
    # Arming, timeouts, branch routing
    # ------------------------------------------------------------------
    def _arm_phase(self, phase: "Phase", routed: bool = False) -> None:
        """Arm one phase's trigger (at start, or via a branch edge)."""
        record = self.records[phase.name]
        record.visits += 1
        record.armed_at_s = self.elapsed_s()
        self._armed.add(phase.name)
        fires_before_arming = record.fire_count
        self._arming_phase = phase
        if routed:
            self._epoch_us = self.simulator.now
        try:
            phase.trigger.arm(self, self._make_fire(phase))
        finally:
            self._arming_phase = None
            self._epoch_us = self._base_us
        # The timeout is scheduled *after* the trigger so that, at an exact
        # tie (trigger due at the timeout instant), the kernel's FIFO order
        # runs the fire first and the fire cancels the timeout — and not at
        # all if arming itself fired the trigger (level mode).
        if (
            phase.timeout_s is not None
            and record.fire_count == fires_before_arming
        ):
            self._timeout_events[phase.name] = self.simulator.schedule(
                int(phase.timeout_s * SECOND),
                lambda: self._on_timeout(phase, fires_before_arming),
                label=f"scenario:{self.scenario.name}:{phase.name}:timeout",
            )

    def _cancel_timeout(self, phase_name: str) -> None:
        event = self._timeout_events.pop(phase_name, None)
        if event is not None:
            event.cancel()

    def _on_timeout(self, phase: "Phase", fires_before_arming: int) -> None:
        """The arming window expired before the trigger fired."""
        record = self.records[phase.name]
        self._timeout_events.pop(phase.name, None)
        if phase.name not in self._armed:
            return  # already fired and disarmed
        if record.fire_count != fires_before_arming:
            return  # fired during this visit (e.g. a repeat trigger)
        phase.trigger.disarm()
        self._armed.discard(phase.name)
        record.verdict = "timeout"
        self._emit(
            "phase_verdict",
            phase=phase.name,
            verdict="timeout",
            time_s=self.elapsed_s(),
        )
        if phase.on_timeout:
            self._route(phase, "on_timeout", phase.on_timeout)

    def _resolve_verdict(
        self, phase: "Phase", outcomes: list[OutcomeRecord]
    ) -> None:
        """All outcomes of one phase execution scored: route the branch.

        Gate outcomes count here (they exist to steer routing) even though
        they are excluded from the run-level verdict.
        """
        if self.finished:
            return
        record = self.records[phase.name]
        verdict = "pass" if all(o.passed for o in outcomes) else "fail"
        record.verdict = verdict
        self._emit(
            "phase_verdict",
            phase=phase.name,
            verdict=verdict,
            time_s=self.elapsed_s(),
        )
        edge = "on_pass" if verdict == "pass" else "on_fail"
        target = phase.edges.get(edge, "")
        if target:
            self._route(phase, edge, target)

    def _route(self, source: "Phase", edge: str, target_name: str) -> None:
        """Take one branch edge: arm the target unless bounded out."""
        target = self.scenario.find_phase(target_name)
        assert target is not None  # validate_graph checked at start
        target_record = self.records[target_name]
        reason = ""
        if target_name in self._armed:
            reason = "already armed"
        elif target_record.visits >= target.max_visits:
            reason = f"visit limit {target.max_visits} reached"
        decision = BranchRecord(
            time_s=self.elapsed_s(),
            source=source.name,
            edge=edge,
            target=target_name,
            armed=not reason,
            reason=reason,
        )
        self.branches.append(decision)
        self._emit(
            "branch",
            source=source.name,
            edge=edge,
            target=target_name,
            armed=decision.armed,
            time_s=decision.time_s,
        )
        source_record = self.records[source.name]
        if not source_record.branch_taken and decision.armed:
            source_record.branch_taken = f"{edge} -> {target_name}"
        if decision.armed:
            self._arm_phase(target, routed=True)

    def _make_fire(self, phase: "Phase") -> Callable[[str], None]:
        def fire(reason: str) -> None:
            record = self.records[phase.name]
            record.fire_count += 1
            if record.fire_count == 1:
                record.triggered_at_s = self.elapsed_s()
                record.trigger_reason = reason
            self._emit(
                "phase_fired",
                phase=phase.name,
                reason=reason,
                fire_count=record.fire_count,
                time_s=self.elapsed_s(),
            )
            self._cancel_timeout(phase.name)
            if not phase.trigger.repeat:
                self._armed.discard(phase.name)
            # Hop through one labelled event so actions never execute inside
            # a registry flush callback (and so the kernel accounts for them).
            self.simulator.call_soon(
                lambda: self._execute_phase(phase),
                label=f"scenario:{self.scenario.name}:{phase.name}",
            )

        return fire

    # ------------------------------------------------------------------
    def _execute_phase(self, phase: "Phase") -> None:
        record = self.records[phase.name]
        for action in phase.actions:
            try:
                outcome = action.execute(self.cyber_range)
                result = "ok" if outcome is None else str(outcome)
                ok = True
            except Exception as exc:  # after-action visibility, not a crash
                result = f"FAILED: {exc}"
                ok = False
            entry = ActionRecord(
                time_s=self.elapsed_s(),
                team=phase.team,
                description=action.description,
                result=result,
                ok=ok,
                phase=phase.name,
            )
            record.actions.append(entry)
            self.log.append(entry)
        # Outcome scoring for *this* execution: the phase's verdict (and
        # therefore its branch edge) resolves once the last of these
        # scores.  A phase with no outcomes resolves "pass" immediately.
        execution_outcomes: list[OutcomeRecord] = []
        pending = {"count": len(phase.outcomes)}

        def scored() -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                self._resolve_verdict(phase, execution_outcomes)

        for outcome in phase.outcomes:
            self._schedule_outcome(
                phase, record, outcome, execution_outcomes, scored
            )
        first_completion = record.completed_at_s is None
        record.completed_at_s = self.elapsed_s()
        if first_completion:
            for callback in self._completion_listeners.pop(phase.name, []):
                callback(record.completed_at_s)
        if not phase.outcomes:
            self._resolve_verdict(phase, execution_outcomes)

    def _schedule_outcome(
        self,
        phase: "Phase",
        record: PhaseRecord,
        outcome,
        execution_outcomes: list[OutcomeRecord],
        scored: Callable[[], None],
    ) -> None:
        outcome_record = OutcomeRecord(
            name=outcome.name, status="pending", gate=outcome.gate
        )
        record.outcomes.append(outcome_record)
        execution_outcomes.append(outcome_record)

        def score() -> None:
            passed, detail = outcome.evaluate(self.cyber_range)
            outcome_record.status = "pass" if passed else "fail"
            outcome_record.detail = detail
            outcome_record.time_s = self.elapsed_s()
            scored()

        if outcome.after_s <= 0:
            score()
        else:
            self._outcome_events.append(
                self.simulator.schedule(
                    int(outcome.after_s * SECOND),
                    score,
                    label=f"scenario:{self.scenario.name}:{phase.name}:outcome",
                )
            )

    # ------------------------------------------------------------------
    def finish(self) -> "ScenarioRun":
        """Disarm all triggers and freeze the report.

        Outcome checks still scheduled beyond this point are cancelled and
        stay ``pending`` — the verdict cannot mutate after the report is
        read, even if the same simulator keeps running.
        """
        if self.finished:
            return self
        self.finished = True
        if self._wall_start is not None:
            # sgml: lint-ok[det-wallclock] wall accounting
            self.wall_s = time.perf_counter() - self._wall_start
        for phase in self.scenario.phases:
            phase.trigger.disarm()
        self._armed.clear()
        for event in self._timeout_events.values():
            event.cancel()
        self._timeout_events.clear()
        for event in self._outcome_events:
            event.cancel()
        self._outcome_events.clear()
        self._emit(
            "scenario_finished", passed=self.passed, time_s=self.elapsed_s()
        )
        return self

    # ------------------------------------------------------------------
    # Verdict + reporting
    # ------------------------------------------------------------------
    @property
    def outcome_records(self) -> list[OutcomeRecord]:
        return [o for record in self.records.values() for o in record.outcomes]

    @property
    def passed(self) -> bool:
        """All scored non-gate outcomes pass and none are still pending.

        A scenario with no outcomes passes vacuously (pure exercises).
        Outcomes whose phase never fired were never scored and therefore
        do not appear — phases that were *expected* to fire should carry
        an outcome on a downstream (e.g. ``after``) phase to catch that.
        Gating outcomes steer branch routing but do not count here: an
        adaptive scenario is scored on the path it took.
        """
        outcomes = self.outcome_records
        return all(o.status == "pass" for o in outcomes if not o.gate)

    def branch_path(self) -> list[str]:
        """The taken edges, in order: ``["strike --on_fail--> escalate"]``."""
        return [
            f"{b.source} --{b.edge}--> {b.target}"
            for b in self.branches
            if b.armed
        ]

    def to_dict(self) -> dict:
        """Structured after-action report.

        ``wall_s`` (wall clock between :meth:`start` and :meth:`finish`)
        and ``seed`` (the compiled range's effective RNG seed) make this
        the same per-run schema the campaign aggregate report uses, so a
        service after-action report and a campaign entry are
        interchangeable.
        """
        return {
            "scenario": self.scenario.name,
            "description": self.scenario.description,
            "passed": self.passed,
            "duration_s": self.elapsed_s(),
            "wall_s": self.wall_s,
            "seed": getattr(self.cyber_range, "seed", 0),
            "branches": [b.to_dict() for b in self.branches],
            "phases": [
                self.records[phase.name].to_dict()
                for phase in self.scenario.phases
            ],
        }

    def after_action_report(self) -> str:
        """Human-readable structured report: per-phase timing + outcomes."""
        lines = [f"=== after-action report: {self.scenario.name} ==="]
        if self.scenario.description:
            lines.append(self.scenario.description)
        branch_targets = self.scenario.branch_targets()
        for phase in self.scenario.phases:
            record = self.records[phase.name]
            if record.fired:
                timing = (
                    f"fired at {record.triggered_at_s:8.3f}s"
                    f" ({record.trigger_reason})"
                )
                if record.fire_count > 1:
                    timing += f" x{record.fire_count}"
            elif record.verdict == "timeout":
                timing = "timed out unfired"
            elif not record.armed and phase.name in branch_targets:
                timing = "dormant (branch target, never routed to)"
            else:
                timing = "never fired"
            lines.append(f"-- phase {record.name!r} [{record.trigger}]: {timing}")
            if record.branch_taken:
                lines.append(f"   BRANCH {record.branch_taken}")
            for entry in record.actions:
                lines.append(
                    f"   [{entry.time_s:8.3f}s] ({entry.team:>5}) "
                    f"{entry.description} -> {entry.result}"
                )
            for outcome in record.outcomes:
                stamp = (
                    f"{outcome.time_s:8.3f}s" if outcome.time_s is not None
                    else "       -"
                )
                lines.append(
                    f"   [{stamp}] OUTCOME {outcome.name}"
                    + (" [gate]" if outcome.gate else "")
                    + f": {outcome.status.upper()}"
                    + (f" ({outcome.detail})" if outcome.detail else "")
                )
        path = self.branch_path()
        if path:
            lines.append("branch path: " + "; ".join(path))
        verdict = "PASS" if self.passed else "FAIL"
        scored = [o for o in self.outcome_records if not o.gate]
        lines.append(
            f"=== verdict: {verdict} "
            f"({sum(1 for o in scored if o.passed)}/{len(scored)} outcomes) ==="
        )
        return "\n".join(lines)
