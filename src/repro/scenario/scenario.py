"""The declarative Scenario model: named phases, triggers, actions, outcomes.

A :class:`Scenario` is the first-class experiment/training artifact (the
paper's "automated generation of cybersecurity experiments and training").
Each :class:`Phase` is armed by a trigger (:func:`~repro.scenario.
triggers.at`, :func:`~repro.scenario.triggers.when`, :func:`~repro.
scenario.triggers.after`, ``all_of`` / ``any_of``) and carries an ordered
list of actions plus optional scored outcomes.

Construction styles:

* **Fluent python** — ``Scenario("drill").phase("strike", when("meas/TIE1/
  loading > 80")).action(...).outcome(...)``
* **Declarative spec** — :meth:`Scenario.from_spec` consumes a plain dict
  (JSON/YAML-shaped; the ``sgml scenario`` CLI subcommand loads such files),
  making scenarios portable data rather than code.

Phases triggered at the same ``at()`` instant fire and log in declaration
order: the engine arms phases, and the kernel fires same-instant events,
in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

from repro.scenario.actions import (
    Action,
    ActionFn,
    CallAction,
    Outcome,
    action_from_spec,
    outcome_from_spec,
)
from repro.scenario.conditions import Condition
from repro.scenario.engine import ScenarioRun
from repro.scenario.triggers import (
    AfterTrigger,
    AllOfTrigger,
    AnyOfTrigger,
    AtTrigger,
    Trigger,
    WhenTrigger,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.range import CyberRange


class ScenarioError(Exception):
    """Malformed scenario definition or spec."""


@dataclass
class Phase:
    """One named stage of a scenario.

    Branch edges (``on_pass`` / ``on_fail`` / ``on_timeout``) turn the
    phase list into an **outcome-conditioned graph**: once this phase's
    outcomes are scored, the engine routes to the named phase.  A phase
    referenced by any edge starts *dormant* — its trigger is not armed
    (and costs nothing, not even a registry subscription) until an edge
    routes to it.  ``timeout_s`` bounds the arming window: if the trigger
    has not fired that many seconds after arming, the phase is disarmed
    and the ``on_timeout`` edge (if any) is taken.  ``max_visits`` bounds
    how many times routing may (re-)arm the phase, so cyclic graphs
    (retry loops) always terminate.
    """

    name: str
    trigger: Trigger
    team: str = "red"
    actions: list[Action] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    on_pass: str = ""
    on_fail: str = ""
    on_timeout: str = ""
    timeout_s: Optional[float] = None
    max_visits: int = 1

    @property
    def edges(self) -> dict[str, str]:
        """Non-empty branch edges: ``{"on_pass": target, ...}``."""
        return {
            edge: target
            for edge, target in (
                ("on_pass", self.on_pass),
                ("on_fail", self.on_fail),
                ("on_timeout", self.on_timeout),
            )
            if target
        }

    # Fluent builders -------------------------------------------------
    def action(self, action: Union[Action, str], fn: Optional[ActionFn] = None) -> "Phase":
        """Append an action: either an :class:`Action` or ``(description, fn)``."""
        if isinstance(action, Action):
            if fn is not None:
                raise ScenarioError("pass either an Action or (description, fn)")
            self.actions.append(action)
        else:
            if fn is None:
                raise ScenarioError(
                    "string action description needs a callable: "
                    ".action('desc', fn)"
                )
            self.actions.append(CallAction(description=action, fn=fn))
        return self

    def outcome(
        self,
        name: str,
        check: Union[Condition, str, Any],
        after_s: float = 0.0,
    ) -> "Phase":
        """Append a scored pass/fail check evaluated ``after_s`` post-fire."""
        self.outcomes.append(Outcome(name=name, check=check, after_s=after_s))
        return self

    def gate(
        self,
        name: str,
        check: Union[Condition, str, Any],
        after_s: float = 0.0,
    ) -> "Phase":
        """Append a *gating* outcome: routes branches, excluded from the
        run verdict (see :class:`~repro.scenario.actions.Outcome`)."""
        self.outcomes.append(
            Outcome(name=name, check=check, after_s=after_s, gate=True)
        )
        return self

    def branch(
        self,
        on_pass: Optional[str] = None,
        on_fail: Optional[str] = None,
        on_timeout: Optional[str] = None,
        timeout_s: Optional[float] = None,
        max_visits: Optional[int] = None,
    ) -> "Phase":
        """Set branch edges / bounds (fluent; only given fields change)."""
        if on_pass is not None:
            self.on_pass = on_pass
        if on_fail is not None:
            self.on_fail = on_fail
        if on_timeout is not None:
            self.on_timeout = on_timeout
        if timeout_s is not None:
            if timeout_s <= 0:
                raise ScenarioError(
                    f"phase {self.name!r}: timeout_s must be > 0"
                )
            self.timeout_s = float(timeout_s)
        if max_visits is not None:
            if not isinstance(max_visits, int) or max_visits < 1:
                raise ScenarioError(
                    f"phase {self.name!r}: max_visits must be an int >= 1"
                )
            self.max_visits = max_visits
        return self


class Scenario:
    """An ordered set of named phases — the experiment/training artifact."""

    def __init__(
        self,
        name: str = "scenario",
        description: str = "",
        duration_s: Optional[float] = None,
    ) -> None:
        self.name = name
        self.description = description
        #: Suggested run length (seconds); the spec's ``duration_s`` field.
        #: Runners fall back to their own default when unset.
        self.duration_s = duration_s
        self.phases: list[Phase] = []
        self._by_name: dict[str, Phase] = {}

    # ------------------------------------------------------------------
    def add(self, phase: Phase) -> Phase:
        if phase.name in self._by_name:
            raise ScenarioError(f"duplicate phase {phase.name!r}")
        self.phases.append(phase)
        self._by_name[phase.name] = phase
        return phase

    def phase(
        self,
        name: str,
        trigger: Union[Trigger, Condition, str, float, int],
        team: str = "red",
    ) -> Phase:
        """Create, register and return a phase (fluent entry point).

        ``trigger`` may be a :class:`Trigger`, a condition (object or spec
        string — wrapped in ``when()``), or a bare number (wrapped in
        ``at()``).
        """
        if isinstance(trigger, (int, float)):
            trigger = AtTrigger(float(trigger))
        elif isinstance(trigger, (Condition, str)):
            trigger = WhenTrigger(trigger)
        return self.add(Phase(name=name, trigger=trigger, team=team))

    def find_phase(self, name: str) -> Optional[Phase]:
        return self._by_name.get(name)

    # ------------------------------------------------------------------
    # Scenario graph (branch-on-outcome edges)
    # ------------------------------------------------------------------
    def branch_targets(self) -> set[str]:
        """Names of phases referenced by any branch edge (dormant at start)."""
        return {
            target
            for phase in self.phases
            for target in phase.edges.values()
        }

    def root_phases(self) -> list[Phase]:
        """Phases armed at scenario start (not referenced by any edge)."""
        targets = self.branch_targets()
        return [phase for phase in self.phases if phase.name not in targets]

    def validate_graph(self) -> list[str]:
        """Structural checks on the branch graph; returns problems.

        Cycles are *allowed* — every phase's ``max_visits`` is a finite
        bound, so total routing work is bounded by ``sum(max_visits)`` —
        but the graph must have at least one root (a phase no edge points
        at) or nothing would ever arm, and every edge must name a phase
        that exists.
        """
        problems: list[str] = []
        for phase in self.phases:
            for edge, target in phase.edges.items():
                if target not in self._by_name:
                    problems.append(
                        f"phase {phase.name!r}: {edge} references unknown "
                        f"phase {target!r}"
                    )
            if phase.on_timeout and phase.timeout_s is None:
                problems.append(
                    f"phase {phase.name!r}: on_timeout needs timeout_s"
                )
            if phase.timeout_s is not None and phase.timeout_s <= 0:
                problems.append(
                    f"phase {phase.name!r}: timeout_s must be > 0"
                )
            if phase.max_visits < 1:
                problems.append(
                    f"phase {phase.name!r}: max_visits must be >= 1"
                )
        if self.phases and not self.root_phases():
            problems.append(
                "scenario graph has no root phase (every phase is a branch "
                "target; nothing would ever arm)"
            )
        return problems

    def validate_graph_or_raise(self) -> "Scenario":
        problems = self.validate_graph()
        if problems:
            raise ScenarioError(
                f"invalid scenario graph: " + "; ".join(problems)
            )
        return self

    # ------------------------------------------------------------------
    # Graph introspection (static analysis beyond validate_graph)
    # ------------------------------------------------------------------
    def edge_map(self) -> dict[str, dict[str, str]]:
        """``{phase: {"on_pass": target, ...}}`` for every phase."""
        return {phase.name: phase.edges for phase in self.phases}

    def reachable_phases(self) -> set[str]:
        """Names of phases some execution can arm: the roots plus the
        transitive closure of branch edges from them."""
        return reachable_phases(
            [phase.name for phase in self.root_phases()], self.edge_map()
        )

    def unreachable_phases(self) -> list[str]:
        """Declared phases no execution can ever arm (declaration order).

        ``validate_graph`` accepts these — e.g. two phases referencing
        only each other pass the has-a-root check — but they are dead
        weight: no root routes into them.
        """
        reachable = self.reachable_phases()
        return [p.name for p in self.phases if p.name not in reachable]

    def back_edges(self) -> list[tuple[str, str, str]]:
        """Cycle-closing edges as ``(src, edge_kind, target)`` triples:
        every edge whose target can already reach its source."""
        return find_back_edges(self.edge_map())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, cyber_range: "CyberRange", duration_s: float) -> ScenarioRun:
        """Convenience wrapper around :meth:`CyberRange.run_scenario`."""
        return cyber_range.run_scenario(self, duration_s)

    # ------------------------------------------------------------------
    # Declarative spec
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: dict) -> "Scenario":
        """Build a scenario from a JSON/YAML-shaped dict.

        Shape::

            name: tie-overload-drill
            description: ...
            phases:
              - name: stress
                trigger: {at: 1.0}
                team: white
                actions:
                  - write_point: {key: cmd/Load_S2_1/scale, value: 3.0}
              - name: strike
                trigger: {when: "meas/TIE1/loading > 80", hysteresis: 5.0}
                actions:
                  - inject_breaker: {server_ip: 10.0.1.12, ied: S1IED2,
                                     switch: sw-S1LAN}
                outcomes:
                  - {name: tie tripped, check: "not status/CB_S1_TIE/closed",
                     after_s: 1.0}

        Trigger forms: ``{at: seconds}``, ``{when: "<cond>", mode?, repeat?,
        hysteresis?}``, ``{after: <phase>, delay?: seconds}``, ``{all_of:
        [trigger, ...]}``, ``{any_of: [trigger, ...]}``.

        Branch fields (the outcome-conditioned graph): ``on_pass`` /
        ``on_fail`` / ``on_timeout`` name the phase routed to once this
        phase's verdict resolves, ``timeout_s`` bounds the arming window,
        ``max_visits`` bounds re-arming (cycles are legal because every
        phase's visit count is finite).  The graph is validated before
        the scenario is returned.
        """
        if not isinstance(spec, dict):
            raise ScenarioError(f"scenario spec must be a mapping, got {type(spec)}")
        unknown_top = set(spec) - {"name", "description", "duration_s", "phases"}
        if unknown_top:
            raise ScenarioError(
                f"scenario spec has unknown fields {sorted(unknown_top)}"
            )
        scenario = cls(
            name=str(spec.get("name", "scenario")),
            description=str(spec.get("description", "")),
            duration_s=(
                float(spec["duration_s"])
                if spec.get("duration_s") is not None
                else None
            ),
        )
        phases = spec.get("phases")
        if not isinstance(phases, list) or not phases:
            raise ScenarioError("scenario spec needs a non-empty 'phases' list")
        for index, phase_spec in enumerate(phases):
            if not isinstance(phase_spec, dict):
                raise ScenarioError(f"phase #{index} must be a mapping")
            name = phase_spec.get("name")
            if not name:
                raise ScenarioError(f"phase #{index} has no name")
            unknown = set(phase_spec) - {
                "name", "trigger", "team", "actions", "outcomes",
                "on_pass", "on_fail", "on_timeout", "timeout_s", "max_visits",
            }
            if unknown:
                raise ScenarioError(
                    f"phase {name!r} has unknown fields {sorted(unknown)}"
                )
            trigger_spec = phase_spec.get("trigger")
            if trigger_spec is None:
                raise ScenarioError(f"phase {name!r} has no trigger")
            max_visits = phase_spec.get("max_visits", 1)
            if not isinstance(max_visits, int) or isinstance(max_visits, bool) \
                    or max_visits < 1:
                raise ScenarioError(
                    f"phase {name!r}: max_visits must be an int >= 1, "
                    f"got {max_visits!r}"
                )
            phase = Phase(
                name=str(name),
                trigger=_trigger_from_spec(trigger_spec),
                team=str(phase_spec.get("team", "red")),
                on_pass=str(phase_spec.get("on_pass", "")),
                on_fail=str(phase_spec.get("on_fail", "")),
                on_timeout=str(phase_spec.get("on_timeout", "")),
                timeout_s=(
                    float(phase_spec["timeout_s"])
                    if phase_spec.get("timeout_s") is not None
                    else None
                ),
                max_visits=max_visits,
            )
            for action_spec in phase_spec.get("actions", []):
                phase.actions.append(action_from_spec(action_spec))
            for outcome_spec in phase_spec.get("outcomes", []):
                phase.outcomes.append(outcome_from_spec(outcome_spec))
            scenario.add(phase)
        return scenario.validate_graph_or_raise()

    def to_spec(self) -> dict:
        """The declarative dict form of this scenario — the exact inverse
        of :meth:`from_spec` (``from_spec(s.to_spec())`` builds an
        equivalent scenario, and ``to_spec`` is a fixed point:
        ``from_spec(s.to_spec()).to_spec() == s.to_spec()``).

        Raises :class:`ScenarioError` when the scenario contains python
        artifacts with no spec spelling (``CallAction`` callables, compound
        ``&``/``|`` conditions, callable outcome checks) — those scenarios
        are code, not portable training data.
        """
        spec: dict = {"name": self.name}
        if self.description:
            spec["description"] = self.description
        if self.duration_s is not None:
            spec["duration_s"] = self.duration_s
        spec["phases"] = []
        for phase in self.phases:
            try:
                phase_spec = self._phase_to_spec(phase)
            except ScenarioError:
                raise
            except Exception as exc:
                raise ScenarioError(
                    f"phase {phase.name!r} is not spec-serializable: {exc}"
                ) from exc
            spec["phases"].append(phase_spec)
        return spec

    @staticmethod
    def _phase_to_spec(phase: Phase) -> dict:
        phase_spec: dict = {"name": phase.name, "trigger": phase.trigger.to_spec()}
        if phase.team != "red":
            phase_spec["team"] = phase.team
        if phase.actions:
            phase_spec["actions"] = [a.to_spec() for a in phase.actions]
        if phase.outcomes:
            phase_spec["outcomes"] = [o.to_spec() for o in phase.outcomes]
        for edge, target in phase.edges.items():
            phase_spec[edge] = target
        if phase.timeout_s is not None:
            phase_spec["timeout_s"] = phase.timeout_s
        if phase.max_visits != 1:
            phase_spec["max_visits"] = phase.max_visits
        return phase_spec


#: Allowed companion keys per trigger form — a typo ('hysterisis') or two
#: competing forms in one mapping must fail loudly, not half-parse: the
#: spec is a portable training artifact.
_TRIGGER_FIELDS = {
    "at": {"at"},
    "when": {"when", "mode", "repeat", "hysteresis"},
    "after": {"after", "delay"},
    "all_of": {"all_of"},
    "any_of": {"any_of"},
}


def _trigger_from_spec(spec: Union[dict, float, int, str]) -> Trigger:
    """Parse one trigger spec value (strict: unknown keys are errors)."""
    if isinstance(spec, (int, float)):
        return AtTrigger(float(spec))
    if isinstance(spec, str):
        return WhenTrigger(spec)
    if not isinstance(spec, dict) or len(spec) < 1:
        raise ScenarioError(f"cannot parse trigger spec {spec!r}")
    forms = [form for form in _TRIGGER_FIELDS if form in spec]
    if len(forms) != 1:
        raise ScenarioError(
            f"trigger spec {spec!r} must use exactly one of "
            f"{sorted(_TRIGGER_FIELDS)}"
        )
    (form,) = forms
    unknown = set(spec) - _TRIGGER_FIELDS[form]
    if unknown:
        raise ScenarioError(
            f"trigger spec {spec!r} has unknown fields {sorted(unknown)}"
        )
    if form == "at":
        return AtTrigger(float(spec["at"]))
    if form == "when":
        return WhenTrigger(
            spec["when"],
            mode=str(spec.get("mode", "rising")),
            repeat=bool(spec.get("repeat", False)),
            hysteresis=(
                float(spec["hysteresis"]) if "hysteresis" in spec else None
            ),
        )
    if form == "after":
        return AfterTrigger(
            str(spec["after"]), delay_s=float(spec.get("delay", 0.0))
        )
    if form == "all_of":
        return AllOfTrigger([_trigger_from_spec(s) for s in spec["all_of"]])
    return AnyOfTrigger([_trigger_from_spec(s) for s in spec["any_of"]])


def reachable_phases(
    roots: Iterable[str], edges: dict[str, dict[str, str]]
) -> set[str]:
    """Transitive closure of ``edges`` from ``roots`` (module-level so the
    spec analyzer can run it over raw dicts that fail ``from_spec``)."""
    reachable: set[str] = set()
    frontier = list(roots)
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier.extend(edges.get(name, {}).values())
    return reachable


def find_back_edges(
    edges: dict[str, dict[str, str]]
) -> list[tuple[str, str, str]]:
    """Every cycle-closing edge ``(src, edge_kind, target)``: the target
    reaches the source through the graph, so taking the edge re-enters a
    phase already on the current path (bounded only by ``max_visits``)."""
    result: list[tuple[str, str, str]] = []
    for src, src_edges in edges.items():
        for kind, target in src_edges.items():
            if src in reachable_phases([target], edges):
                result.append((src, kind, target))
    return result
