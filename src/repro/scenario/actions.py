"""Scenario actions: what a phase does when its trigger fires.

Actions wrap the range's existing primitives — attack tooling from
:mod:`repro.attacks`, HMI operator commands, raw point writes and
observations — behind one uniform ``execute(cyber_range)`` interface so
phases can mix red/blue/white steps freely and the engine can log every
step with the same after-action semantics (an action that raises is a
logged failure, not a harness crash).

Every action here is also constructible from the declarative spec parsed
by ``Scenario.from_spec`` (see :func:`action_from_spec`), which is what
makes scenario files portable artifacts rather than python code.

:class:`Outcome` is the pass/fail side: a named check (a condition string
/ object or a callable on the range) evaluated a configurable delay after
the phase's actions ran, producing the structured scoring records in the
after-action report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.attacks.fci import FalseCommandInjector
from repro.attacks.mitm import MeasurementSpoofer, MitmPipeline
from repro.scenario.conditions import Condition, parse_condition

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.range import CyberRange

ActionFn = Callable[["CyberRange"], Any]


class ActionError(Exception):
    """Malformed action spec."""


class Action:
    """One executable scenario step.

    Subclasses carry a ``description`` field (shown in the after-action
    log) and implement :meth:`execute`.
    """

    description: str

    def execute(self, cyber_range: "CyberRange") -> Any:
        raise NotImplementedError

    def to_spec(self) -> dict:
        """The declarative ``{kind: params}`` form (inverse of
        :func:`action_from_spec`).  Actions wrapping arbitrary python
        callables are code, not data, and raise :class:`ActionError`."""
        raise ActionError(
            f"{type(self).__name__} has no declarative spec form"
        )


@dataclass
class CallAction(Action):
    """Arbitrary callable on the range (the ``Phase.do(fn)`` escape hatch)."""

    description: str
    fn: ActionFn

    def execute(self, cyber_range: "CyberRange") -> Any:
        return self.fn(cyber_range)


@dataclass
class OperateAction(Action):
    """Blue-team HMI command on a writable SCADA point."""

    hmi: str
    point: str
    value: Any
    description: str = ""

    def __post_init__(self) -> None:
        if not self.description:
            self.description = f"HMI {self.hmi}: operate {self.point} = {self.value}"

    def execute(self, cyber_range: "CyberRange") -> Any:
        hmi = cyber_range.hmis.get(self.hmi)
        if hmi is None:
            raise ActionError(f"unknown HMI {self.hmi!r}")
        hmi.operate(self.point, self.value)
        return f"{self.point} <- {self.value}"

    def to_spec(self) -> dict:
        params = {"hmi": self.hmi, "point": self.point, "value": self.value}
        auto = f"HMI {self.hmi}: operate {self.point} = {self.value}"
        if self.description != auto:
            params["description"] = self.description
        return {"operate": params}


@dataclass
class WritePointAction(Action):
    """White-cell write straight into the point database.

    Command keys (``cmd/<load>/scale``, ``cmd/<breaker>/close``) are drained
    by the co-simulation tick, so this is how a scenario injects load steps
    and forced contingencies without going through a protocol client.
    """

    key: str
    value: Any
    writer: str = "scenario"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.description:
            self.description = f"write {self.key} = {self.value}"

    def execute(self, cyber_range: "CyberRange") -> Any:
        pointdb = cyber_range.pointdb
        handle = pointdb.resolve(self.key)
        if self.key.startswith("cmd/"):
            pointdb.write_command(
                handle,
                self.value,
                writer=self.writer,
                time_us=cyber_range.simulator.now,
            )
        else:
            pointdb.write_now(handle, self.value)
        return f"{self.key} <- {self.value}"

    def to_spec(self) -> dict:
        params: dict = {"key": self.key, "value": self.value}
        if self.writer != "scenario":
            params["writer"] = self.writer
        if self.description != f"write {self.key} = {self.value}":
            params["description"] = self.description
        return {"write_point": params}


@dataclass
class RecordAction(Action):
    """White-cell observation: snapshot a measurement into the log."""

    key: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.description:
            self.description = f"record {self.key}"

    def execute(self, cyber_range: "CyberRange") -> Any:
        return f"{self.key} = {cyber_range.measurement(self.key):.4f}"

    def to_spec(self) -> dict:
        params: dict = {"key": self.key}
        if self.description != f"record {self.key}":
            params["description"] = self.description
        return {"record": params}


@dataclass
class InjectBreakerAction(Action):
    """Red-team false command injection (CrashOverride-style MMS write).

    Lazily attaches an attacker host to ``switch`` on first use (reusing an
    existing host of the same name) and drives a
    :class:`~repro.attacks.fci.FalseCommandInjector` from it.
    """

    server_ip: str
    ied: str
    close: bool = False
    attacker: str = "red1"
    switch: str = ""
    description: str = ""
    _injector: Any = field(default=None, repr=False, compare=False)
    _injector_range: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.description:
            verb = "close" if self.close else "open"
            self.description = (
                f"FCI: MMS breaker-{verb} against {self.ied} ({self.server_ip})"
            )

    def _get_injector(self, cyber_range: "CyberRange") -> Any:
        # The injector binds to one range's attacker host; a scenario
        # re-run against a different range must not reuse it.
        if self._injector is None or self._injector_range is not cyber_range:
            host = cyber_range.network.hosts.get(self.attacker)
            if host is None:
                if not self.switch:
                    raise ActionError(
                        f"attacker {self.attacker!r} does not exist and no "
                        "switch was given to attach it to"
                    )
                host = cyber_range.add_attacker(self.switch, name=self.attacker)
            self._injector = FalseCommandInjector(host)
            self._injector_range = cyber_range
        return self._injector

    def execute(self, cyber_range: "CyberRange") -> Any:
        injector = self._get_injector(cyber_range)
        if self.close:
            result = injector.close_breaker(self.server_ip, self.ied)
        else:
            result = injector.open_breaker(self.server_ip, self.ied)
        return result.reference

    def to_spec(self) -> dict:
        params: dict = {"server_ip": self.server_ip, "ied": self.ied}
        if self.close:
            params["close"] = True
        if self.attacker != "red1":
            params["attacker"] = self.attacker
        if self.switch:
            params["switch"] = self.switch
        verb = "close" if self.close else "open"
        auto = f"FCI: MMS breaker-{verb} against {self.ied} ({self.server_ip})"
        if self.description != auto:
            params["description"] = self.description
        return {"inject_breaker": params}


@dataclass
class MitmSpoofAction(Action):
    """Red-team ARP-spoofing MITM with optional measurement falsification.

    Attaches (or reuses) an attacker host on ``switch``, poisons the two
    victims' ARP caches with a :class:`~repro.attacks.mitm.MitmPipeline`
    and — when ``ref`` is given — rewrites that MMS object reference to
    ``value`` in intercepted responses (the paper's Fig. 6 falsification).
    The pipeline stays up for the rest of the run: red-team persistence is
    part of the exercise, and a later phase can strike from the on-path
    ``attacker`` host while the operator is blind.
    """

    victim_a_ip: str
    victim_b_ip: str
    attacker: str = "spy"
    switch: str = ""
    ref: str = ""
    value: float = 0.0
    description: str = ""
    _pipeline: Any = field(default=None, repr=False, compare=False)
    _pipeline_range: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.description:
            self.description = self._auto_description()

    def _auto_description(self) -> str:
        text = f"MITM: ARP-spoof {self.victim_a_ip} <-> {self.victim_b_ip}"
        if self.ref:
            text += f", falsify {self.ref} = {self.value:g}"
        return text

    def execute(self, cyber_range: "CyberRange") -> Any:
        # One pipeline per range: re-running against a fresh range must
        # not reuse a host bound to the old one (InjectBreakerAction idiom).
        if self._pipeline is None or self._pipeline_range is not cyber_range:
            host = cyber_range.network.hosts.get(self.attacker)
            if host is None:
                if not self.switch:
                    raise ActionError(
                        f"attacker {self.attacker!r} does not exist and no "
                        "switch was given to attach it to"
                    )
                host = cyber_range.add_attacker(self.switch, name=self.attacker)
            transform = (
                MeasurementSpoofer({self.ref: self.value}) if self.ref else None
            )
            self._pipeline = MitmPipeline(
                host, self.victim_a_ip, self.victim_b_ip, transform=transform
            )
            self._pipeline_range = cyber_range
            self._pipeline.start()
        return f"on-path between {self.victim_a_ip} and {self.victim_b_ip}"

    def to_spec(self) -> dict:
        params: dict = {
            "victim_a_ip": self.victim_a_ip,
            "victim_b_ip": self.victim_b_ip,
        }
        if self.attacker != "spy":
            params["attacker"] = self.attacker
        if self.switch:
            params["switch"] = self.switch
        if self.ref:
            params["ref"] = self.ref
            params["value"] = self.value
        if self.description != self._auto_description():
            params["description"] = self.description
        return {"mitm_spoof": params}


#: Outcome check: a condition over points, or any predicate on the range.
CheckFn = Callable[["CyberRange"], bool]


@dataclass
class Outcome:
    """A named pass/fail check scored ``after_s`` seconds past phase fire.

    ``gate=True`` marks a *gating* outcome: it still determines the owning
    phase's verdict (and therefore which ``on_pass``/``on_fail`` branch is
    taken) but is excluded from :attr:`ScenarioRun.passed` — the training
    verdict of an *adaptive* scenario should score the path it actually
    took, not punish the probe that chose it.
    """

    name: str
    check: Union[Condition, str, CheckFn]
    after_s: float = 0.0
    gate: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.check, str):
            self.check = parse_condition(self.check)
        if self.after_s < 0:
            raise ActionError("outcome after_s must be >= 0")

    def evaluate(self, cyber_range: "CyberRange") -> tuple[bool, str]:
        """Returns (passed, detail)."""
        if isinstance(self.check, Condition):
            passed = self.check.evaluate(cyber_range.pointdb.get)
            return passed, self.check.describe()
        result = self.check(cyber_range)
        return bool(result), f"predicate -> {result!r}"

    def to_spec(self) -> dict:
        if not isinstance(self.check, Condition):
            raise ActionError(
                f"outcome {self.name!r} checks a python callable and has "
                "no declarative spec form"
            )
        spec: dict = {"name": self.name, "check": self.check.to_spec_str()}
        if self.after_s:
            spec["after_s"] = self.after_s
        if self.gate:
            spec["gate"] = True
        return spec


# ---------------------------------------------------------------------------
# Declarative spec construction
# ---------------------------------------------------------------------------

#: (builder, allowed param keys) per action kind.  Unknown keys are
#: rejected: a typo in a portable scenario file must fail loudly, not
#: silently fall back to a default.
_ACTION_BUILDERS: dict[str, tuple[Callable[[dict], Action], frozenset]] = {
    "operate": (
        lambda spec: OperateAction(
            hmi=spec["hmi"],
            point=spec["point"],
            value=spec["value"],
            description=spec.get("description", ""),
        ),
        frozenset({"hmi", "point", "value", "description"}),
    ),
    "write_point": (
        lambda spec: WritePointAction(
            key=spec["key"],
            value=spec["value"],
            writer=spec.get("writer", "scenario"),
            description=spec.get("description", ""),
        ),
        frozenset({"key", "value", "writer", "description"}),
    ),
    "record": (
        lambda spec: RecordAction(
            key=spec["key"], description=spec.get("description", "")
        ),
        frozenset({"key", "description"}),
    ),
    "inject_breaker": (
        lambda spec: InjectBreakerAction(
            server_ip=spec["server_ip"],
            ied=spec["ied"],
            close=bool(spec.get("close", False)),
            attacker=spec.get("attacker", "red1"),
            switch=spec.get("switch", ""),
            description=spec.get("description", ""),
        ),
        frozenset(
            {"server_ip", "ied", "close", "attacker", "switch", "description"}
        ),
    ),
    "mitm_spoof": (
        lambda spec: MitmSpoofAction(
            victim_a_ip=spec["victim_a_ip"],
            victim_b_ip=spec["victim_b_ip"],
            attacker=spec.get("attacker", "spy"),
            switch=spec.get("switch", ""),
            ref=spec.get("ref", ""),
            value=float(spec.get("value", 0.0)),
            description=spec.get("description", ""),
        ),
        frozenset(
            {"victim_a_ip", "victim_b_ip", "attacker", "switch", "ref",
             "value", "description"}
        ),
    ),
}


def action_from_spec(spec: dict) -> Action:
    """Build an action from one ``{kind: {...params}}`` spec mapping."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ActionError(
            f"action spec must be a single {{kind: params}} mapping, got {spec!r}"
        )
    (kind, params), = spec.items()
    entry = _ACTION_BUILDERS.get(kind)
    if entry is None:
        raise ActionError(
            f"unknown action kind {kind!r} "
            f"(known: {sorted(_ACTION_BUILDERS)})"
        )
    builder, allowed = entry
    if not isinstance(params, dict):
        raise ActionError(f"action {kind!r} params must be a mapping")
    unknown = set(params) - allowed
    if unknown:
        raise ActionError(
            f"action {kind!r} has unknown fields {sorted(unknown)}"
        )
    try:
        return builder(params)
    except KeyError as exc:
        raise ActionError(f"action {kind!r} is missing field {exc}") from None


def outcome_from_spec(spec: dict) -> Outcome:
    if not isinstance(spec, dict) or "name" not in spec or "check" not in spec:
        raise ActionError(
            f"outcome spec needs 'name' and 'check' fields, got {spec!r}"
        )
    unknown = set(spec) - {"name", "check", "after_s", "gate"}
    if unknown:
        raise ActionError(
            f"outcome {spec['name']!r} has unknown fields {sorted(unknown)}"
        )
    return Outcome(
        name=spec["name"],
        check=spec["check"],
        after_s=float(spec.get("after_s", 0.0)),
        gate=bool(spec.get("gate", False)),
    )
