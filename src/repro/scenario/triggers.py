"""Declarative phase triggers: when a scenario phase becomes live.

Triggers are *armed* against a running range by the scenario engine and
call back exactly once (unless ``repeat=True``) when their firing
condition is met:

* :func:`at` — a fixed virtual time offset from scenario start.
* :func:`when` — a data-plane condition.  Compiled to
  ``PointRegistry.subscribe`` delta callbacks: the condition is
  re-evaluated only when one of its input points actually changes value,
  so an idle condition costs **zero** kernel events and zero polling.
  Supports rising-edge (default) or level semantics plus a hysteresis
  re-arm band for repeatable triggers.
* :func:`after` — a delay from the completion of another phase (sequencing
  without wall-clock guessing).
* :func:`all_of` / :func:`any_of` — combinators over other triggers;
  conditions given to them are wrapped in :func:`when` automatically.

Arming a ``when`` trigger installs only registry subscriptions — no
simulator events.  The engine routes every fire through a scheduled
``scenario:*``-labelled event, so kernel per-label accounting shows
exactly how many events the scenario layer cost (and that an un-fired
trigger cost none).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, Sequence, Union

from repro.pointdb.registry import PointHandle
from repro.scenario.conditions import (
    Comparison,
    Condition,
    parse_condition,
)

FireFn = Callable[[str], None]
"""Engine callback: ``fire(reason)`` — the trigger has gone off."""


class TriggerError(Exception):
    """Trigger misuse (bad arming, unknown phase reference, ...)."""


class TriggerHost(Protocol):
    """What a trigger needs from the scenario engine to arm itself."""

    def schedule_at_s(
        self, time_s: float, callback: Callable[[], None], label: str
    ) -> Any: ...

    def schedule_in_s(
        self, delay_s: float, callback: Callable[[], None], label: str
    ) -> Any: ...

    def resolve_point(self, key: str) -> PointHandle: ...

    def read_point(self, key: str) -> Any: ...

    def read_handle(self, handle: PointHandle) -> Any: ...

    def subscribe_point(
        self, handle: PointHandle, callback: Callable[[PointHandle, Any], None]
    ) -> None: ...

    def unsubscribe_point(
        self, handle: PointHandle, callback: Callable[[PointHandle, Any], None]
    ) -> None: ...

    def on_phase_complete(
        self, phase_name: str, callback: Callable[[float], None]
    ) -> None: ...

    def trigger_label(self) -> str: ...


class Trigger:
    """Abstract trigger; subclasses implement :meth:`arm` / :meth:`disarm`."""

    repeat: bool = False

    def arm(self, host: TriggerHost, fire: FireFn) -> None:
        raise NotImplementedError

    def disarm(self) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def to_spec(self) -> Union[dict, float, str]:
        """The declarative spec form of this trigger (inverse of
        ``Scenario.from_spec``'s trigger parser).  Raises
        :class:`TriggerError` for triggers that are not expressible as
        portable data (e.g. compound python conditions)."""
        raise TriggerError(
            f"{type(self).__name__} has no declarative spec form"
        )


class AtTrigger(Trigger):
    """Fire at a fixed offset (seconds) from scenario start.

    A phase armed by *branch routing* (an ``on_pass``/``on_fail``/
    ``on_timeout`` edge) interprets the offset relative to the instant it
    was routed to, not scenario start — the engine supplies the epoch.
    """

    def __init__(self, time_s: float) -> None:
        if time_s < 0:
            raise TriggerError(f"at() time must be >= 0, got {time_s}")
        self.time_s = float(time_s)
        self._event = None

    def arm(self, host: TriggerHost, fire: FireFn) -> None:
        self._event = host.schedule_at_s(
            self.time_s,
            lambda: fire(f"t={self.time_s:g}s"),
            host.trigger_label(),
        )

    def disarm(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def describe(self) -> str:
        return f"at {self.time_s:g}s"

    def to_spec(self) -> dict:
        return {"at": self.time_s}


class WhenTrigger(Trigger):
    """Fire when a point condition becomes true (delta-subscription driven).

    State machine (``mode="rising"``, the default):

    * **armed** — waiting for a false→true transition of the condition.  If
      the condition is already true at arm time it does *not* fire; it must
      first exit the hysteresis band (become cleanly false) and rise again.
    * **fired** — the condition went true; ``fire()`` ran.  A one-shot
      trigger unsubscribes here.  A ``repeat`` trigger waits for
      :meth:`Condition.rearm_ready` (value out of the band) and re-arms.

    ``mode="level"`` fires immediately at arm time if the condition already
    holds; otherwise it behaves like rising mode for the first fire.

    Because evaluation happens inside registry delta callbacks, a value
    republished *unchanged* never reaches the trigger at all — that is the
    data plane's suppression guarantee, inherited here.
    """

    def __init__(
        self,
        condition: Union[Condition, str],
        mode: str = "rising",
        repeat: bool = False,
        hysteresis: Optional[float] = None,
    ) -> None:
        if isinstance(condition, str):
            condition = parse_condition(condition)
        if hysteresis is not None:
            if not isinstance(condition, Comparison):
                raise TriggerError(
                    "hysteresis applies to comparison conditions only"
                )
            condition = condition.with_hysteresis(hysteresis)
        if mode not in ("rising", "level"):
            raise TriggerError(f"mode must be 'rising' or 'level', got {mode!r}")
        self.condition = condition
        self.mode = mode
        self.repeat = repeat
        self._host: Optional[TriggerHost] = None
        self._fire: Optional[FireFn] = None
        self._handles: list[PointHandle] = []
        #: Handle-based reader bound at arm time: condition evaluation on
        #: the notification path must not re-hash point keys (PR 1).
        self._read: Optional[Callable[[str], Any]] = None
        self._subscribed = False
        #: True while waiting for the band exit before the next fire.
        self._blocked = False
        self.fire_count = 0

    # ------------------------------------------------------------------
    def arm(self, host: TriggerHost, fire: FireFn) -> None:
        self._host = host
        self._fire = fire
        by_key = {
            key: host.resolve_point(key) for key in self.condition.keys()
        }
        self._handles = list(by_key.values())
        self._read = lambda key: host.read_handle(by_key[key])
        for handle in self._handles:
            host.subscribe_point(handle, self._on_change)
        self._subscribed = True
        # Initial state: a level trigger fires right away when already true;
        # a rising trigger treats "already true" as blocked until the value
        # exits the band (no phantom edge at arm time).
        if self.condition.evaluate(self._read):
            if self.mode == "level":
                self._fired("level condition already true at arm")
            else:
                self._blocked = True

    def disarm(self) -> None:
        if self._subscribed and self._host is not None:
            for handle in self._handles:
                self._host.unsubscribe_point(handle, self._on_change)
        self._subscribed = False
        self._blocked = False

    # ------------------------------------------------------------------
    def _on_change(self, _handle: PointHandle, _value: Any) -> None:
        read = self._read
        if read is None or not self._subscribed:
            return
        if self._blocked:
            # Fired (or armed-high) — only a clean band exit re-arms.
            if self.condition.rearm_ready(read):
                self._blocked = False
            return
        if self.condition.evaluate(read):
            self._fired("condition became true")

    def _fired(self, reason: str) -> None:
        self.fire_count += 1
        if self.repeat:
            self._blocked = True
        fire = self._fire
        assert fire is not None
        if not self.repeat:
            self.disarm()
        fire(f"{self.condition.describe()}: {reason}")

    def describe(self) -> str:
        text = f"when {self.condition.describe()}"
        if self.mode != "rising":
            text += f" [{self.mode}]"
        if self.repeat:
            text += " [repeat]"
        return text

    def to_spec(self) -> dict:
        spec: dict = {"when": self.condition.to_spec_str()}
        if self.mode != "rising":
            spec["mode"] = self.mode
        if self.repeat:
            spec["repeat"] = True
        hysteresis = getattr(self.condition, "hysteresis", 0.0)
        if hysteresis:
            spec["hysteresis"] = hysteresis
        return spec


class AfterTrigger(Trigger):
    """Fire ``delay_s`` after another phase completes."""

    def __init__(self, phase: str, delay_s: float = 0.0) -> None:
        if delay_s < 0:
            raise TriggerError(f"after() delay must be >= 0, got {delay_s}")
        self.phase = phase
        self.delay_s = float(delay_s)
        self._event = None
        self._armed = False

    def arm(self, host: TriggerHost, fire: FireFn) -> None:
        self._armed = True
        # Captured now: by completion time the engine is no longer arming
        # this phase and the label would lose its ':<phase>' suffix.
        label = host.trigger_label()

        def on_complete(_completed_at_s: float) -> None:
            if not self._armed:
                return
            # The callback runs at the completion instant itself (or, for a
            # branch-routed phase whose reference already completed, at the
            # instant of routing) — a relative delay is exact in both cases.
            self._event = host.schedule_in_s(
                self.delay_s,
                lambda: fire(
                    f"{self.delay_s:g}s after phase {self.phase!r}"
                ),
                label,
            )

        host.on_phase_complete(self.phase, on_complete)

    def disarm(self) -> None:
        self._armed = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def describe(self) -> str:
        return f"{self.delay_s:g}s after {self.phase!r}"

    def to_spec(self) -> dict:
        spec: dict = {"after": self.phase}
        if self.delay_s:
            spec["delay"] = self.delay_s
        return spec


def _as_trigger(item: Union[Trigger, Condition, str]) -> Trigger:
    if isinstance(item, Trigger):
        return item
    return WhenTrigger(item)


class _Combinator(Trigger):
    def __init__(self, items: Sequence[Union[Trigger, Condition, str]]) -> None:
        if not items:
            raise TriggerError("combinator needs at least one child trigger")
        self.children = [_as_trigger(item) for item in items]
        self._fired_children: set[int] = set()
        self._fire: Optional[FireFn] = None
        self._done = False

    def disarm(self) -> None:
        for child in self.children:
            child.disarm()


class AllOfTrigger(_Combinator):
    """Fire once every child trigger has fired (a barrier)."""

    def arm(self, host: TriggerHost, fire: FireFn) -> None:
        self._fire = fire
        self._done = False
        self._fired_children.clear()
        for index, child in enumerate(self.children):
            child.arm(host, self._child_fired(index))

    def _child_fired(self, index: int) -> FireFn:
        def on_fire(_reason: str) -> None:
            if self._done:
                return
            self._fired_children.add(index)
            if len(self._fired_children) == len(self.children):
                self._done = True
                assert self._fire is not None
                self._fire("all child triggers fired")

        return on_fire

    def describe(self) -> str:
        return "all of (" + "; ".join(c.describe() for c in self.children) + ")"

    def to_spec(self) -> dict:
        return {"all_of": [child.to_spec() for child in self.children]}


class AnyOfTrigger(_Combinator):
    """Fire on the first child trigger; the rest are disarmed."""

    def arm(self, host: TriggerHost, fire: FireFn) -> None:
        self._fire = fire
        self._done = False
        self._fired_children.clear()
        for child in self.children:
            child.arm(host, self._child_fired(child))

    def _child_fired(self, fired_child: Trigger) -> FireFn:
        def on_fire(reason: str) -> None:
            if self._done:
                return
            self._done = True
            for child in self.children:
                if child is not fired_child:
                    child.disarm()
            assert self._fire is not None
            self._fire(reason)

        return on_fire

    def describe(self) -> str:
        return "any of (" + "; ".join(c.describe() for c in self.children) + ")"

    def to_spec(self) -> dict:
        return {"any_of": [child.to_spec() for child in self.children]}


# ---------------------------------------------------------------------------
# Public factory spelling (the API surface scenarios are written against)
# ---------------------------------------------------------------------------


def at(time_s: float) -> AtTrigger:
    """Trigger at a fixed scenario-time offset (seconds)."""
    return AtTrigger(time_s)


def when(
    condition: Union[Condition, str],
    mode: str = "rising",
    repeat: bool = False,
    hysteresis: Optional[float] = None,
) -> WhenTrigger:
    """Trigger on a data-plane condition (zero cost while idle)."""
    return WhenTrigger(condition, mode=mode, repeat=repeat, hysteresis=hysteresis)


def after(phase: str, delay_s: float = 0.0) -> AfterTrigger:
    """Trigger a delay after another phase completes."""
    return AfterTrigger(phase, delay_s)


def all_of(*items: Union[Trigger, Condition, str]) -> AllOfTrigger:
    return AllOfTrigger(items)


def any_of(*items: Union[Trigger, Condition, str]) -> AnyOfTrigger:
    return AnyOfTrigger(items)
