"""Event broker: fan one live range's events out to bounded queues.

A :class:`EventBroker` attaches to a running :class:`~repro.range.CyberRange`
and turns its internal callbacks into a single stream of JSON-friendly
event dicts, multiplexed onto any number of :class:`Subscription` queues:

===========  ===========================================================
channel      source
===========  ===========================================================
``points``   :meth:`~repro.pointdb.PointRegistry.subscribe_all` — every
             point delta the registry flushes (including keys interned
             mid-session by scenarios)
``phases``   :meth:`~repro.scenario.engine.ScenarioRun.set_observer` —
             scenario_started / phase_fired / phase_verdict / branch /
             scenario_finished
``alarms``   ``ScadaHmi.alarm_observer`` — HIGH/LOW/RETURN_TO_NORMAL/
             COMMAND/QUALITY alarm events from every HMI
``actions``  injected action acknowledgements (published by the session)
``stats``    a periodic in-simulation task snapshotting
             ``multicast_group_stats`` + data-plane counters
``session``  lifecycle transitions (published by the session/manager)
===========  ===========================================================

Every event carries ``seq`` (per-broker monotonic), ``time_s`` (virtual
time at emission) and ``channel``.  Subscriber queues are bounded deques:
when a slow consumer falls behind, the *oldest* events are dropped and
counted per subscription (``dropped``) — backpressure never blocks the
simulation, and the accounting makes the loss visible on the wire
(``dropped`` is reported in stream keepalives and session stats).

The broker's callbacks only append to queues — they never mutate range
state — so an attached broker cannot perturb a run's point history or
scenario verdicts (the pause/resume determinism suite relies on this).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.kernel import SECOND
from repro.range import CyberRange

#: Channels a subscription may select.
CHANNELS = ("points", "phases", "alarms", "actions", "stats", "session")

DEFAULT_QUEUE_DEPTH = 2048
DEFAULT_STATS_PERIOD_S = 1.0


class BrokerError(Exception):
    """Broker misuse (bad channel set, double attach)."""


class Subscription:
    """One consumer's bounded view of the broker's event stream."""

    def __init__(
        self,
        broker: "EventBroker",
        channels: frozenset[str],
        depth: int,
    ) -> None:
        self.broker = broker
        self.channels = channels
        self.depth = depth
        self._events: deque[dict] = deque(maxlen=depth)
        #: Events discarded because the consumer fell ``depth`` behind.
        self.dropped = 0
        #: Drop counts per channel — a stalled consumer can see *which*
        #: stream it is losing (surfaced in keepalive frames).
        self.dropped_by_channel: dict[str, int] = {}
        #: Events handed to the consumer via :meth:`take`.
        self.delivered = 0
        self.closed = False
        self._notify: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def set_notify(self, callback: Optional[Callable[[], None]]) -> None:
        """Call ``callback()`` (cheaply, possibly often) when events land.

        The WebSocket pump sets an ``asyncio.Event`` here so it can sleep
        until there is something to send instead of polling.
        """
        self._notify = callback

    def _offer(self, event: dict) -> None:
        if len(self._events) == self.depth:
            self.dropped += 1  # deque(maxlen) evicts the oldest
            victim = self._events[0].get("channel", "")
            self.dropped_by_channel[victim] = (
                self.dropped_by_channel.get(victim, 0) + 1
            )
        self._events.append(event)
        if self._notify is not None:
            self._notify()

    # ------------------------------------------------------------------
    def take(self, limit: Optional[int] = None) -> list[dict]:
        """Drain up to ``limit`` queued events (all of them by default)."""
        count = len(self._events) if limit is None else min(limit, len(self._events))
        batch = [self._events.popleft() for _ in range(count)]
        self.delivered += len(batch)
        return batch

    def __len__(self) -> int:
        return len(self._events)

    def close(self) -> None:
        self.closed = True
        self._notify = None
        self.broker._detach_subscription(self)


class EventBroker:
    """Fans a live range's events out to bounded subscriber queues."""

    def __init__(
        self,
        *,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        stats_period_s: float = DEFAULT_STATS_PERIOD_S,
    ) -> None:
        if queue_depth <= 0:
            raise BrokerError(f"queue_depth must be positive, got {queue_depth}")
        self.queue_depth = queue_depth
        self.stats_period_s = stats_period_s
        self._subscriptions: list[Subscription] = []
        self._range: Optional[CyberRange] = None
        self._stats_task = None
        #: Events published per channel (lifetime of the broker).
        self.published: dict[str, int] = {name: 0 for name in CHANNELS}
        self._seq = 0

    # ------------------------------------------------------------------
    # Attachment to a range
    # ------------------------------------------------------------------
    def attach(self, cyber_range: CyberRange) -> None:
        """Hook the range's registry, HMIs and stats tick.

        Scenario runs are hooked per-run (see
        :meth:`~repro.service.session.RangeSession.start_scenario`) because
        ``ScenarioRun`` objects are created after attach.
        """
        if self._range is not None:
            raise BrokerError("broker is already attached to a range")
        self._range = cyber_range
        cyber_range.pointdb.subscribe_all(self._on_point)
        for hmi in cyber_range.hmis.values():
            hmi.alarm_observer = self._on_alarm
        if self.stats_period_s > 0:
            self._stats_task = cyber_range.simulator.every(
                int(self.stats_period_s * SECOND),
                self._on_stats_tick,
                label="service:stats",
            )

    def detach(self) -> None:
        """Unhook everything (idempotent); queued events stay readable."""
        cyber_range, self._range = self._range, None
        if cyber_range is None:
            return
        if self._stats_task is not None:
            self._stats_task.stop()
            self._stats_task = None
        cyber_range.pointdb.unsubscribe_all(self._on_point)
        for hmi in cyber_range.hmis.values():
            if hmi.alarm_observer is self._on_alarm:
                hmi.alarm_observer = None

    @property
    def attached(self) -> bool:
        return self._range is not None

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, channel: str, data: dict) -> None:
        """Stamp ``data`` and offer it to every matching subscription."""
        if channel not in self.published:
            raise BrokerError(f"unknown channel {channel!r}")
        self.published[channel] += 1
        if not self._subscriptions:
            return
        self._seq += 1
        event = {
            "seq": self._seq,
            "channel": channel,
            "time_s": self._now_s(),
            **data,
        }
        for subscription in self._subscriptions:
            if channel in subscription.channels:
                subscription._offer(event)

    def _now_s(self) -> float:
        if self._range is None:
            return 0.0
        return self._range.simulator.now / SECOND

    def _on_point(self, handle, value: Any) -> None:
        self.publish("points", {"point": handle.key, "value": value})

    def _on_alarm(self, event) -> None:  # ScadaHmi.AlarmEvent
        self.publish(
            "alarms",
            {
                "point": event.point,
                "kind": event.kind,
                "value": event.value,
                "raised_s": event.time_us / SECOND,
            },
        )

    def scenario_observer(self, payload: dict) -> None:
        """Adapter for :meth:`ScenarioRun.set_observer` (phases channel)."""
        self.publish("phases", payload)

    def _on_stats_tick(self) -> None:
        cyber_range = self._range
        if cyber_range is None:
            return
        self.publish(
            "stats",
            {
                "multicast_groups": cyber_range.multicast_group_stats(),
                "data_plane": cyber_range.data_plane_stats(),
            },
        )

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self,
        channels: Optional[list[str]] = None,
        depth: Optional[int] = None,
    ) -> Subscription:
        """Open a bounded queue over ``channels`` (all by default)."""
        selected = frozenset(channels) if channels else frozenset(CHANNELS)
        unknown = selected - frozenset(CHANNELS)
        if unknown:
            raise BrokerError(
                f"unknown channels {sorted(unknown)}; valid: {list(CHANNELS)}"
            )
        subscription = Subscription(self, selected, depth or self.queue_depth)
        self._subscriptions.append(subscription)
        return subscription

    def _detach_subscription(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    def stats(self) -> dict:
        """Broker-level accounting for the session stats endpoint."""
        dropped_by_channel: dict[str, int] = {}
        for subscription in self._subscriptions:
            for channel, count in subscription.dropped_by_channel.items():
                dropped_by_channel[channel] = (
                    dropped_by_channel.get(channel, 0) + count
                )
        return {
            "subscribers": len(self._subscriptions),
            "published": dict(self.published),
            "dropped_total": sum(s.dropped for s in self._subscriptions),
            "dropped_by_channel": dropped_by_channel,
        }
