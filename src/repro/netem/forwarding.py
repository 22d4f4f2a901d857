"""Cut-through frame delivery: cached forwarding paths, batched deliveries.

The hop-by-hop emulation (``Port.send`` → ``Link.transmit`` → kernel event →
``Switch.on_frame`` → repeat) is faithful but expensive: every frame costs
one kernel event per link crossing, and a flooded GOOSE/R-SV frame at five
substations crosses ~100 links.  The cut-through plane removes the kernel
from the middle of the journey:

* the forwarding decision tree from ``(ingress port, destination MAC)`` to
  every terminal receiver is computed **once** by walking the switch/link
  graph and cached in a :class:`ForwardingPlane` path cache,
* on the hot path, the cached tree is *executed inline* in plain Python —
  capture records, seeded ``drop_probability`` draws, per-direction
  ``_busy_until`` serialisation queuing, MAC learning and the
  ``tx_count``/``forwarded``/``flooded`` counters are applied hop by hop in
  the exact order and at the exact virtual timestamps the hop-by-hop path
  would have produced,
* only the **terminal deliveries** become kernel events, and receivers that
  share an arrival instant share one event — including receivers of
  *different frames*: all frames arriving anywhere at the same scheduling
  instant coalesce into one ``_flush`` event that runs one decode-dispatch
  loop per receiving host (``Port.deliver_batch``),
* multicast frames consult the network's
  :class:`~repro.netem.multicast.MulticastGroupTable` (via
  ``Switch._forward_decision``), so a registered GOOSE/SV group compiles
  into a path program that terminates only at subscribers, spies and
  captured links instead of flooding every edge port.

Cache invalidation mirrors the incremental power-flow solver (PR 3): a
monotonic revision counter (:class:`ForwardingState`, shared by every link
and switch of a :class:`~repro.netem.network.VirtualNetwork`) is bumped by
link ``set_down``/``set_up``, MAC-table learn/move/eviction, capture
attachment and topology edits.  A cached path additionally records the
earliest ageing deadline of every MAC-table entry it consulted, so a path
through a quietly-expiring entry goes stale on time.

Divergence window (documented contract): the inline walk applies per-hop
side effects at *send* time using the current network state.  A mutation
that lands **while a frame is mid-flight** (a link flap, a MAC learned by
a frame racing ahead) is seen by the hop-by-hop path at per-hop arrival
times but by the cut-through path at send time.  The window is the
end-to-end flight time — micro-seconds on a LAN, milliseconds across the
default 5 ms WAN trunk.  Concretely:

* **up → down** while in flight is compensated: deliveries re-check every
  hop against the flap log (so "frames in flight on a failed link are
  lost" still holds), but per-hop side effects already applied downstream
  of the failed link (MAC learns, counters) are *not* rolled back — a
  phantom MAC entry can persist until it ages or is overwritten,
* **down → up** while in flight is not: a link that is down at send time
  drops the frame at that hop even if it would have recovered by the
  frame's arrival there (deliberate — the opposite choice would apply
  downstream side effects to frames the oracle drops, diverging the far
  more common permanent-outage case).
Likewise, when two frames from *independent* senders contend for the same
link direction within one serialisation window, the cut-through plane
grants the window in send order while the hop-by-hop plane grants it in
per-hop arrival order — a microsecond-bounded timing skew with no loss,
no reordering per sender, and no misdelivery.  The hop-by-hop path stays
available (``VirtualNetwork(cut_through=False)``) as the differential-test
oracle; see ``tests/test_netem_cutthrough.py`` for the equivalence
contract.
"""

from __future__ import annotations

import time
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Optional

from repro.netem.addresses import BROADCAST_MAC, is_multicast_mac
from repro.netem.frames import EthernetFrame
from repro.netem.multicast import group_key
from repro.netem.node import ForwardingState
from repro.netem.switch import MAC_AGEING_US, Switch

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.kernel import Simulator
    from repro.netem.link import Link
    from repro.netem.multicast import MulticastGroupTable
    from repro.netem.node import Port

#: Counter codes compiled into a hop (match Switch counter semantics).
_FWD_NONE = 0
_FWD_FORWARDED = 1
_FWD_FLOODED = 2
_FWD_PRUNED = 3

#: Multicast class of a compiled path's destination, fixed at compile
#: time: group registration and the pruning switch both bump the
#: forwarding revision, so a cached path never outlives its class.
_MCAST_NONE = 0  # unicast or broadcast
_MCAST_PRUNED = 1  # registered group, pruning on
_MCAST_REGISTERED_FLOOD = 2  # registered group, pruning off
_MCAST_FLOOD = 3  # unregistered group (or no group table)

#: Path-cache entries are dropped wholesale past this size (an attacker
#: spraying random destination MACs must not grow the cache unboundedly).
MAX_CACHED_PATHS = 4096

__all__ = ["ForwardingPlane", "ForwardingState", "MAX_CACHED_PATHS"]


#: Field offsets of one compiled crossing (a plain tuple for walk speed):
#: ``(link, busy_until dict, busy key, from_port, to_port, switch|None,
#: counter code, direction)``.
_LINK, _BUSY, _KEY, _FROM, _TO, _SWITCH, _COUNTER, _DIRECTION = range(8)


class _Path:
    """A compiled forwarding tree in flat preorder, plus validity stamp.

    ``flat[i]`` is one link crossing; ``parents[i]`` indexes the crossing
    that feeds it (−1 for the root, which leaves the origin port);
    ``children[i]`` the crossings it feeds, in switch-port order.  Preorder
    guarantees a parent's arrival time is known before any child runs.
    ``terminals`` lists ``(crossing index, host port, upstream chain)``
    per receiver, the chain being the root→terminal crossing indices used
    by the delivery-time link-flap recheck.  ``mcast`` is the
    destination's ``_MCAST_*`` class and ``group`` its per-group delivery
    key (``None`` unless the group is registered).
    """

    __slots__ = ("rev", "expires_at", "flat", "parents", "children",
                 "terminals", "mcast", "group", "_ser_cache")

    def __init__(self, rev: int, expires_at: Optional[int]) -> None:
        self.rev = rev
        self.expires_at = expires_at
        self.flat: list[tuple] = []
        self.parents: list[int] = []
        self.children: list[tuple[int, ...]] = []
        self.terminals: list[tuple[int, "Port", tuple[int, ...]]] = []
        self.mcast = _MCAST_NONE
        self.group: Optional[str] = None
        #: size8 → per-crossing serialisation delays.  A path sees a
        #: handful of frame sizes (GOOSE heartbeats, R-SV samples, ACKs),
        #: so the ``int(size8 / bandwidth)`` per crossing collapses to a
        #: list lookup.  Bandwidth is read live at miss time; the cache
        #: rebuilds with the path on any forwarding-revision bump, and a
        #: direct ``bandwidth_mbps`` write between bumps is a test-only
        #: pattern served by the hop-by-hop oracle.
        self._ser_cache: dict[int, list[int]] = {}

    def serialisation(self, size8: int) -> list[int]:
        delays = self._ser_cache.get(size8)
        if delays is None:
            if len(self._ser_cache) > 64:
                self._ser_cache.clear()
            delays = [
                int(size8 / entry[_LINK].bandwidth_mbps) for entry in self.flat
            ]
            self._ser_cache[size8] = delays
        return delays


class ForwardingPlane:
    """Per-network path cache + inline executor for host-originated frames."""

    def __init__(self, simulator: "Simulator", state: ForwardingState) -> None:
        self.simulator = simulator
        self.state = state
        self._cache: dict[tuple[int, str, Optional[str]], _Path] = {}
        #: Shared multicast group table (set by VirtualNetwork; ``None``
        #: for a standalone plane — multicast floods).
        self.groups: Optional["MulticastGroupTable"] = None
        #: Same-instant delivery coalescing: arrival instant → pending
        #: ``(frame, path, times, sent_at, items, flaps, counted)``
        #: entries, flushed by one kernel event per instant.
        self._pending: dict[int, list[tuple]] = {}
        # Accounting (flows into CyberRange.data_plane_stats and the bench).
        self.sends = 0
        self.path_compiles = 0
        self.cache_hits = 0
        self.delivery_events = 0
        self.deliveries = 0
        self.batched_frames = 0
        self.mcast_pruned_sends = 0
        self.mcast_flooded_sends = 0
        self.crossings = 0
        #: Wall-clock seconds in the forwarding walk (path resolution,
        #: inline hop semantics, event scheduling) — the netem *transport*
        #: cost the bench's share-of-wall metric tracks.
        self.forward_wall_s = 0.0
        #: Wall-clock seconds in terminal delivery events.  Includes the
        #: receiving hosts' protocol stacks (everything downstream of
        #: ``Port.deliver``), so this is endpoint cost, not transport cost.
        self.deliver_wall_s = 0.0

    def drop_caches(self) -> None:
        """Release every compiled path program (range teardown).

        Correctness never depends on this — revision checks invalidate
        stale entries — but a closed range must not pin path programs (and
        their serialisation memos) for the registry's lifetime.
        """
        self._cache.clear()

    # ------------------------------------------------------------------
    # Path compilation
    # ------------------------------------------------------------------
    def _compile(
        self, origin_port: "Port", dst_mac: str, appid: Optional[str]
    ) -> _Path:
        self.path_compiles += 1
        expires: list[int] = []
        visited: set[int] = set()
        path = _Path(0, None)
        flat = path.flat
        parents = path.parents
        children = path.children

        def walk(from_port: "Port", parent: int, chain: tuple[int, ...]) -> int:
            link = from_port.link
            if link is None:
                return -1
            to_port = link.port_b if from_port is link.port_a else link.port_a
            node = to_port.node
            is_switch = isinstance(node, Switch)
            counter = _FWD_NONE
            egress_ports: tuple = ()
            if is_switch:
                if id(node) in visited:
                    # Loop guard: the hop-by-hop path would broadcast-storm
                    # here; cut the tree instead of hanging the kernel.
                    return -1
                visited.add(id(node))
                egress_ports, counter, entry = node._forward_decision(
                    to_port, dst_mac, appid
                )
                if entry is not None:
                    expires.append(entry.learned_at + MAC_AGEING_US)
            index = len(flat)
            chain = chain + (index,)
            flat.append(
                (
                    link,
                    link._busy_until,
                    id(from_port),
                    from_port,
                    to_port,
                    node if is_switch else None,
                    counter,
                    "a->b" if from_port is link.port_a else "b->a",
                )
            )
            parents.append(parent)
            children.append(())
            if is_switch:
                children[index] = tuple(
                    child
                    for child in (
                        walk(port, index, chain) for port in egress_ports
                    )
                    if child >= 0
                )
            else:
                path.terminals.append((index, to_port, chain))
            return index

        walk(origin_port, -1, ())
        # Stamp the revision *after* the walk: _forward_decision may evict
        # an aged entry (bumping rev) while we compile.
        path.rev = self.state.rev
        path.expires_at = min(expires) if expires else None
        if is_multicast_mac(dst_mac) and dst_mac != BROADCAST_MAC:
            groups = self.groups
            if groups is None or not groups.is_registered(dst_mac):
                path.mcast = _MCAST_FLOOD
            else:
                path.mcast = (
                    _MCAST_PRUNED if groups.enabled else _MCAST_REGISTERED_FLOOD
                )
                path.group = group_key(dst_mac, appid)
        return path

    def resolve(
        self,
        origin_port: "Port",
        dst_mac: str,
        appid: Optional[str] = None,
    ) -> _Path:
        """The cached forwarding tree for ``(origin_port, dst_mac, appid)``.

        The appid is part of the key because registered multicast groups
        prune per control block on a shared MAC; any membership or
        spy-flag change bumps ``state.rev``, so paths compiled before a
        mid-run subscription go stale immediately.
        """
        key = (id(origin_port), dst_mac, appid)
        path = self._cache.get(key)
        if (
            path is not None
            and path.rev == self.state.rev
            and (path.expires_at is None
                 or self.simulator.now <= path.expires_at)
        ):
            self.cache_hits += 1
            return path
        if len(self._cache) >= MAX_CACHED_PATHS and key not in self._cache:
            self._cache.clear()  # anti-spray bound; refreshes just replace
        path = self._compile(origin_port, dst_mac, appid)
        self._cache[key] = path
        return path

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def send(self, origin_port: "Port", frame: EthernetFrame) -> None:
        """Forward ``frame`` from ``origin_port`` end to end.

        Replicates ``Port.send`` → ``Link.transmit`` → ``Switch.on_frame``
        semantics inline and schedules one kernel event per distinct
        terminal arrival instant.
        """
        # sgml: lint-ok[det-wallclock] wall accounting
        started = time.perf_counter()
        self.sends += 1
        path = self.resolve(origin_port, frame.dst_mac, frame.appid)
        mcast = path.mcast
        if mcast == _MCAST_PRUNED:
            self.mcast_pruned_sends += 1
        elif mcast != _MCAST_NONE:
            self.mcast_flooded_sends += 1
        flat = path.flat
        if not flat:  # detached port: Port.send drops silently
            # sgml: lint-ok[det-wallclock] wall accounting
            self.forward_wall_s += time.perf_counter() - started
            return
        origin_port.tx_frames += 1
        now = self.simulator.now
        size8 = frame.size * 8
        src_mac = frame.src_mac
        learn = not is_multicast_mac(src_mac)
        self.crossings += len(flat)
        #: Arrival time per crossing; −1 marks a dropped/dead branch.
        if self.state.captures > 0:
            times = self._walk_ordered(path, frame, now, size8, learn, src_mac)
        else:
            times = self._walk(path, now, size8, learn, src_mac)
        deliveries: dict[int, list] = {}
        for index, port, chain in path.terminals:
            arrival = times[index]
            if arrival < 0:
                continue
            bucket = deliveries.get(arrival)
            if bucket is None:
                deliveries[arrival] = bucket = []
            bucket.append((port, chain))
        if deliveries:
            flaps = self.state.flaps
            schedule = self.simulator.schedule
            pending = self._pending
            counted: set[int] = set()  # crossings already drop-counted
            total = 0
            for arrival, items in deliveries.items():
                total += len(items)
                entry = (frame, path, times, now, items, flaps, counted)
                bucket = pending.get(arrival)
                if bucket is None:
                    # First frame for this instant: one kernel event
                    # flushes every frame that lands on it.
                    pending[arrival] = [entry]
                    self.delivery_events += 1
                    schedule(
                        arrival - now,
                        partial(self._flush, arrival),
                        label="netem:deliver",
                    )
                else:
                    bucket.append(entry)
                    self.batched_frames += 1
            self.deliveries += total
            if path.group is not None:
                self.groups.count_delivery(path.group, total)
        # sgml: lint-ok[det-wallclock] wall accounting
        self.forward_wall_s += time.perf_counter() - started

    def _walk(self, path: _Path, now: int, size8: int, learn: bool,
              src_mac: str) -> list[int]:
        """Execute the compiled crossings in preorder (no captures)."""
        flat = path.flat
        parents = path.parents
        serialisation = path.serialisation(size8)
        times = [0] * len(flat)
        for index, entry in enumerate(flat):
            link, busy, key, from_port, to_port, switch, counter, _ = entry
            parent = parents[index]
            if parent < 0:
                t = now
            else:
                t = times[parent]
                if t < 0:  # upstream crossing dropped the frame
                    times[index] = -1
                    continue
                from_port.tx_frames += 1
            link.tx_count += 1
            if not link.up:
                link.drop_count += 1
                times[index] = -1
                continue
            probability = link.drop_probability
            if probability > 0.0 and link._rng.random() < probability:
                link.drop_count += 1
                times[index] = -1
                continue
            start = busy[key]
            if t > start:
                start = t
            done = start + serialisation[index]
            busy[key] = done
            arrival = done + link.latency_us
            times[index] = arrival
            if switch is not None:
                to_port.rx_frames += 1
                if learn:
                    switch._learn(src_mac, to_port, arrival)
                if counter == _FWD_FORWARDED:
                    switch.forwarded += 1
                elif counter == _FWD_FLOODED:
                    switch.flooded += 1
                elif counter == _FWD_PRUNED:
                    switch.pruned += 1
        return times

    def _walk_ordered(self, path: _Path, frame: EthernetFrame, now: int,
                      size8: int, learn: bool, src_mac: str) -> list[int]:
        """Chronological variant used while captures are attached.

        Pops crossings by ``(transmit time, seq)`` — mirroring the kernel's
        ``(when, seq)`` event order — so records in a shared capture
        interleave exactly as the hop-by-hop path would produce them.
        """
        flat = path.flat
        children = path.children
        serialisation = path.serialisation(size8)
        times = [-1] * len(flat)
        heap: list = [(now, 0)]
        seq = 0
        while heap:
            t, index_seq = heappop(heap)
            index = index_seq & 0xFFFFFF
            entry = flat[index]
            link = entry[_LINK]
            link.tx_count += 1
            captures = link.captures
            if captures:
                name = link.name
                direction = entry[_DIRECTION]
                for capture in captures:
                    capture.record(t, name, direction, frame)
            if not link.up:
                link.drop_count += 1
                continue
            probability = link.drop_probability
            if probability > 0.0 and link._rng.random() < probability:
                link.drop_count += 1
                continue
            busy = entry[_BUSY]
            key = entry[_KEY]
            start = busy[key]
            if t > start:
                start = t
            done = start + serialisation[index]
            busy[key] = done
            arrival = done + link.latency_us
            times[index] = arrival
            switch = entry[_SWITCH]
            if switch is not None:
                entry[_TO].rx_frames += 1
                if learn:
                    switch._learn(src_mac, entry[_TO], arrival)
                counter = entry[_COUNTER]
                if counter == _FWD_FORWARDED:
                    switch.forwarded += 1
                elif counter == _FWD_FLOODED:
                    switch.flooded += 1
                elif counter == _FWD_PRUNED:
                    switch.pruned += 1
                for child in children[index]:
                    flat[child][_FROM].tx_frames += 1
                    seq += 1
                    heappush(heap, (arrival, (seq << 24) | child))
        return times

    # ------------------------------------------------------------------
    def _flush(self, arrival: int) -> None:
        """Deliver every frame that lands at ``arrival`` (one kernel event).

        Frames are regrouped per receiving port — each host gets one
        ``deliver_batch`` call, i.e. one decode-dispatch loop — with ports
        in first-arrival order and frames in send order per port, matching
        the per-frame event order the unbatched plane produced.  The
        bucket is popped *before* executing so a handler that sends a new
        same-instant frame starts a fresh bucket (and a fresh event).
        """
        # sgml: lint-ok[det-wallclock] wall accounting
        started = time.perf_counter()
        entries = self._pending.pop(arrival, ())
        by_port: dict[int, tuple["Port", list[EthernetFrame]]] = {}
        current_flaps = self.state.flaps
        for frame, path, times, sent_at, items, flaps, counted in entries:
            if current_flaps == flaps:
                for port, _ in items:
                    bucket = by_port.get(id(port))
                    if bucket is None:
                        by_port[id(port)] = (port, [frame])
                    else:
                        bucket[1].append(frame)
                continue
            # A link flapped while this frame was in flight: re-run the
            # hop-by-hop up-state checks (at transmit and at delivery time,
            # exactly the two instants Link.transmit/_deliver check)
            # against the flap log, upstream crossing first.
            flat = path.flat
            parents = path.parents
            for port, chain in items:
                lost = False
                for index in chain:
                    link = flat[index][_LINK]
                    parent = parents[index]
                    t_tx = sent_at if parent < 0 else times[parent]
                    if link.was_down_at(t_tx) or link.was_down_at(times[index]):
                        if index not in counted:
                            counted.add(index)  # one crossing, one count
                            link.drop_count += 1
                        lost = True
                        break
                if not lost:
                    bucket = by_port.get(id(port))
                    if bucket is None:
                        by_port[id(port)] = (port, [frame])
                    else:
                        bucket[1].append(frame)
        for port, frames in by_port.values():
            if len(frames) == 1:
                port.deliver(frames[0])
            else:
                port.deliver_batch(frames)
        # sgml: lint-ok[det-wallclock] wall accounting
        self.deliver_wall_s += time.perf_counter() - started

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Counters for the bench / ``CyberRange.data_plane_stats``."""
        return {
            "sends": self.sends,
            "path_compiles": self.path_compiles,
            "cache_hits": self.cache_hits,
            "delivery_events": self.delivery_events,
            "deliveries": self.deliveries,
            "batched_frames": self.batched_frames,
            "mcast_pruned_sends": self.mcast_pruned_sends,
            "mcast_flooded_sends": self.mcast_flooded_sends,
            "crossings": self.crossings,
            "cached_paths": len(self._cache),
            "forwarding_rev": self.state.rev,
            "forward_wall_s": self.forward_wall_s,
            "deliver_wall_s": self.deliver_wall_s,
        }
