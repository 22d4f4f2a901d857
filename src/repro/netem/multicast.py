"""Subscription-aware multicast group table — "kill the flood".

Real IEC 61850 substation LANs bound GOOSE/SV flooding with GMRP/IGMP-style
group registration: a switch only forwards a multicast frame out of ports
that lead to a registered group member.  The cyber range can do better than
a real switch, because the SG-ML compiler *already knows* every subscriber
from the SCL subscription model — so the range registers statically what
real switches learn dynamically.

:class:`MulticastGroupTable` is that registration, shared by every switch
of one :class:`~repro.netem.network.VirtualNetwork`:

* **Groups** are keyed by ``(destination MAC, appID)``.  IEC 61850 traffic
  commonly shares one well-known group MAC per protocol (the range's
  publishers default to ``01:0c:cd:01:00:01`` for GOOSE), so per-MAC
  filtering alone would still wake every subscriber of *any* control
  block.  The frame-level ``appid`` (the APPID of a real GOOSE/SV header;
  publishers stamp their ``gocbRef``/``svID``) gives per-control-block
  precision on a shared MAC.
* **Members** join via :meth:`join` (called by
  ``Host.join_l2_group``/``join_multicast_group``, i.e. by every
  GOOSE/SV/R-GOOSE/R-SV subscriber constructor).  The SG-ML compiler
  additionally :meth:`register`\\ s every *publisher's* group, so a control
  block with zero subscribers prunes to **no** deliveries instead of
  falling back to flooding.
* **Resolution** is conservative wherever knowledge is incomplete: an
  unregistered MAC floods (broadcast always floods); a frame without an
  ``appid`` — e.g. one forged by an attacker — reaches *every* member of
  its MAC, exactly like a real per-MAC filtering switch; a member that
  joined without an ``appid`` (wildcard) sees every appid on that MAC.
* **Spy ports see everything**: hosts with ``promiscuous``,
  ``packet_interceptor`` (the MITM pipeline) or ``ip_forward`` set, and
  any link with an attached capture, are never pruned away.  Toggling
  those host flags bumps the forwarding revision, so cached cut-through
  path programs recompile (see below).

Cache invalidation follows the repo's revision-counter idiom
(:class:`~repro.netem.node.ForwardingState`): every membership or
visibility change bumps ``rev`` (invalidating the cut-through plane's
cached path programs — this is what makes *mid-run* subscriptions, e.g.
a scenario branch phase attaching a new subscriber, take effect) and
``groups`` (invalidating this table's member/spy caches); topology edits
and capture attachment bump ``topo`` (invalidating the per-port
reachability scopes).

The flood behaviour stays available as the differential-test oracle:
``VirtualNetwork(multicast_prune=False)``, mirroring the cut-through
plane's ``cut_through=False`` oracle.  ``tests/test_netem_multicast.py``
holds the pruned-vs-flood equivalence contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netem.node import ForwardingState

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.netem.host import Host
    from repro.netem.node import Port
    from repro.netem.switch import Switch


def group_key(mac: str, appid: Optional[str]) -> str:
    """Stable string key for one group (stats / artifacts / reports)."""
    return f"{mac.lower()}|{appid}" if appid else mac.lower()


class MulticastGroupTable:
    """Group membership + pruned egress decisions for one virtual network."""

    def __init__(self, state: ForwardingState) -> None:
        self.state = state
        self.enabled = True
        #: mac → appid (None = wildcard) → set of member hosts.
        self._groups: dict[str, dict[Optional[str], set]] = {}
        #: Hosts whose visibility flags the spy set is computed from.
        self._hosts: list = []
        #: Deliveries per group, counted by the cut-through plane
        #: (``group_key`` → frames × receivers).
        self.group_deliveries: dict[str, int] = {}
        # Caches, each validated against its revision counter.
        self._scope_topo = -1
        self._scopes: dict[int, tuple[frozenset, bool]] = {}
        self._groups_rev = -1
        self._members_cache: dict[tuple[str, Optional[str]], frozenset] = {}
        self._spies: frozenset = frozenset()
        self._egress_rev: tuple[int, int] = (-1, -1)
        self._egress: dict[tuple[int, str, Optional[str]], tuple] = {}

    def drop_caches(self) -> None:
        """Release derived member/spy/egress caches (range teardown).

        The membership itself (``_groups``) survives — only the derived
        caches go; they rebuild lazily on the next lookup, validated by
        the usual revision checks.
        """
        self._scope_topo = -1
        self._scopes.clear()
        self._groups_rev = -1
        self._members_cache.clear()
        self._egress_rev = (-1, -1)
        self._egress.clear()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        self.state.rev += 1
        self.state.groups += 1

    def track_host(self, host: "Host") -> None:
        """Watch ``host``'s visibility flags (called by ``add_host``)."""
        self._hosts.append(host)
        self._bump()

    def register(self, mac: str, appid: Optional[str]) -> None:
        """Declare a group without members (compiler, publisher side).

        A registered MAC stops flooding: frames for an appid with no
        members terminate nowhere (spies and captures excepted).
        """
        bucket = self._groups.setdefault(mac.lower(), {})
        if appid not in bucket:
            bucket[appid] = set()
            self._bump()

    def join(self, mac: str, appid: Optional[str], host: "Host") -> None:
        bucket = self._groups.setdefault(mac.lower(), {})
        members = bucket.setdefault(appid, set())
        if host not in members:
            members.add(host)
            self._bump()

    def leave(self, mac: str, appid: Optional[str], host: "Host") -> None:
        bucket = self._groups.get(mac.lower())
        if bucket is None:
            return
        members = bucket.get(appid)
        if members is not None and host in members:
            members.discard(host)
            self._bump()

    def set_enabled(self, enabled: bool) -> None:
        if self.enabled != bool(enabled):
            self.enabled = bool(enabled)
            self._bump()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def is_registered(self, mac: str) -> bool:
        return mac.lower() in self._groups

    def members(self, mac: str, appid: Optional[str]) -> Optional[frozenset]:
        """Member hosts for one frame, or ``None`` when the MAC is
        unregistered (= flood, the pre-table behaviour).

        A frame without an appid (or with one no subscriber declared)
        resolves to every member of the MAC — per-MAC switch semantics,
        the conservative choice for forged or third-party frames.
        """
        if self._groups_rev != self.state.groups:
            self._members_cache.clear()
            self._spies = frozenset(
                host
                for host in self._hosts
                if host._promiscuous
                or host._packet_interceptor is not None
                or host._ip_forward
            )
            self._groups_rev = self.state.groups
        key = (mac.lower(), appid)
        cached = self._members_cache.get(key)
        if cached is None:
            bucket = self._groups.get(key[0])
            if bucket is None:
                return None
            if appid is not None and appid in bucket:
                cached = frozenset(bucket[appid] | bucket.get(None, set()))
            else:
                union: set = set()
                for members in bucket.values():
                    union |= members
                cached = frozenset(union)
            self._members_cache[key] = cached
        return cached

    def spies(self) -> frozenset:
        """Hosts that must see all traffic (promiscuous / MITM / router)."""
        self.members("ff:ff:ff:ff:ff:ff", None)  # refresh the caches
        return self._spies

    # ------------------------------------------------------------------
    # Egress pruning (consulted by Switch._forward_decision, both planes)
    # ------------------------------------------------------------------
    def egress(
        self,
        switch: "Switch",
        in_port: "Port",
        dst_mac: str,
        appid: Optional[str],
    ) -> Optional[tuple]:
        """Pruned egress ports, or ``None`` to flood (unregistered MAC).

        A port is kept when its reachable subtree contains a group
        member, a spy host, or a captured link (captures must record the
        same frames the flood oracle produces).
        """
        if not self.enabled:
            return None
        members = self.members(dst_mac, appid)
        if members is None:
            return None
        rev = (self.state.topo, self.state.groups)
        if self._egress_rev != rev:
            self._egress.clear()
            self._egress_rev = rev
        key = (id(in_port), dst_mac, appid)
        cached = self._egress.get(key)
        if cached is not None:
            return cached
        watchers = members | self.spies()
        out = tuple(
            port
            for port in switch.ports
            if port is not in_port
            and port.connected
            and self._port_wanted(port, watchers)
        )
        self._egress[key] = out
        return out

    def _port_wanted(self, port: "Port", watchers: frozenset) -> bool:
        hosts, has_capture = self._scope(port)
        return has_capture or not watchers.isdisjoint(hosts)

    def _scope(self, port: "Port") -> tuple[frozenset, bool]:
        """(reachable hosts, any captured link) leaving through ``port``.

        Topology-only: link up/down is ignored (a flooding switch also
        transmits into a dead branch; the walk drops the frame there), so
        the cache is valid until a topology edit or capture attachment.
        """
        if self._scope_topo != self.state.topo:
            self._scopes.clear()
            self._scope_topo = self.state.topo
        cached = self._scopes.get(id(port))
        if cached is not None:
            return cached
        from repro.netem.switch import Switch  # import cycle guard

        hosts: set = set()
        has_capture = False
        seen_switches = {id(port.node)}
        stack = [port]
        while stack:
            from_port = stack.pop()
            link = from_port.link
            if link is None:
                continue
            if link.captures:
                has_capture = True
            far = link.port_b if from_port is link.port_a else link.port_a
            node = far.node
            if isinstance(node, Switch):
                if id(node) in seen_switches:
                    continue  # loop guard, mirrors the plane's compile walk
                seen_switches.add(id(node))
                stack.extend(
                    p for p in node.ports if p is not far and p.connected
                )
            else:
                hosts.add(node)
        result = (frozenset(hosts), has_capture)
        self._scopes[id(port)] = result
        return result

    # ------------------------------------------------------------------
    # Accounting / reporting
    # ------------------------------------------------------------------
    def count_delivery(self, key: str, n: int) -> None:
        """Add ``n`` receivers to the group whose ``group_key`` is ``key``."""
        self.group_deliveries[key] = self.group_deliveries.get(key, 0) + n

    @property
    def group_count(self) -> int:
        return sum(len(bucket) for bucket in self._groups.values())

    @property
    def member_count(self) -> int:
        return sum(
            len(members)
            for bucket in self._groups.values()
            for members in bucket.values()
        )

    def snapshot(self) -> dict[str, list[str]]:
        """``group_key`` → sorted member host names (tests / artifacts)."""
        return {
            group_key(mac, appid): sorted(host.name for host in members)
            for mac, bucket in sorted(self._groups.items())
            for appid, members in sorted(
                bucket.items(), key=lambda item: item[0] or ""
            )
        }
