"""Virtual network container — the "Mininet" of the cyber range.

Builds hosts, switches and links by name, owns the address bookkeeping, and
offers captures.  The SG-ML network-topology generator drives this API from
the intermediate JSON extracted from the SCD file (paper §IV-A).
"""

from __future__ import annotations

from typing import Optional

from repro.kernel import Simulator
from repro.netem.addresses import is_valid_ip, is_valid_mac, mac_for_index
from repro.netem.capture import PacketCapture
from repro.netem.forwarding import ForwardingPlane
from repro.netem.host import Host
from repro.netem.link import Link
from repro.netem.multicast import MulticastGroupTable
from repro.netem.node import ForwardingState, Node
from repro.netem.switch import Switch


class NetemError(Exception):
    """Raised on malformed topology operations."""


class VirtualNetwork:
    """Named collection of nodes and links on a shared simulator.

    ``cut_through`` selects the delivery plane: ``True`` (the default)
    routes every host-originated frame through the :class:`ForwardingPlane`
    path cache; ``False`` keeps the hop-by-hop emulation, which serves as
    the differential-test oracle.  Both planes share all link/switch state,
    so the mode can be flipped mid-run with :meth:`set_cut_through`.

    ``multicast_prune`` selects subscription-aware multicast delivery
    (:mod:`repro.netem.multicast`): ``True`` (the default) lets switches
    prune *registered* group MACs down to subscriber/spy/capture ports;
    ``False`` keeps classic flooding everywhere, serving as the pruning
    differential-test oracle.  Flip mid-run with :meth:`set_multicast_prune`.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str = "net",
        cut_through: bool = True,
        multicast_prune: bool = True,
    ) -> None:
        self.simulator = simulator
        self.name = name
        self.hosts: dict[str, Host] = {}
        self.switches: dict[str, Switch] = {}
        self.links: dict[str, Link] = {}
        self._mac_counter = 1
        #: Network-wide forwarding revision, shared by every node and link.
        self.fwd = ForwardingState()
        self.plane = ForwardingPlane(simulator, self.fwd)
        #: Network-wide multicast group table, consulted by every switch.
        self.groups = MulticastGroupTable(self.fwd)
        self.groups.set_enabled(bool(multicast_prune))
        self.plane.groups = self.groups
        self.cut_through = bool(cut_through)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_host(
        self,
        name: str,
        ip: str,
        mac: str = "",
        subnet_mask: str = "255.255.255.0",
        gateway: str = "",
    ) -> Host:
        if name in self.hosts or name in self.switches:
            raise NetemError(f"duplicate node name {name!r}")
        if not is_valid_ip(ip):
            raise NetemError(f"host {name!r}: invalid IP {ip!r}")
        if mac and not is_valid_mac(mac):
            raise NetemError(f"host {name!r}: invalid MAC {mac!r}")
        if not mac:
            mac = mac_for_index(self._mac_counter)
            self._mac_counter += 1
        for existing in self.hosts.values():
            if existing.ip == ip:
                raise NetemError(
                    f"host {name!r}: IP {ip} already assigned to {existing.name!r}"
                )
            if existing.mac == mac:
                raise NetemError(
                    f"host {name!r}: MAC {mac} already assigned to {existing.name!r}"
                )
        host = Host(
            name,
            self.simulator,
            mac=mac,
            ip=ip,
            subnet_mask=subnet_mask,
            gateway=gateway,
        )
        host.fwd = self.fwd
        host.groups = self.groups
        self.groups.track_host(host)
        if self.cut_through:
            host.plane = self.plane
        self.hosts[name] = host
        self.fwd.rev += 1
        self.fwd.topo += 1
        return host

    def add_switch(self, name: str) -> Switch:
        if name in self.hosts or name in self.switches:
            raise NetemError(f"duplicate node name {name!r}")
        switch = Switch(name, self.simulator)
        switch.fwd = self.fwd
        switch.groups = self.groups
        self.switches[name] = switch
        self.fwd.rev += 1
        self.fwd.topo += 1
        return switch

    def add_link(
        self,
        node_a: str,
        node_b: str,
        latency_us: int = 50,
        bandwidth_mbps: float = 100.0,
        name: str = "",
        drop_probability: float = 0.0,
        seed: int = 0,
    ) -> Link:
        first = self.node(node_a)
        second = self.node(node_b)
        link_name = name or f"{node_a}--{node_b}"
        if link_name in self.links:
            raise NetemError(f"duplicate link name {link_name!r}")
        link = Link(
            link_name,
            self.simulator,
            first.free_port(),
            second.free_port(),
            latency_us=latency_us,
            bandwidth_mbps=bandwidth_mbps,
            drop_probability=drop_probability,
            seed=seed,
        )
        link.fwd = self.fwd
        self.links[link_name] = link
        self.fwd.rev += 1
        self.fwd.topo += 1
        return link

    # ------------------------------------------------------------------
    # Delivery plane
    # ------------------------------------------------------------------
    def set_cut_through(self, enabled: bool) -> None:
        """Switch every host between cut-through and hop-by-hop delivery."""
        self.cut_through = bool(enabled)
        plane = self.plane if enabled else None
        for host in self.hosts.values():
            host.plane = plane

    @property
    def multicast_prune(self) -> bool:
        return self.groups.enabled

    def set_multicast_prune(self, enabled: bool) -> None:
        """Toggle subscription-aware multicast pruning network-wide.

        Bumps the forwarding revision (via the group table), so cached
        cut-through paths recompile under the new policy.
        """
        self.groups.set_enabled(enabled)

    def drop_caches(self) -> None:
        """Release compiled-path + multicast caches (range teardown).

        Called from :meth:`repro.range.CyberRange.close`: a closed
        session's network must not pin cached path programs or derived
        group scopes.  Safe mid-run too — caches rebuild lazily under the
        usual revision validation.
        """
        self.plane.drop_caches()
        self.groups.drop_caches()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise NetemError(f"unknown node {name!r}")

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NetemError(f"unknown host {name!r}") from None

    def switch(self, name: str) -> Switch:
        try:
            return self.switches[name]
        except KeyError:
            raise NetemError(f"unknown switch {name!r}") from None

    def host_by_ip(self, ip: str) -> Optional[Host]:
        for host in self.hosts.values():
            if host.ip == ip:
                return host
        return None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def capture(
        self, link_name: str, name: str = "", frame_filter=None
    ) -> PacketCapture:
        try:
            link = self.links[link_name]
        except KeyError:
            raise NetemError(f"unknown link {link_name!r}") from None
        capture = PacketCapture(name or f"cap:{link_name}", frame_filter)
        return link.attach_capture(capture)

    def capture_all(self, name: str = "cap:*") -> PacketCapture:
        """One capture attached to every link (global tcpdump)."""
        capture = PacketCapture(name)
        for link in self.links.values():
            link.attach_capture(capture)
        return capture

    def summary(self) -> dict[str, int]:
        """Node/link counts — used by the Fig. 4 bench report."""
        return {
            "hosts": len(self.hosts),
            "switches": len(self.switches),
            "links": len(self.links),
        }

    def adjacency(self) -> dict[str, list[str]]:
        """Node → sorted neighbours (for topology assertions and reports)."""
        neighbours: dict[str, set[str]] = {}
        for link in self.links.values():
            a = link.port_a.node.name
            b = link.port_b.node.name
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        return {node: sorted(peers) for node, peers in sorted(neighbours.items())}
