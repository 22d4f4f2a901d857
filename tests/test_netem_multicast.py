"""Multicast pruning vs flood differential tests.

The flood behaviour (every multicast frame terminates at every reachable
host) is the oracle: each test runs the same scenario with
``multicast_prune=False`` and ``multicast_prune=True`` and asserts the
*subscriber-observable* outcomes are identical — arrival timestamps and
payloads at subscribed endpoints, capture traces on captured links,
promiscuous/MITM-spy visibility — while non-subscribers stop receiving.
This is the contract of the tentpole optimisation: pruning may only
remove deliveries nobody (subscriber, spy, capture) would observe.

Mid-run dynamics get their own regression tests: a subscriber joining
after the cut-through plane cached a path program (e.g. a scenario branch
phase attaching a GOOSE subscriber) must invalidate that program and
start receiving; so must a host turning into a spy (MITM interceptor
install, promiscuous flip).
"""

import pytest

from repro.attacks import MitmPipeline
from repro.iec61850 import GoosePublisher, GooseSubscriber
from repro.iec61850.goose import DEFAULT_GOOSE_MAC, ETHERTYPE_GOOSE
from repro.kernel import MS, SECOND, Simulator
from repro.netem import VirtualNetwork

GROUP_MAC = "01:0c:cd:01:00:77"


def both_modes(scenario):
    """Run ``scenario(multicast_prune)`` flooded and pruned."""
    flood = scenario(False)
    pruned = scenario(True)
    return flood, pruned


def trace_of(capture):
    """Canonical capture view, as in the cut-through differential suite."""
    return sorted(
        (
            (record.time_us, record.link, record.direction, record.frame)
            for record in capture.frames
        ),
        key=lambda record: record[:3],
    )


def star_network(sim, multicast_prune, hosts=4):
    """h1..hN on one switch; h1 publishes, h2 subscribes via the table."""
    net = VirtualNetwork(sim, multicast_prune=multicast_prune)
    net.add_switch("sw")
    for index in range(1, hosts + 1):
        net.add_host(f"h{index}", f"10.0.0.{index}")
        net.add_link(f"h{index}", "sw")
    return net


def chain_network(sim, multicast_prune):
    """pub — sw1 — sw2 — {sub, other}: pruning must cut the sw2→other leg
    while the shared trunk still carries each frame exactly once."""
    net = VirtualNetwork(sim, multicast_prune=multicast_prune)
    net.add_host("pub", "10.0.0.1")
    net.add_host("sub", "10.0.0.2")
    net.add_host("other", "10.0.0.3")
    net.add_switch("sw1")
    net.add_switch("sw2")
    net.add_link("pub", "sw1")
    net.add_link("sw1", "sw2", latency_us=2 * MS)
    net.add_link("sw2", "sub")
    net.add_link("sw2", "other")
    return net


def watch(net, name, sink, ethertype=0x88B8):
    sim = net.simulator
    net.host(name).register_ethertype_handler(
        ethertype, lambda frame: sink.append((sim.now, frame.payload))
    )


def publish_burst(net, count=8, appid="cb1", spacing_us=50 * MS):
    net.groups.register(GROUP_MAC, appid)
    for index in range(count):
        net.host("h1").send_ethernet(
            GROUP_MAC, 0x88B8, bytes([index]) * 30, appid=appid
        )
        net.simulator.run_for(spacing_us)


# ---------------------------------------------------------------------------
# Subscriber-observable equality / non-subscriber pruning
# ---------------------------------------------------------------------------


def test_subscriber_arrivals_identical_nonsubscriber_pruned():
    def scenario(multicast_prune):
        sim = Simulator()
        net = star_network(sim, multicast_prune)
        sub_rx, other_rx = [], []
        watch(net, "h2", sub_rx)
        watch(net, "h3", other_rx)
        net.host("h2").join_l2_group(GROUP_MAC, "cb1")
        publish_burst(net)
        return sub_rx, other_rx, net.plane

    flood, pruned = both_modes(scenario)
    # The subscriber sees exactly the flood-mode frames, at the exact
    # same virtual instants.
    assert pruned[0] == flood[0]
    assert len(pruned[0]) == 8
    # The non-subscriber saw everything under flood, nothing under pruning.
    assert len(flood[1]) == 8
    assert pruned[1] == []
    assert flood[2].mcast_pruned_sends == 0
    assert pruned[2].mcast_pruned_sends == 8
    assert pruned[2].mcast_flooded_sends == 0  # prune ratio 1.0
    assert pruned[2].deliveries < flood[2].deliveries


def test_chain_trunk_shared_leg_pruned():
    def scenario(multicast_prune):
        sim = Simulator()
        net = chain_network(sim, multicast_prune)
        sub_rx, other_rx = [], []
        sim_ = sim
        net.host("sub").register_ethertype_handler(
            0x88B8, lambda frame: sub_rx.append((sim_.now, frame.payload))
        )
        net.host("other").register_ethertype_handler(
            0x88B8, lambda frame: other_rx.append(sim_.now)
        )
        net.groups.register(GROUP_MAC, "cb1")
        net.host("sub").join_l2_group(GROUP_MAC, "cb1")
        for index in range(6):
            net.host("pub").send_ethernet(
                GROUP_MAC, 0x88B8, bytes([index]) * 30, appid="cb1"
            )
            sim.run_for(40 * MS)
        trunk = net.links["sw1--sw2"]
        return sub_rx, other_rx, trunk.tx_count

    flood, pruned = both_modes(scenario)
    assert pruned[0] == flood[0]  # trunk latency included, exact times
    assert len(flood[1]) == 6 and pruned[1] == []
    # The shared trunk carried each frame exactly once in both modes.
    assert pruned[2] == flood[2] == 6


def test_zero_subscriber_group_prunes_to_nothing():
    """A registered publisher group with no members terminates nowhere —
    the compiler's register() is what kills publisher-only floods."""
    sim = Simulator()
    net = star_network(sim, multicast_prune=True)
    rx = []
    for name in ("h2", "h3", "h4"):
        watch(net, name, rx)
    publish_burst(net)
    assert rx == []
    assert net.plane.deliveries == 0
    assert net.plane.mcast_pruned_sends == 8


def test_unregistered_multicast_mac_still_floods():
    def scenario(multicast_prune):
        sim = Simulator()
        net = star_network(sim, multicast_prune)
        rx = []
        for name in ("h2", "h3", "h4"):
            watch(net, name, rx)
        # No register(), no joins: the table knows nothing about this MAC.
        for index in range(4):
            net.host("h1").send_ethernet(
                "01:0c:cd:01:00:99", 0x88B8, bytes([index]), appid="cb9"
            )
            sim.run_for(20 * MS)
        return rx, net.plane.mcast_flooded_sends

    flood, pruned = both_modes(scenario)
    assert pruned[0] == flood[0]
    assert len(pruned[0]) == 12  # 4 frames × 3 receivers
    assert pruned[1] == 4  # counted as flooded, not pruned


def test_broadcast_unaffected_by_pruning():
    sim = Simulator()
    net = star_network(sim, multicast_prune=True)
    rx = []
    for name in ("h2", "h3", "h4"):
        watch(net, name, rx, ethertype=0x9999)
    net.host("h1").send_ethernet("ff:ff:ff:ff:ff:ff", 0x9999, b"to-all")
    sim.run_for(SECOND)
    assert len(rx) == 3


def test_forged_frame_without_appid_reaches_all_mac_members():
    """Per-MAC switch semantics for frames the table cannot classify: an
    attacker frame with no appid reaches every member of the MAC."""
    sim = Simulator()
    net = star_network(sim, multicast_prune=True)
    sub1_rx, sub2_rx, other_rx = [], [], []
    watch(net, "h2", sub1_rx)
    watch(net, "h3", sub2_rx)
    watch(net, "h4", other_rx)
    net.host("h2").join_l2_group(GROUP_MAC, "cb1")
    net.host("h3").join_l2_group(GROUP_MAC, "cb2")
    net.host("h1").send_ethernet(GROUP_MAC, 0x88B8, b"forged")  # no appid
    sim.run_for(SECOND)
    assert len(sub1_rx) == 1 and len(sub2_rx) == 1  # both MAC members
    assert other_rx == []  # but still not a flood


# ---------------------------------------------------------------------------
# Captures / promiscuous / MITM spy visibility
# ---------------------------------------------------------------------------


def test_capture_all_trace_identical_under_pruning():
    """With captures attached everywhere, pruning must not remove a single
    wire record: the capture trace equals the flood oracle's exactly."""

    def scenario(multicast_prune):
        sim = Simulator()
        net = chain_network(sim, multicast_prune)
        cap = net.capture_all()
        net.groups.register(GROUP_MAC, "cb1")
        net.host("sub").join_l2_group(GROUP_MAC, "cb1")
        for index in range(5):
            net.host("pub").send_ethernet(
                GROUP_MAC, 0x88B8, bytes([index]) * 20, appid="cb1"
            )
            sim.run_for(40 * MS)
        return trace_of(cap)

    flood, pruned = both_modes(scenario)
    assert pruned == flood


def test_capture_on_nonsubscriber_link_preserves_visibility():
    """A capture on the link to a non-subscriber keeps that leg alive:
    the capture records (and the host still sees) every group frame."""

    def scenario(multicast_prune):
        sim = Simulator()
        net = star_network(sim, multicast_prune)
        cap = net.capture("h3--sw")
        other_rx = []
        watch(net, "h3", other_rx)
        net.host("h2").join_l2_group(GROUP_MAC, "cb1")
        publish_burst(net, count=5)
        return trace_of(cap), other_rx

    flood, pruned = both_modes(scenario)
    assert pruned == flood
    assert len(pruned[0]) == 5  # the capture really recorded the stream
    assert len(pruned[1]) == 5  # delivered through the captured leg


def test_promiscuous_host_sees_pruned_streams():
    def scenario(multicast_prune):
        sim = Simulator()
        net = star_network(sim, multicast_prune)
        spy_rx = []
        watch(net, "h4", spy_rx)
        net.host("h4").promiscuous = True
        net.host("h2").join_l2_group(GROUP_MAC, "cb1")
        publish_burst(net, count=5)
        return spy_rx

    flood, pruned = both_modes(scenario)
    assert pruned == flood
    assert len(pruned) == 5


def test_arp_spoof_mitm_spy_sees_pruned_streams():
    """The Fig. 6 MITM host (packet interceptor installed) is a spy: its
    relay works identically under pruning AND it still observes the GOOSE
    stream it is not subscribed to."""

    def scenario(multicast_prune):
        sim = Simulator()
        net = star_network(sim, multicast_prune)
        alice, bob, mallory = (net.host(f"h{i}") for i in (1, 2, 3))
        received, goose_seen = [], []
        bob.udp_bind(7000, lambda ip, port, data: received.append(
            (sim.now, ip, data)
        ))
        sock = alice.udp_bind(7001, lambda *args: None)
        sock.sendto("10.0.0.2", 7000, b"teach")
        sim.run_for(SECOND)
        pipeline = MitmPipeline(mallory, "10.0.0.1", "10.0.0.2")
        pipeline.start()
        sim.run_for(SECOND)
        # Only post-start observations compare: before the interceptor is
        # installed mallory is prunable (and flood mode would see more).
        mallory.register_ethertype_handler(
            0x88B8, lambda frame: goose_seen.append((sim.now, frame.payload))
        )
        net.host("h2").join_l2_group(GROUP_MAC, "cb1")
        net.groups.register(GROUP_MAC, "cb1")
        for index in range(4):
            net.host("h1").send_ethernet(
                GROUP_MAC, 0x88B8, bytes([index]) * 15, appid="cb1"
            )
            sock.sendto("10.0.0.2", 7000, bytes([index]))
            sim.run_for(100 * MS)
        pipeline.stop()
        sim.run_for(100 * MS)
        return received, pipeline.intercepted, goose_seen

    flood, pruned = both_modes(scenario)
    assert pruned == flood
    received, intercepted, goose_seen = pruned
    assert len(received) == 5  # nothing lost through the attacker
    assert intercepted >= 4
    assert len(goose_seen) == 4  # the spy saw the whole pruned stream


# ---------------------------------------------------------------------------
# Mid-run invalidation of cached path programs
# ---------------------------------------------------------------------------


def test_mid_run_join_invalidates_cached_paths():
    sim = Simulator()
    net = star_network(sim, multicast_prune=True)
    early_rx, late_rx = [], []
    watch(net, "h2", early_rx)
    watch(net, "h3", late_rx)
    net.host("h2").join_l2_group(GROUP_MAC, "cb1")
    publish_burst(net, count=5)  # caches the pruned path program
    assert len(early_rx) == 5 and late_rx == []
    assert net.plane.cache_hits > 0
    # h3 joins mid-run: the cached program predates the subscription and
    # must be recompiled, not served stale.
    net.host("h3").join_l2_group(GROUP_MAC, "cb1")
    publish_burst(net, count=3)
    assert len(late_rx) == 3
    assert len(early_rx) == 8
    # And leaving prunes it away again.
    net.host("h3").leave_l2_group(GROUP_MAC, "cb1")
    publish_burst(net, count=2)
    assert len(late_rx) == 3
    assert len(early_rx) == 10


def test_mid_run_interceptor_install_invalidates():
    sim = Simulator()
    net = star_network(sim, multicast_prune=True)
    spy_rx = []
    watch(net, "h4", spy_rx)
    net.host("h2").join_l2_group(GROUP_MAC, "cb1")
    publish_burst(net, count=4)
    assert spy_rx == []  # not a spy yet: pruned away
    # Observe-only interceptor (returning falsy passes the frame through
    # to normal dispatch — the MITM pipeline returns truthy to consume).
    net.host("h4").packet_interceptor = lambda frame: None
    publish_burst(net, count=3)
    assert len(spy_rx) == 3
    net.host("h4").packet_interceptor = None
    publish_burst(net, count=2)
    assert len(spy_rx) == 3


def test_mid_run_capture_attach_invalidates():
    sim = Simulator()
    net = star_network(sim, multicast_prune=True)
    net.host("h2").join_l2_group(GROUP_MAC, "cb1")
    publish_burst(net, count=4)
    cap = net.capture("h3--sw")  # attach after paths are cached
    publish_burst(net, count=3)
    assert len(cap.frames) == 3


def test_goose_subscriber_joins_and_batched_decode():
    """The IEC 61850 wiring end-to-end: publisher stamps its gocbRef as
    appid, subscriber construction joins the group, non-subscribed IEDs
    never wake."""
    sim = Simulator()
    net = star_network(sim, multicast_prune=True)
    pub = GoosePublisher(net.host("h1"), "IED1/LLN0$GO$gcb1", "ds1")
    net.groups.register(DEFAULT_GOOSE_MAC, "IED1/LLN0$GO$gcb1")
    updates = []
    sub = GooseSubscriber(
        net.host("h2"), "IED1/LLN0$GO$gcb1", updates.append
    )
    bystander_rx = []
    watch(net, "h3", bystander_rx, ethertype=ETHERTYPE_GOOSE)
    pub.start([True, 10])
    sim.run_for(2 * SECOND)
    pub.update([False, 20])
    sim.run_for(2 * SECOND)
    pub.stop()
    assert sub.rx_count > 2
    assert sub.values == [False, 20]
    assert len(updates) == 2  # initial state + the change
    assert bystander_rx == []  # pruned: the flood is dead
    assert net.plane.mcast_flooded_sends == 0


def test_mcast_prune_constructor_opt_out(sim):
    net = VirtualNetwork(sim, multicast_prune=False)
    assert net.multicast_prune is False
    assert VirtualNetwork(sim).multicast_prune is True  # the default


def test_hop_by_hop_plane_prunes_identically():
    """Switch-level pruning is plane-independent: the hop-by-hop oracle
    with pruning delivers exactly what the cut-through plane delivers."""

    def scenario(cut_through):
        sim = Simulator()
        net = VirtualNetwork(
            sim, cut_through=cut_through, multicast_prune=True
        )
        net.add_switch("sw")
        for index in (1, 2, 3):
            net.add_host(f"h{index}", f"10.0.0.{index}")
            net.add_link(f"h{index}", "sw")
        sub_rx, other_rx = [], []
        watch(net, "h2", sub_rx)
        watch(net, "h3", other_rx)
        net.host("h2").join_l2_group(GROUP_MAC, "cb1")
        publish_burst(net, count=6)
        return sub_rx, other_rx

    slow = scenario(False)
    fast = scenario(True)
    assert slow == fast
    assert len(slow[0]) == 6 and slow[1] == []


# ---------------------------------------------------------------------------
# Scenario branch phase attaching a subscriber mid-run (satellite fix)
# ---------------------------------------------------------------------------


def test_branch_phase_subscription_invalidates_cached_programs(epic_range):
    """A routed branch phase arms its ``when()`` trigger (a fresh pointdb
    delta subscription) and attaches a GOOSE subscriber *mid-run* — after
    the cut-through plane cached the pruned GOOSE path programs during
    settling.  The new subscriber must receive the stream, proving the
    mid-run join invalidated programs compiled before it existed."""
    from repro.scenario import Scenario, at, when

    cr = epic_range
    assert cr.network.multicast_prune is True
    tap_host = cr.add_attacker("sw-GenLAN", name="tap", ip="10.66.66.99")
    taps: list = []

    def attach_tap(ctx) -> None:
        taps.append(
            GooseSubscriber(
                tap_host, "GIED1LD0/LLN0$GO$gcb1", lambda message: None
            )
        )

    scenario = Scenario("mid-run-tap")
    probe = scenario.phase("probe", at(1.0), team="white")
    probe.gate("grid up", "status/CB_G1/closed", after_s=0.0)
    probe.branch(on_pass="tap")
    tap = scenario.phase(
        "tap", when("status/CB_G1/closed", mode="level"), team="red"
    )
    tap.action("attach GOOSE tap", attach_tap)
    tap.outcome("tap hears GIED1", lambda cr_: taps[0].rx_count > 0,
                after_s=3.0)

    # settle_s=2.0 caches the pruned GOOSE paths before the branch runs.
    run = cr.run_scenario(scenario, duration_s=8.0, settle_s=2.0)
    assert run.records["tap"].fired
    assert taps and taps[0].rx_count > 0
    assert taps[0].healthy
    assert run.passed
