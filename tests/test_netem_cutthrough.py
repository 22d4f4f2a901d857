"""Cut-through vs hop-by-hop differential tests.

Every test here runs the same scenario twice — once with the cut-through
forwarding plane (``cut_through=True``) and once on the hop-by-hop oracle —
and asserts the observable outcomes are identical: capture traces (times,
links, directions, frames), seeded drop patterns, delivery timestamps,
port/switch counters, MAC/ARP tables.  This is the contract the tentpole
optimisation must honour: captures, seeded loss and ARP-spoof redirection
stay bit-identical to the per-hop emulation.
"""

from dataclasses import replace

import pytest

from repro.attacks import MitmPipeline
from repro.iec61850 import (
    GooseMessage,
    RGOOSE_PORT,
    RGoosePublisher,
    RSvPublisher,
    SvMessage,
    decode_value,
    encode_value,
)
from repro.kernel import MS, SECOND, Simulator
from repro.netem import VirtualNetwork
from repro.netem.frames import UdpDatagram
from repro.netem.switch import MAC_AGEING_US


def both_planes(scenario):
    """Run ``scenario(cut_through)`` on both planes; return both results."""
    slow = scenario(False)
    fast = scenario(True)
    return slow, fast


def trace_of(capture):
    """A canonical view of a capture: (time, link, direction, frame).

    Records are stably sorted by (time, link, direction): per link and
    direction the FIFO order is preserved (and must match between planes),
    while the interleaving of *different* links at the same virtual instant
    — which depends on event bookkeeping order, not on wire behaviour — is
    normalised away.
    """
    return sorted(
        (
            (record.time_us, record.link, record.direction, record.frame)
            for record in capture.frames
        ),
        key=lambda record: record[:3],
    )


def chain_network(sim, cut_through, switches=3, drop=0.0, seed=0,
                  wan_latency_us=5 * MS):
    """h1 — sw1 — … — swN — h2, with h3 hanging off the last switch."""
    net = VirtualNetwork(sim, cut_through=cut_through)
    net.add_host("h1", "10.0.0.1")
    net.add_host("h2", "10.0.0.2")
    net.add_host("h3", "10.0.0.3")
    for index in range(1, switches + 1):
        net.add_switch(f"sw{index}")
    net.add_link("h1", "sw1", drop_probability=drop, seed=seed)
    for index in range(1, switches):
        net.add_link(
            f"sw{index}", f"sw{index + 1}", latency_us=wan_latency_us,
            bandwidth_mbps=10.0,
        )
    net.add_link(f"sw{switches}", "h2")
    net.add_link(f"sw{switches}", "h3")
    return net


def counters_of(net):
    """All externally visible netem counters of a network."""
    return {
        "ports": {
            f"{node.name}.{port.index}": (port.tx_frames, port.rx_frames)
            for node in list(net.hosts.values()) + list(net.switches.values())
            for port in node.ports
        },
        "links": {
            name: (link.tx_count, link.drop_count)
            for name, link in net.links.items()
        },
        "switches": {
            name: (switch.forwarded, switch.flooded, switch.table_snapshot())
            for name, switch in net.switches.items()
        },
        "rx_dropped": {
            name: host.rx_dropped for name, host in net.hosts.items()
        },
    }


# ---------------------------------------------------------------------------
# Unicast / multicast / capture equivalence
# ---------------------------------------------------------------------------


def test_unicast_multihop_equivalence():
    def scenario(cut_through):
        sim = Simulator()
        net = chain_network(sim, cut_through)
        cap = net.capture_all()
        arrivals = []
        net.host("h2").register_ethertype_handler(
            0x9999, lambda frame: arrivals.append((sim.now, frame.payload))
        )
        h1 = net.host("h1")
        h2 = net.host("h2")
        # Teach the switches both MACs, then stream known unicast.
        h2.send_ethernet("ff:ff:ff:ff:ff:ff", 0x9998, b"hello-from-h2")
        sim.run_for(SECOND)
        for burst in range(5):
            for index in range(4):
                h1.send_ethernet(h2.mac, 0x9999, bytes([burst, index]) * 40)
            sim.run_for(100 * MS)
        sim.run_for(SECOND)
        return arrivals, trace_of(cap), counters_of(net)

    slow, fast = both_planes(scenario)
    assert slow[0] == fast[0]  # identical delivery timestamps + payloads
    assert slow[1] == fast[1]  # identical capture traces
    assert slow[2] == fast[2]  # identical counters and MAC tables


def test_multicast_flood_equivalence():
    def scenario(cut_through):
        sim = Simulator()
        net = chain_network(sim, cut_through)
        cap = net.capture_all()
        arrivals = []
        for name in ("h2", "h3"):
            net.host(name).register_ethertype_handler(
                0x88B8,
                lambda frame, n=name: arrivals.append((n, sim.now)),
            )
        for index in range(10):
            net.host("h1").send_ethernet(
                "01:0c:cd:01:00:01", 0x88B8, bytes([index]) * 25
            )
            sim.run_for(37 * MS)
        return arrivals, trace_of(cap), counters_of(net)

    slow, fast = both_planes(scenario)
    assert slow == fast


def test_serialisation_queueing_equivalence():
    """Back-to-back frames queue behind each other per link direction."""

    def scenario(cut_through):
        sim = Simulator()
        net = chain_network(sim, cut_through, switches=2)
        arrivals = []
        net.host("h2").register_ethertype_handler(
            0x9999, lambda frame: arrivals.append(sim.now)
        )
        h2 = net.host("h2")
        h2.send_ethernet("ff:ff:ff:ff:ff:ff", 0x9998, b"teach")
        sim.run_for(SECOND)
        # One shot, ten frames: serialisation on the slow 10 Mbps trunk
        # must queue them at exactly the same instants in both planes.
        for index in range(10):
            net.host("h1").send_ethernet(h2.mac, 0x9999, bytes(1200))
        sim.run_for(5 * SECOND)
        return arrivals

    slow, fast = both_planes(scenario)
    assert slow == fast
    assert len(slow) == 10
    assert len(set(slow)) == 10  # genuinely spread out by queueing


# ---------------------------------------------------------------------------
# Seeded loss / link failure
# ---------------------------------------------------------------------------


def test_seeded_loss_equivalence():
    def scenario(cut_through):
        sim = Simulator()
        net = chain_network(sim, cut_through, drop=0.35, seed=1234)
        got = []
        net.host("h2").register_ethertype_handler(
            0x9999, lambda frame: got.append((sim.now, frame.payload))
        )
        h2_mac = net.host("h2").mac
        for index in range(100):
            net.host("h1").send_ethernet(h2_mac, 0x9999, bytes([index]))
            sim.run_for(10 * MS)
        return got, counters_of(net)

    slow, fast = both_planes(scenario)
    assert slow == fast
    drop_count = slow[1]["links"]["h1--sw1"][1]
    assert 0 < drop_count < 100  # the seeded RNG really dropped some


def test_link_down_window_equivalence():
    """Frames sent while a link is down are lost; recovery is exact."""

    def scenario(cut_through):
        sim = Simulator()
        net = chain_network(sim, cut_through, switches=2)
        got = []
        net.host("h2").register_ethertype_handler(
            0x9999, lambda frame: got.append((sim.now, frame.payload))
        )
        h2_mac = net.host("h2").mac
        trunk = net.links["sw1--sw2"]
        sim.schedule(int(0.95 * SECOND), trunk.set_down)
        sim.schedule(int(2.05 * SECOND), trunk.set_up)
        for index in range(30):
            net.host("h1").send_ethernet(h2_mac, 0x9999, bytes([index]))
            sim.run_for(100 * MS)
        return got, counters_of(net)

    slow, fast = both_planes(scenario)
    assert slow == fast
    delivered = {payload[0] for _, payload in slow[0]}
    assert delivered  # some frames made it
    assert len(delivered) < 30  # and the outage really dropped some


def test_in_flight_frame_lost_on_link_down():
    """A frame already in flight when the link fails never arrives.

    This exercises the cut-through plane's delivery-time flap recheck: the
    delivery event is already scheduled when ``set_down`` runs.
    """

    def scenario(cut_through):
        sim = Simulator()
        net = VirtualNetwork(sim, cut_through=cut_through)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.0.0.2")
        link = net.add_link("a", "b", latency_us=10 * MS)
        got = []
        b.register_ethertype_handler(0x9999, lambda frame: got.append(sim.now))
        a.send_ethernet(b.mac, 0x9999, b"doomed")
        sim.schedule(2 * MS, link.set_down)  # frame is mid-flight
        sim.run_for(SECOND)
        link.set_up()
        a.send_ethernet(b.mac, 0x9999, b"survivor")
        sim.run_for(SECOND)
        return got, link.drop_count, link.tx_count

    slow, fast = both_planes(scenario)
    assert slow == fast
    got, drop_count, tx_count = slow
    assert len(got) == 1  # only the post-recovery frame arrived
    assert drop_count == 1
    assert tx_count == 2


# ---------------------------------------------------------------------------
# MAC-table ageing / learning
# ---------------------------------------------------------------------------


def test_mac_ageing_reverts_to_flooding_equivalently():
    def scenario(cut_through):
        sim = Simulator()
        net = chain_network(sim, cut_through, switches=2)
        h3_rx = []
        net.host("h3").register_ethertype_handler(
            0x9999, lambda frame: h3_rx.append(sim.now)
        )
        h1 = net.host("h1")
        h2 = net.host("h2")
        h2.send_ethernet("ff:ff:ff:ff:ff:ff", 0x9998, b"teach")
        sim.run_for(SECOND)
        # Known unicast: h3 must NOT see it.
        h1.send_ethernet(h2.mac, 0x9999, b"targeted")
        sim.run_for(SECOND)
        seen_before_expiry = len(h3_rx)
        # Let every entry age beyond the 300 s ageing time, then resend:
        # unknown unicast again → flooded → h3 sees it.
        sim.run_for(MAC_AGEING_US + SECOND)
        h1.send_ethernet(h2.mac, 0x9999, b"flooded-after-expiry")
        sim.run_for(SECOND)
        snapshots = {
            name: switch.table_snapshot()
            for name, switch in net.switches.items()
        }
        return seen_before_expiry, len(h3_rx), snapshots

    slow, fast = both_planes(scenario)
    assert slow == fast
    seen_before, seen_after, snapshots = slow
    assert seen_before == 0
    assert seen_after == 1
    # The satellite fix: aged entries are evicted, not reported stale —
    # only the sender's fresh source learns remain.
    for snapshot in snapshots.values():
        assert "00:1a:22:00:00:02" not in snapshot  # h2 aged out everywhere


def test_swallowed_unicast_equivalence():
    """A flooded frame whose MAC entry points back at its ingress port is
    swallowed by the switch (no forward, no counter), identically."""

    def scenario(cut_through):
        sim = Simulator()
        net = VirtualNetwork(sim, cut_through=cut_through)
        h1 = net.add_host("h1", "10.0.0.1")
        h2 = net.add_host("h2", "10.0.0.2")
        net.add_switch("sw1")
        net.add_switch("sw2")
        net.add_link("h1", "sw1")
        net.add_link("sw1", "sw2")
        net.add_link("sw2", "h2")
        sw2 = net.switch("sw2")
        # sw2 believes h2 lives back towards sw1 (e.g. h2 recently moved):
        # a frame flooded from sw1 arrives at that very port and dies there.
        ingress = sw2.ports[0]  # the sw1-facing port
        sw2._learn(h2.mac, ingress, sim.now)
        h2_rx = []
        h2.register_ethertype_handler(0x9999, lambda frame: h2_rx.append(1))
        h1.send_ethernet(h2.mac, 0x9999, b"black-holed")
        sim.run_for(SECOND)
        return len(h2_rx), counters_of(net)

    slow, fast = both_planes(scenario)
    assert slow == fast
    assert slow[0] == 0  # swallowed, never delivered


# ---------------------------------------------------------------------------
# ARP spoofing / MITM
# ---------------------------------------------------------------------------


def test_arp_spoof_mitm_equivalence():
    """The Fig. 6 MITM pipeline produces identical wire traces and
    identical intercepted traffic under both delivery planes."""

    def scenario(cut_through):
        sim = Simulator()
        net = VirtualNetwork(sim, cut_through=cut_through)
        alice = net.add_host("alice", "10.0.0.1")
        bob = net.add_host("bob", "10.0.0.2")
        mallory = net.add_host("mallory", "10.0.0.66")
        net.add_switch("sw")
        for name in ("alice", "bob", "mallory"):
            net.add_link(name, "sw")
        cap = net.capture_all()
        received = []
        bob.udp_bind(7000, lambda ip, port, data: received.append(
            (sim.now, ip, data)
        ))
        sock = alice.udp_bind(7001, lambda *args: None)
        # Legitimate traffic first (teaches caches), then poison + relay.
        sock.sendto("10.0.0.2", 7000, b"before-attack")
        sim.run_for(SECOND)
        pipeline = MitmPipeline(mallory, "10.0.0.1", "10.0.0.2")
        pipeline.start()
        sim.run_for(SECOND)
        for index in range(5):
            sock.sendto("10.0.0.2", 7000, bytes([index]) * 10)
            sim.run_for(200 * MS)
        pipeline.stop()
        sim.run_for(100 * MS)  # drain in-flight frames before comparing
        return (
            received,
            pipeline.intercepted,
            dict(alice.arp_table),
            dict(bob.arp_table),
            trace_of(cap),
            counters_of(net),
        )

    slow, fast = both_planes(scenario)
    assert slow == fast
    received, intercepted, alice_arp, _, _, _ = slow
    assert intercepted >= 5  # the relay really carried the traffic
    assert len(received) == 6  # nothing lost through the attacker
    assert alice_arp["10.0.0.2"] == "00:1a:22:00:00:03"  # poisoned → mallory


def _reencode_tamper(packet, direction):
    """MITM transform on the generic codec: decode every R-GOOSE/R-SV
    datagram and re-encode it, scaling R-SV samples by 10 in flight."""
    datagram = packet.payload
    if not isinstance(datagram, UdpDatagram) or datagram.dst_port != RGOOSE_PORT:
        return packet
    wrapper = decode_value(datagram.payload)
    inner = decode_value(wrapper["payload"])
    if wrapper["sessionType"] == "r-sv":
        inner["seqData"] = [value * 10 for value in inner["seqData"]]
    wrapper["payload"] = encode_value(inner)
    return replace(
        packet, payload=replace(datagram, payload=encode_value(wrapper))
    )


def _session_payloads(trace, link):
    """``(sessionType, inner map, wire bytes)`` of the R-GOOSE/R-SV
    datagrams sent into the switch on ``link``, in order."""
    found = []
    for _, name, direction, frame in trace:
        packet = frame.payload
        if name != link or direction != "a->b":
            continue
        if not isinstance(getattr(packet, "payload", None), UdpDatagram):
            continue
        data = packet.payload.payload
        wrapper = decode_value(data)
        found.append(
            (wrapper["sessionType"], decode_value(wrapper["payload"]), data)
        )
    return found


def test_arp_spoof_mitm_tamper_composes_with_templated_payloads():
    """Publisher-template R-GOOSE/R-SV bytes through the MITM re-encode
    path: the relay decodes and re-encodes every datagram with the
    generic codec, so an untouched R-GOOSE message leaves the attacker
    byte-identical to what the victim sent, and a tampered R-SV message
    equals the reference encoding of the tampered values."""

    def scenario(cut_through):
        sim = Simulator()
        net = VirtualNetwork(sim, cut_through=cut_through)
        alice = net.add_host("alice", "10.0.0.1")
        bob = net.add_host("bob", "10.0.0.2")
        mallory = net.add_host("mallory", "10.0.0.66")
        net.add_switch("sw")
        for name in ("alice", "bob", "mallory"):
            net.add_link(name, "sw")
        cap = net.capture_all()
        received = []
        bob.udp_bind(RGOOSE_PORT, lambda ip, port, data: received.append(data))
        # Unicast to bob so the ARP-spoofed path carries the streams.
        goose = RGoosePublisher(alice, "ref", "ds", group_ip="10.0.0.2")
        sv = RSvPublisher(alice, "tie-I", group_ip="10.0.0.2")
        goose.start([1.5, True])
        sv.start(lambda: [0.25])
        sim.run_for(SECOND)
        pipeline = MitmPipeline(
            mallory, "10.0.0.1", "10.0.0.2", transform=_reencode_tamper
        )
        pipeline.start()
        sim.run_for(SECOND)
        goose.update([2.5, False])  # a state change mid-attack
        sim.run_for(SECOND)
        pipeline.stop()
        goose.stop()
        sv.stop()
        sim.run_for(100 * MS)
        trace = trace_of(cap)
        return (
            received,
            pipeline.modified,
            _session_payloads(trace, "alice--sw"),
            _session_payloads(trace, "mallory--sw"),
        )

    # The poisoning ARP exchange contends within the documented µs
    # divergence window, so the planes are compared on payloads, not on
    # whole traces.
    slow, fast = both_planes(scenario)
    assert slow == fast
    received, modified, sent, relayed = slow
    assert modified == len(relayed) >= 25
    # Every payload the victim sent equals the reference encoding.
    for session_type, inner, data in sent:
        reference = (
            SvMessage.from_bytes(encode_value(inner))
            if session_type == "r-sv"
            else GooseMessage.from_bytes(encode_value(inner))
        )
        wrapped = encode_value(
            {"sessionType": session_type, "payload": reference.to_bytes()}
        )
        assert data == wrapped
    # Relayed datagrams pair with the victim's by message timestamp.
    originals = {(kind, inner["t"]): data for kind, inner, data in sent}
    kinds = set()
    for session_type, inner, data in relayed:
        original = originals[(session_type, inner["t"])]
        kinds.add(session_type)
        if session_type == "r-goose":
            assert data == original  # re-encoded, byte-identical
        else:
            assert inner["seqData"] == [2.5]
            tampered = SvMessage(
                sv_id="tie-I", smp_cnt=inner["smpCnt"],
                timestamp_us=inner["t"], samples=[2.5],
            )
            assert data == encode_value(
                {"sessionType": "r-sv", "payload": tampered.to_bytes()}
            )
    assert kinds == {"r-goose", "r-sv"}
    assert [data for _, _, data in relayed] == received[-len(relayed):]


# ---------------------------------------------------------------------------
# Plane mechanics
# ---------------------------------------------------------------------------


def test_forwarding_rev_invalidation_points(sim):
    net = VirtualNetwork(sim, cut_through=True)
    net.add_host("a", "10.0.0.1")
    net.add_host("b", "10.0.0.2")
    net.add_switch("sw")
    link = net.add_link("a", "sw")
    rev = net.fwd.rev
    net.add_link("b", "sw")
    assert net.fwd.rev > rev  # topology edit
    rev = net.fwd.rev
    link.set_down()
    assert net.fwd.rev > rev and net.fwd.flaps == 1
    rev = net.fwd.rev
    link.set_up()
    assert net.fwd.rev > rev and net.fwd.flaps == 2
    rev = net.fwd.rev
    net.capture("a--sw")
    assert net.fwd.rev > rev and net.fwd.captures == 1
    rev = net.fwd.rev
    net.switch("sw")._learn("00:aa:00:00:00:01", net.switch("sw").ports[0], 0)
    assert net.fwd.rev > rev  # new learn
    rev = net.fwd.rev
    net.switch("sw")._learn("00:aa:00:00:00:01", net.switch("sw").ports[0], 5)
    assert net.fwd.rev == rev  # refresh only: no invalidation


def test_path_cache_hits_and_recompiles(sim):
    net = VirtualNetwork(sim, cut_through=True)
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    net.add_switch("sw")
    net.add_link("a", "sw")
    net.add_link("b", "sw")
    got = []
    b.register_ethertype_handler(0x9999, lambda frame: got.append(1))
    for _ in range(10):
        a.send_ethernet(b.mac, 0x9999, b"x")
        sim.run_for(10 * MS)
    stats = net.forwarding_stats()
    assert stats["cut_through"] == 1.0
    assert len(got) == 10
    # First send floods (unknown dst) and learns a's MAC (recompile);
    # steady state is pure cache hits.
    assert stats["cache_hits"] >= 7
    assert stats["path_compiles"] <= 3
    assert stats["delivery_events"] == stats["deliveries"] == 10


def test_cut_through_constructor_opt_out(sim):
    net = VirtualNetwork(sim, cut_through=False)
    assert net.cut_through is False
    host = net.add_host("a", "10.0.0.1")
    assert host.plane is None
    assert VirtualNetwork(sim).cut_through is True  # the default


def test_set_cut_through_flips_mid_run(sim):
    net = VirtualNetwork(sim, cut_through=True)
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    net.add_link("a", "b")
    got = []
    b.register_ethertype_handler(0x9999, lambda frame: got.append(1))
    a.send_ethernet(b.mac, 0x9999, b"one")
    sim.run_for(SECOND)
    net.set_cut_through(False)
    assert a.plane is None
    a.send_ethernet(b.mac, 0x9999, b"two")
    sim.run_for(SECOND)
    net.set_cut_through(True)
    a.send_ethernet(b.mac, 0x9999, b"three")
    sim.run_for(SECOND)
    assert len(got) == 3


def test_mac_table_prune_bounds_forged_floods(sim):
    """An attacker spraying forged source MACs cannot grow the table
    unboundedly: bulk pruning evicts aged entries as the table grows."""
    net = VirtualNetwork(sim, cut_through=True)
    attacker = net.add_host("m", "10.0.0.66")
    net.add_host("b", "10.0.0.2")
    net.add_switch("sw")
    net.add_link("m", "sw")
    net.add_link("b", "sw")
    switch = net.switch("sw")
    # Spray 400 forged source MACs, then age them out and spray again:
    # the second wave's bulk prune evicts the aged first wave.
    for index in range(400):
        attacker.send_ethernet(
            "ff:ff:ff:ff:ff:ff", 0x9999, b"x",
        )
        frame_mac = f"02:00:00:00:{index >> 8:02x}:{index & 0xff:02x}"
        switch._learn(frame_mac, switch.ports[0], sim.now)
    assert len(switch.mac_table) >= 400
    sim.run_for(MAC_AGEING_US + SECOND)
    for index in range(300):
        frame_mac = f"02:00:00:01:{index >> 8:02x}:{index & 0xff:02x}"
        switch._learn(frame_mac, switch.ports[0], sim.now)
    # The first wave aged out and was bulk-evicted along the way.
    assert len(switch.mac_table) < 500
    assert not any(mac.startswith("02:00:00:00") for mac in switch.mac_table)


def test_mac_table_hard_capacity_cap(sim):
    """Fresh (un-aged) forged MACs saturate the table at MAC_TABLE_MAX,
    like a hardware CAM — beyond it, new addresses are simply not learned."""
    from repro.netem.switch import MAC_TABLE_MAX, Switch

    switch = Switch("sw", sim)
    port = switch.add_port()
    for index in range(MAC_TABLE_MAX + 500):
        switch._learn(f"02:{index >> 16:02x}:{(index >> 8) & 0xff:02x}:"
                      f"{index & 0xff:02x}:00:01", port, sim.now)
    assert len(switch.mac_table) == MAC_TABLE_MAX


# ---------------------------------------------------------------------------
# Whole-range differential (EPIC model, attack + failure traffic)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def epic_dir(tmp_path_factory):
    from repro.epic import generate_epic_model

    return generate_epic_model(str(tmp_path_factory.mktemp("epic-diff")))


def _epic_observation(epic_dir, cut_through):
    from repro.sgml import SgmlModelSet, SgmlProcessor

    model = SgmlModelSet.from_directory(epic_dir)
    cyber_range = SgmlProcessor(model).compile()
    # Boot both runs on the hop-by-hop plane so they reach byte-identical
    # state (cold boot floods ARP broadcasts within single-microsecond
    # windows, which is exactly the documented send-time learn divergence),
    # then flip one run to cut-through for the compared window.
    cyber_range.network.set_cut_through(False)
    capture = cyber_range.capture_all()
    cyber_range.start()
    cyber_range.run_for(2.0)
    if cut_through:
        cyber_range.network.set_cut_through(True)
    # Inject a link outage and a breaker trip mid-window so the compared
    # traffic includes GOOSE bursts and failure handling, not just idle
    # heartbeats.
    cyber_range.network.links["GIED1--sw-GenLAN"].set_down()
    cyber_range.run_for(1.0)
    cyber_range.network.links["GIED1--sw-GenLAN"].set_up()
    cyber_range.ieds["TIED1"].operate_breaker("CB_T1", close=False, source="diff")
    cyber_range.run_for(2.0)
    # Quiesce before comparing: with traffic sources stopped and in-flight
    # frames drained, both planes have processed exactly the same journeys
    # (a run cut mid-flight would truncate the hop-by-hop plane's records
    # at the horizon while the cut-through walk already recorded them).
    cyber_range.stop()
    cyber_range.simulator.run_for(1 * SECOND)
    return (
        trace_of(capture),
        counters_of(cyber_range.network),
        {
            name: ied.peer_breaker_status
            for name, ied in cyber_range.ieds.items()
        },
        cyber_range.measurement("meas/system/slack_p_mw"),
    )


def test_epic_range_differential(epic_dir):
    """Whole-range equivalence under live contention.

    With dozens of hosts polling concurrently, independent frames contend
    for the same link within single-microsecond serialisation windows; the
    cut-through plane claims those windows at send time while the
    hop-by-hop plane claims them at per-hop arrival time (the documented
    divergence window in :mod:`repro.netem.forwarding`).  Exact
    frame-for-frame equality is therefore asserted by the netem-level
    differential tests above; at whole-range scale the contract is
    behavioural: the same protection decisions, the same physics, and a
    wire trace identical up to microsecond-bounded contention skew.
    """
    slow = _epic_observation(epic_dir, cut_through=False)
    fast = _epic_observation(epic_dir, cut_through=True)
    # GOOSE-carried protection state propagated identically everywhere.
    assert slow[2] == fast[2]
    # Physics identical (breaker trip + link flap applied the same way).
    assert slow[3] == pytest.approx(fast[3])
    # Wire traces match frame-for-frame up to contention skew: well over
    # 99% of all (link, direction, frame-bytes) records are identical,
    # on identical links in identical order.
    slow_frames = _trace_multiset(slow[0])
    fast_frames = _trace_multiset(fast[0])
    displaced = sum((slow_frames - fast_frames).values()) + sum(
        (fast_frames - slow_frames).values()
    )
    total = len(slow[0]) + len(fast[0])
    assert displaced / total < 0.005, (
        f"{displaced} of {total} records displaced beyond contention skew"
    )
    assert abs(len(slow[0]) - len(fast[0])) / len(slow[0]) < 0.005


def _trace_multiset(trace):
    from collections import Counter

    return Counter((link, direction, repr(frame)) for _, link, direction, frame in trace)
