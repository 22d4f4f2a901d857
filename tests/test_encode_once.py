"""Encode once: publisher wire templates vs the reference encoder.

GOOSE and SV publishers assemble their payloads from pre-encoded
templates instead of calling ``GooseMessage.to_bytes`` /
``SvMessage.to_bytes`` per message.  The contract is byte identity: every
payload a publisher emits equals the reference encoding of the message it
stands for (``to_bytes()``, wrapped for R-GOOSE/R-SV by a plain
``encode_value`` session map).  The publisher-level tests model the
expected message fields independently of the publisher; the range-level
test pins every payload sent by a whole storm range, plus the kernel
digest, to values recorded with the reference encoder.
"""

import hashlib
import math
import random

import pytest

from repro.iec61850 import (
    GooseMessage,
    GoosePublisher,
    RGoosePublisher,
    RSvPublisher,
    SvMessage,
    SvPublisher,
    encode_value,
)
from repro.iec61850.codec import CodecError, decode_value, typed_fields
from repro.iec61850.goose import GOOSE_MAX_INTERVAL_US, GOOSE_MIN_INTERVAL_US
from repro.iec61850.rgoose import _unwrap_uncached
from repro.kernel import MS, SECOND


def innermost(payload):
    """The bytes inside a frame (through IPv4/UDP/TCP), else the object."""
    while not isinstance(payload, bytes) and hasattr(payload, "payload"):
        payload = payload.payload
    return payload


def record_sends(host):
    """Log ``(time_us, payload bytes)`` of every frame ``host`` sends."""
    sent = []
    send_frame = host.send_frame

    def recording(frame):
        payload = innermost(frame.payload)
        if isinstance(payload, bytes):
            sent.append((host.simulator.now, payload))
        send_frame(frame)

    host.send_frame = recording
    return sent


def session_wrap(session_type, payload):
    return encode_value({"sessionType": session_type, "payload": payload})


class GooseModel:
    """The IEC 61850-8-1 retransmission state machine, written out."""

    def __init__(self, gocb_ref, dat_set, go_id="", conf_rev=1):
        self.fields = dict(
            gocb_ref=gocb_ref, dat_set=dat_set, go_id=go_id or gocb_ref,
            test=False, conf_rev=conf_rev,
        )
        self.st_num = 0
        self.values = []

    def change(self, values):
        self.values = list(values)
        self.st_num += 1
        self.sq_num = 0
        self.interval_us = GOOSE_MIN_INTERVAL_US

    def next_message(self, time_us):
        message = GooseMessage(
            st_num=self.st_num,
            sq_num=self.sq_num,
            time_allowed_to_live_ms=max(2 * self.interval_us // MS, 10),
            timestamp_us=time_us,
            all_data=self.values,
            **self.fields,
        )
        self.sq_num += 1
        self.interval_us = min(2 * self.interval_us, GOOSE_MAX_INTERVAL_US)
        return message


def check_goose(sent, model, wrap=lambda payload: payload):
    """Every logged payload equals the model's next reference message."""
    messages = [model.next_message(time_us) for time_us, _ in sent]
    assert [payload for _, payload in sent] == [
        wrap(message.to_bytes()) for message in messages
    ]
    return messages


@pytest.mark.parametrize("routable", [False, True])
def test_goose_publisher_bytes_equal_reference(lan, sim, routable):
    host = lan.host("h1")
    sent = record_sends(host)
    if routable:
        publisher = RGoosePublisher(host, "IED1LD0/LLN0$GO$g1", "ds1")
        wrap = lambda payload: session_wrap("r-goose", payload)  # noqa: E731
    else:
        publisher = GoosePublisher(
            host, "IED1LD0/LLN0$GO$g1", "ds1", go_id="g1", conf_rev=7
        )
        wrap = lambda payload: payload  # noqa: E731
    model = GooseModel(
        publisher.gocb_ref, publisher.dat_set, publisher.go_id,
        publisher.conf_rev,
    )

    # Start burst: timeAllowedtoLive steps up from 10 ms to 2000 ms.
    dataset = [["breaker", "CB1", True], ["op", "PTOC1", False], 1.5]
    publisher.start(dataset)
    model.change(dataset)
    dataset.append("mutated after start")  # the publisher keeps a copy
    sim.run_for(3 * SECOND)
    burst = check_goose(sent, model, wrap)
    ttls = [message.time_allowed_to_live_ms for message in burst]
    assert ttls[0] == 10 and ttls[-1] == 2000
    assert ttls == sorted(ttls) and len(set(ttls)) >= 8
    del sent[:]

    # Equal dataset: no stNum bump, the heartbeat just continues.
    publisher.update([["breaker", "CB1", True], ["op", "PTOC1", False], 1.5])
    sim.run_for(2 * SECOND)
    heartbeats = check_goose(sent, model, wrap)
    assert {m.st_num for m in heartbeats} == {1} and len(heartbeats) == 2
    del sent[:]

    # Changed dataset: new stNum, sqNum restarts, a fresh burst.
    for values in ([["breaker", "CB1", False]], [-0.0], [2], [True], ["x"]):
        publisher.update(values)
        model.change(values)
        sim.run_for(SECOND + 500 * MS)
        check_goose(sent, model, wrap)
        del sent[:]
    assert publisher.st_num == 6


@pytest.mark.parametrize("routable", [False, True])
def test_goose_timestamps_beyond_32_bits(lan, sim, routable):
    """``t`` crosses 2**31 µs (a longer INT body) mid-stream."""
    sim.run_until(2**31 - 1500 * MS)
    host = lan.host("h1")
    sent = record_sends(host)
    cls = RGoosePublisher if routable else GoosePublisher
    publisher = cls(host, "ref", "ds")
    model = GooseModel("ref", "ds")
    publisher.start([True])
    model.change([True])
    sim.run_for(4 * SECOND)
    wrap = (lambda p: session_wrap("r-goose", p)) if routable else (lambda p: p)
    messages = check_goose(sent, model, wrap)
    assert messages[0].timestamp_us < 2**31 < messages[-1].timestamp_us


def sample_script():
    """Sample values to publish, one per interval, with repeats and the
    pairs that compare equal yet encode differently."""
    return [
        [1.0], [1.0], [2.5], [2.5], [0.0], [-0.0], [-0.0], [0.0],
        [1], [1.0], [True], [True], [math.nan], [math.nan],
        [1.0, 2.0], [1.0, 2.0], [1.0], [], [],
        [["Ia", 1.0]], [["Ia", 2.0]], [["Ia", 2.0]], ["x"], [None], [b"\x00"],
    ]


def same_list_source(script):
    """A source that mutates and returns the *same* list object each
    time — a cache keyed on the list's identity would go stale."""
    buffer = []
    pending = iter(script)

    def source():
        values = next(pending)
        if values and isinstance(values[0], list):
            # Nested samples mutated in place, not replaced.
            if buffer and isinstance(buffer[0], list):
                buffer[0][1] = values[0][1]
                return buffer
        buffer[:] = [list(v) if isinstance(v, list) else v for v in values]
        return buffer

    return source


@pytest.mark.parametrize("routable", [False, True])
def test_sv_publisher_bytes_equal_reference(lan, sim, routable):
    host = lan.host("h1")
    sent = record_sends(host)
    if routable:
        publisher = RSvPublisher(host, "tie-I", interval_us=100 * MS)
        wrap = lambda payload: session_wrap("r-sv", payload)  # noqa: E731
    else:
        publisher = SvPublisher(host, "sv1", interval_us=100 * MS)
        wrap = lambda payload: payload  # noqa: E731
    script = sample_script()
    publisher.smp_cnt = 0xFFFF - 3  # wraps to 0 inside the script
    publisher.start(same_list_source(script))
    sim.run_for(len(script) * 100 * MS)
    assert len(sent) == len(script)
    expected = []
    for index, ((time_us, _), samples) in enumerate(zip(sent, script)):
        message = SvMessage(
            sv_id=publisher.sv_id,
            smp_cnt=(0xFFFF - 3 + index) & 0xFFFF,
            timestamp_us=time_us,
            samples=samples,
        )
        expected.append(wrap(message.to_bytes()))
    assert [payload for _, payload in sent] == expected
    assert publisher.smp_cnt == (0xFFFF - 3 + len(script)) & 0xFFFF


# ---------------------------------------------------------------------------
# Range level: a 5-substation storm range, pinned to the reference encoder
# ---------------------------------------------------------------------------

#: SHA-256 over every payload the range below sends (time, source MAC,
#: destination, ethertype, bytes), and the kernel digest, both recorded
#: with publishers calling ``to_bytes()`` per message.
STORM_GOLDEN = {
    "sends": 1735,
    "sha256": "8a84192d67b711ccc5b25b9e180718ec44e46c6a4be9324ed4ec4b4e0327a3be",
    "digest": {"now": 4_000_000, "processed": 3977},
}


def storm_fingerprint(model_dir, sim_s=3.0):
    """Run the scale-out storm (a tie breaker toggled every power-flow
    tick) and hash every payload any host sends."""
    from repro.netem.host import Host
    from repro.sgml import SgmlModelSet, SgmlProcessor

    cyber_range = SgmlProcessor(SgmlModelSet.from_directory(model_dir)).compile()
    simulator = cyber_range.simulator
    sha = hashlib.sha256()
    sends = [0]
    send_frame = Host.send_frame

    def hashing(host, frame):
        payload = innermost(frame.payload)
        if isinstance(payload, bytes):
            sends[0] += 1
            destination = getattr(frame.payload, "dst_ip", frame.dst_mac)
            sha.update(
                f"{simulator.now}|{frame.src_mac}|{destination}|"
                f"{frame.ethertype}|{len(payload)}|".encode()
            )
            sha.update(payload)
        send_frame(host, frame)

    Host.send_frame = hashing
    try:
        cyber_range.start()
        cyber_range.run_for(1.0)
        state = [True]

        def toggle():
            state[0] = not state[0]
            cyber_range.power_net.set_switch("CB_S5_TIEIN", state[0])

        interval = int(cyber_range.sim_interval_ms * MS)
        simulator.every(interval, toggle, label="event-storm")
        cyber_range.run_for(sim_s)
    finally:
        Host.send_frame = send_frame
    return {
        "sends": sends[0],
        "sha256": sha.hexdigest(),
        "digest": simulator.digest(),
    }


@pytest.fixture(scope="module")
def scaleout5_dir(tmp_path_factory):
    from repro.epic import generate_scaleout_model

    return generate_scaleout_model(
        str(tmp_path_factory.mktemp("encode-once")),
        substations=5,
        total_ieds=104,
    )


def test_storm_range_payloads_match_reference_golden(scaleout5_dir):
    assert storm_fingerprint(scaleout5_dir) == STORM_GOLDEN


def _unwrap_reference(data):
    """The session wrapper read by the general decoder alone."""
    decoded = decode_value(data)
    if not isinstance(decoded, dict):
        raise CodecError("session wrapper is not a map")
    return typed_fields(
        decoded, (("sessionType", str, ""), ("payload", bytes, b""))
    )


def _outcome(unwrap, data):
    try:
        return ("ok", unwrap(data))
    except CodecError:
        return ("error",)


@pytest.mark.parametrize("session_type", ["r-goose", "r-sv"])
def test_session_unwrap_matches_general_decode(session_type):
    """The receive side of the session template: a wrapper is split by its
    headers, and that split agrees with a full decode on well-formed
    wrappers (short- and long-form lengths) and on byte-level mutations of
    them (flips, insertions, deletions, truncations)."""
    rnd = random.Random(session_type)
    for _ in range(3000):
        size = rnd.choice([0, 1, 100, 127, 128, 300])
        payload = bytes(rnd.randrange(256) for _ in range(size))
        data = bytearray(session_wrap(session_type, payload))
        assert _unwrap_uncached(bytes(data)) == [session_type, payload]
        for _ in range(rnd.choice([1, 1, 2, 3])):
            index = rnd.randrange(len(data))
            operation = rnd.randrange(4)
            if operation == 0:
                data[index] = rnd.randrange(256)
            elif operation == 1:
                data.insert(index, rnd.randrange(256))
            elif operation == 2:
                del data[index]
            else:
                del data[index:]
            if not data:
                break
        mutated = bytes(data)
        assert _outcome(_unwrap_uncached, mutated) == _outcome(
            _unwrap_reference, mutated
        )
