"""IEC 61850 stack: codec, MMS services, GOOSE state machine, R-GOOSE/R-SV."""

import pytest

from repro.kernel import MS, SECOND, Simulator
from repro.netem import VirtualNetwork
from repro.iec61850 import (
    CodecError,
    GooseMessage,
    GoosePublisher,
    GooseSubscriber,
    MmsClient,
    MmsError,
    MmsServer,
    SvMessage,
    SvPublisher,
    SvSubscriber,
    decode_value,
    encode_value,
)
from repro.iec61850.goose import GOOSE_MAX_INTERVAL_US, GOOSE_MIN_INTERVAL_US
from repro.iec61850.rgoose import (
    RGoosePublisher,
    RGooseSubscriber,
    RSvPublisher,
    RSvSubscriber,
)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        127,
        128,
        -129,
        2**40,
        -(2**40),
        1.5,
        -0.25,
        "",
        "hello",
        "unicode ✓",
        b"",
        b"\x00\xff",
        [],
        [1, "two", 3.0, None, True],
        [[1, 2], [3, [4]]],
        {},
        {"a": 1, "b": [True, {"c": "d"}]},
        {"k" * 200: "long-form key"},
    ],
)
def test_codec_round_trip(value):
    assert decode_value(encode_value(value)) == value


def test_codec_bool_not_confused_with_int():
    assert decode_value(encode_value(True)) is True
    assert decode_value(encode_value(1)) == 1
    assert not isinstance(decode_value(encode_value(1)), bool)


def test_codec_long_form_length():
    blob = b"x" * 300  # needs long-form length encoding
    assert decode_value(encode_value(blob)) == blob


def test_codec_rejects_trailing_garbage():
    with pytest.raises(CodecError):
        decode_value(encode_value(1) + b"\x00")


def test_codec_rejects_truncated():
    encoded = encode_value("hello world")
    with pytest.raises(CodecError):
        decode_value(encoded[:-3])


def test_codec_rejects_unknown_tag():
    with pytest.raises(CodecError):
        decode_value(b"\x7f\x00")


def test_codec_rejects_unencodable():
    with pytest.raises(CodecError):
        encode_value(object())


def test_codec_rejects_non_string_map_key():
    with pytest.raises(CodecError):
        encode_value({1: "x"})


# ---------------------------------------------------------------------------
# MMS
# ---------------------------------------------------------------------------


class _Provider:
    def __init__(self):
        self.data = {
            "LD0/MMXU1.TotW.mag.f": 5.5,
            "LD0/XCBR1.Pos.stVal": True,
        }
        self.writes = []

    def mms_identify(self):
        return {"vendor": "test", "model": "prov"}

    def mms_get_name_list(self, object_class, domain):
        if not domain:
            return ["LD0"]
        return sorted(k for k in self.data if k.startswith(domain))

    def mms_read(self, reference):
        if reference not in self.data:
            raise MmsError(f"unknown {reference}")
        return self.data[reference]

    def mms_write(self, reference, value):
        if reference.endswith("stVal"):
            raise MmsError("read-only")
        self.writes.append((reference, value))
        self.data[reference] = value


@pytest.fixture
def mms_pair(lan, sim):
    provider = _Provider()
    server = MmsServer(lan.host("h2"), provider)
    server.start()
    client = MmsClient(lan.host("h1"), "10.0.0.2")
    client.connect()
    sim.run_for(SECOND)
    assert client.connected
    return provider, server, client


def test_mms_association(mms_pair):
    _, server, client = mms_pair
    assert client.associated
    assert server.connection_count == 1


def test_mms_read_and_errors(mms_pair, sim):
    _, _, client = mms_pair
    out = {}
    client.read(
        ["LD0/MMXU1.TotW.mag.f", "LD0/nope"],
        lambda result, error: out.update(result=result, error=error),
    )
    sim.run_for(SECOND)
    assert out["error"] is None
    assert out["result"][0] == {"value": 5.5}
    assert "error" in out["result"][1]


def test_mms_write_success_and_reject(mms_pair, sim):
    provider, _, client = mms_pair
    replies = []
    client.write("LD0/new.setting", 42, lambda r, e: replies.append((r, e)))
    client.write(
        "LD0/XCBR1.Pos.stVal", False, lambda r, e: replies.append((r, e))
    )
    sim.run_for(SECOND)
    assert replies[0] == (True, None)
    assert replies[1][1] == "read-only"
    assert provider.writes == [("LD0/new.setting", 42)]


def test_mms_get_name_list(mms_pair, sim):
    _, _, client = mms_pair
    out = {}
    client.get_name_list(lambda r, e: out.update(domains=r))
    client.get_name_list(lambda r, e: out.update(vars=r), domain="LD0")
    sim.run_for(SECOND)
    assert out["domains"] == ["LD0"]
    assert len(out["vars"]) == 2


def test_mms_identify(mms_pair, sim):
    _, _, client = mms_pair
    out = {}
    client.identify(lambda r, e: out.update(r))
    sim.run_for(SECOND)
    assert out["vendor"] == "test"


def test_mms_unsolicited_reports(mms_pair, sim):
    _, server, client = mms_pair
    reports = []
    client.on_report = reports.append
    client.enable_reports()
    sim.run_for(SECOND)
    server.send_report({"LD0/MMXU1.TotW.mag.f": 9.9})
    sim.run_for(SECOND)
    assert reports == [{"LD0/MMXU1.TotW.mag.f": 9.9}]


def test_mms_request_before_connect_raises(lan):
    client = MmsClient(lan.host("h1"), "10.0.0.2")
    with pytest.raises(MmsError):
        client.read(["x"], lambda r, e: None)


def test_mms_unsupported_service(mms_pair, sim):
    _, _, client = mms_pair
    out = {}
    client.request("fileOpen", {}, lambda r, e: out.update(error=e))
    sim.run_for(SECOND)
    assert "unsupported" in out["error"]


# ---------------------------------------------------------------------------
# GOOSE
# ---------------------------------------------------------------------------


def test_goose_message_round_trip():
    message = GooseMessage(
        gocb_ref="IEDLD0/LLN0$GO$g1",
        dat_set="ds",
        go_id="g1",
        st_num=3,
        sq_num=7,
        time_allowed_to_live_ms=2000,
        test=False,
        conf_rev=1,
        timestamp_us=123456,
        all_data=[True, 1.5, ["breaker", "CB1", False]],
    )
    decoded = GooseMessage.from_bytes(message.to_bytes())
    assert decoded == message


def test_goose_state_change_increments_stnum(lan, sim):
    updates = []
    GooseSubscriber(
        lan.host("h2"), "ref1", lambda m: updates.append((m.st_num, m.all_data))
    )
    publisher = GoosePublisher(lan.host("h1"), "ref1", "ds1")
    publisher.start([False])
    sim.run_for(SECOND)
    publisher.update([True])
    sim.run_for(SECOND)
    assert updates == [(1, [False]), (2, [True])]


def test_goose_heartbeat_retransmits_with_sqnum(lan, sim):
    subscriber = GooseSubscriber(lan.host("h2"), "ref1", lambda m: None)
    publisher = GoosePublisher(lan.host("h1"), "ref1", "ds1")
    publisher.start([1])
    sim.run_for(5 * SECOND)
    assert subscriber.rx_count >= 5  # burst + heartbeats
    assert subscriber.last_message.sq_num > 0
    assert subscriber.last_message.st_num == 1


def test_goose_no_change_no_new_stnum(lan, sim):
    publisher = GoosePublisher(lan.host("h1"), "ref1", "ds1")
    publisher.start([1, 2])
    sim.run_for(SECOND)
    publisher.update([1, 2])  # identical dataset
    assert publisher.st_num == 1


def test_goose_burst_backoff_intervals(lan, sim):
    """First retransmissions are dense, later ones at the heartbeat."""
    times = []
    GooseSubscriber(lan.host("h2"), "ref1", lambda m: None).on_update = None
    host = lan.host("h2")
    from repro.netem.frames import ETHERTYPE_GOOSE

    host.register_ethertype_handler(
        ETHERTYPE_GOOSE, lambda frame: times.append(sim.now)
    )
    publisher = GoosePublisher(lan.host("h1"), "ref2", "ds")
    publisher.start([True])
    sim.run_for(4 * SECOND)
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert deltas[0] < 3 * GOOSE_MIN_INTERVAL_US
    assert deltas[-1] >= GOOSE_MAX_INTERVAL_US * 0.9


def test_goose_subscriber_filters_by_ref(lan, sim):
    updates = []
    GooseSubscriber(lan.host("h2"), "wanted", lambda m: updates.append(m))
    other = GoosePublisher(lan.host("h1"), "unwanted", "ds")
    other.start([1])
    sim.run_for(SECOND)
    assert updates == []


def test_goose_staleness_detection(lan, sim):
    stale = []
    subscriber = GooseSubscriber(
        lan.host("h2"),
        "ref1",
        lambda m: None,
        stale_timeout_us=2 * SECOND,
        on_stale=lambda: stale.append(sim.now),
    )
    publisher = GoosePublisher(lan.host("h1"), "ref1", "ds")
    publisher.start([1])
    sim.run_for(SECOND)
    assert subscriber.healthy
    publisher.stop()
    sim.run_for(5 * SECOND)
    assert not subscriber.healthy
    assert stale


# ---------------------------------------------------------------------------
# SV / R-GOOSE / R-SV
# ---------------------------------------------------------------------------


def test_sv_stream(lan, sim):
    samples = []
    SvSubscriber(lan.host("h2"), "sv1", lambda m: samples.append(m.samples))
    value = [0.0]
    publisher = SvPublisher(lan.host("h1"), "sv1", interval_us=100 * MS)
    publisher.start(lambda: [value[0]])
    value[0] = 3.3
    sim.run_for(SECOND)
    assert samples
    assert samples[-1] == [3.3]
    # The final frame may still be in flight when the clock stops.
    assert publisher.smp_cnt >= len(samples) >= 9


def test_sv_message_round_trip():
    message = SvMessage(sv_id="s", smp_cnt=9, timestamp_us=1, samples=[1.0, 2.0])
    assert SvMessage.from_bytes(message.to_bytes()) == message


def test_rgoose_crosses_ip_network(lan, sim):
    updates = []
    RGooseSubscriber(lan.host("h3"), "rref", lambda m: updates.append(m.all_data))
    publisher = RGoosePublisher(lan.host("h1"), "rref", "ds")
    publisher.start([42])
    sim.run_for(SECOND)
    publisher.update([43])
    sim.run_for(SECOND)
    assert [42] in updates and [43] in updates


def test_rsv_stream_and_health(lan, sim):
    received = []
    subscriber = RSvSubscriber(
        lan.host("h2"), "tie-I", lambda m: received.append(m.samples)
    )
    publisher = RSvPublisher(lan.host("h1"), "tie-I", interval_us=100 * MS)
    publisher.start(lambda: [0.123])
    sim.run_for(SECOND)
    assert received and received[-1] == [0.123]
    assert subscriber.healthy
    publisher.stop()
    sim.run_for(3 * SECOND)
    assert not subscriber.healthy


def test_rsv_filters_by_sv_id(lan, sim):
    received = []
    RSvSubscriber(lan.host("h2"), "wanted", lambda m: received.append(m))
    publisher = RSvPublisher(lan.host("h1"), "unwanted")
    publisher.start(lambda: [1.0])
    sim.run_for(SECOND)
    assert received == []


# ---------------------------------------------------------------------------
# Hostile input: decoders raise only CodecError
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "decoder, fields",
    [
        (SvMessage.from_bytes, {"svID": "x", "smpCnt": "z"}),
        (GooseMessage.from_bytes, {"gocbRef": "r", "stNum": "x"}),
        (GooseMessage.from_bytes, {"gocbRef": "r", "allData": 5}),
        (GooseMessage.from_bytes, {"gocbRef": "r", "stNum": None}),
    ],
    ids=["sv-smpCnt-str", "goose-stNum-str", "goose-allData-int",
         "goose-stNum-null"],
)
def test_decoder_rejects_mistyped_field_with_codec_error(decoder, fields):
    with pytest.raises(CodecError):
        decoder(encode_value(fields))


def test_codec_rejects_deep_nesting_with_codec_error():
    blob = encode_value(None)
    for _ in range(5000):  # far past the interpreter's recursion limit
        blob = b"\x30" + encode_value(blob)[1:]  # a sequence around blob
    with pytest.raises(CodecError):
        decode_value(blob)


def test_goose_subscriber_counts_and_drops_malformed(lan, sim):
    from repro.netem.frames import ETHERTYPE_GOOSE

    subscriber = GooseSubscriber(lan.host("h2"), "ref1", lambda m: None)
    GoosePublisher(lan.host("h1"), "ref1", "ds").start([1])
    lan.host("h3").send_ethernet(
        "01:0c:cd:01:00:01", ETHERTYPE_GOOSE,
        encode_value({"gocbRef": "ref1", "stNum": "x"}),
    )
    sim.run_for(2 * SECOND)
    assert subscriber.rx_malformed == 1
    assert subscriber.rx_count >= 2 and subscriber.last_message.st_num == 1


def test_rsv_subscriber_counts_and_drops_malformed(lan, sim):
    from repro.iec61850.rgoose import DEFAULT_RSV_GROUP, RGOOSE_PORT

    subscriber = RSvSubscriber(lan.host("h2"), "tie-I", lambda m: None)
    RSvPublisher(lan.host("h1"), "tie-I").start(lambda: [0.5])
    socket = lan.host("h3").udp_bind(40000, lambda *args: None)
    for datagram in (
        {"sessionType": "r-sv",
         "payload": encode_value({"svID": "tie-I", "smpCnt": "z"})},
        {"sessionType": "r-sv", "payload": "not bytes"},
        {"sessionType": 7, "payload": b""},
    ):
        socket.sendto(DEFAULT_RSV_GROUP, RGOOSE_PORT, encode_value(datagram))
    sim.run_for(SECOND)
    assert subscriber.rx_malformed == 3
    assert subscriber.rx_count >= 9 and subscriber.last_message.samples == [0.5]
