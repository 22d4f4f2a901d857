"""R-GOOSE and R-SV: routable GOOSE / Sampled Values (IEC 61850-90-5).

For inter-substation protection (the paper's PDIF differential protection
and CILO interlocking across substations) the L2 multicast payloads are
wrapped in a session header and carried over UDP/IP multicast so routers/
the WAN can forward them.  Port 102 is used per IEC 61850-90-5.
"""

from __future__ import annotations

from typing import Callable

from repro.iec61850.codec import (
    TAG_MAP,
    TAG_OCTETS,
    CodecError,
    _tlv,
    decode_value,
    encode_value,
    memoize_by_identity,
    tlv_span,
    typed_fields,
)
from repro.iec61850.goose import (
    GooseMessage,
    GoosePublisher,
    GooseSubscriber,
    decode_goose,
)
from repro.iec61850.sv import SvMessage, SvPublisher, SvSubscriber, decode_sv
from repro.kernel import MS, SECOND
from repro.netem.host import Host, UdpSocket

RGOOSE_PORT = 102
#: Default multicast groups for routable traffic.
DEFAULT_RGOOSE_GROUP = "239.192.0.1"
DEFAULT_RSV_GROUP = "239.192.0.2"

_SESSION_RGOOSE = "r-goose"
_SESSION_RSV = "r-sv"


#: Pre-encoded session headers: wrapping a payload adds just two TLVs.
_RGOOSE_PREFIX, _RSV_PREFIX = (
    b"".join(map(encode_value, ("sessionType", session_type, "payload")))
    for session_type in (_SESSION_RGOOSE, _SESSION_RSV)
)


def _wrap(prefix: bytes, payload: bytes) -> bytes:
    """``encode_value({"sessionType": …, "payload": payload})``."""
    return _tlv(TAG_MAP, prefix + _tlv(TAG_OCTETS, payload))


#: Session type per pre-encoded wrapper prefix.
_SESSION_PREFIXES = ((_RGOOSE_PREFIX, _SESSION_RGOOSE), (_RSV_PREFIX, _SESSION_RSV))


def _unwrap_uncached(data: bytes) -> list:
    """``[sessionType, payload]`` of a session wrapper.

    A wrapper laid out exactly as :func:`_wrap` builds it — map header,
    one of the constant session prefixes, one octet string filling the
    rest — is split by its headers alone; that is the value a full decode
    returns.  Anything else takes the general decoder.
    """
    try:
        tag, start, stop = tlv_span(data, 0, len(data))
        if tag == TAG_MAP and stop == len(data):
            for prefix, session_type in _SESSION_PREFIXES:
                if data.startswith(prefix, start):
                    tag, body, end = tlv_span(data, start + len(prefix), stop)
                    if tag == TAG_OCTETS and end == stop:
                        return [session_type, data[body:end]]
    except CodecError:
        pass  # the general decoder raises its own error below
    decoded = decode_value(data)
    if not isinstance(decoded, dict):
        raise CodecError("session wrapper is not a map")
    return typed_fields(decoded, (("sessionType", str, ""), ("payload", bytes, b"")))


#: A routable multicast datagram reaches every group member with the same
#: bytes object, so the session wrapper (like the inner GOOSE/SV message)
#: is decoded once per frame, not once per receiver (see
#: :func:`codec.memoize_by_identity`).
_unwrap = memoize_by_identity(_unwrap_uncached)


class _UdpMulticastEndpoint:
    """Shared UDP socket + multicast membership per host."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.handlers: list[Callable[[str, bytes], None]] = []
        self.socket: UdpSocket = host.udp_bind(RGOOSE_PORT, self._on_datagram)

    @classmethod
    def for_host(cls, host: Host) -> "_UdpMulticastEndpoint":
        endpoint = getattr(host, "_rgoose_endpoint", None)
        if endpoint is None:
            endpoint = cls(host)
            host._rgoose_endpoint = endpoint
        return endpoint

    def _on_datagram(self, src_ip: str, src_port: int, payload: bytes) -> None:
        for handler in list(self.handlers):
            handler(src_ip, payload)


class RGoosePublisher(GoosePublisher):
    """GOOSE state machine, UDP multicast transport."""

    _label_prefix = "rgoose"

    def __init__(
        self,
        host: Host,
        gocb_ref: str,
        dat_set: str,
        go_id: str = "",
        group_ip: str = DEFAULT_RGOOSE_GROUP,
    ) -> None:
        super().__init__(host, gocb_ref, dat_set, go_id)
        self.group_ip = group_ip
        self._endpoint = _UdpMulticastEndpoint.for_host(host)

    # The inherited publish path, bound here too so per-class
    # instrumentation (perfbench/tracer.py) can wrap R-GOOSE on its own.
    _publish_now = GoosePublisher._publish_now

    def _send(self, payload: bytes) -> None:
        self._endpoint.socket.sendto(
            self.group_ip,
            RGOOSE_PORT,
            _wrap(_RGOOSE_PREFIX, payload),
            appid=self.gocb_ref,
        )


class RGooseSubscriber(GooseSubscriber):
    """Subscribes to a gocbRef on a UDP multicast group."""

    def __init__(
        self,
        host: Host,
        gocb_ref: str,
        on_update: Callable[[GooseMessage], None],
        group_ip: str = DEFAULT_RGOOSE_GROUP,
        stale_timeout_us: int = 3 * SECOND,
    ) -> None:
        super().__init__(host, gocb_ref, on_update, stale_timeout_us,
                         dst_mac=group_ip)

    def _bind(self, group: str) -> None:
        self.host.join_multicast_group(group, appid=self.gocb_ref)
        endpoint = _UdpMulticastEndpoint.for_host(self.host)
        endpoint.handlers.append(self._on_payload)

    def _on_payload(self, src_ip: str, data: bytes) -> None:
        try:
            session_type, payload = _unwrap(data)
            if session_type != _SESSION_RGOOSE:
                return
            message = decode_goose(payload)
        except CodecError:
            self.rx_malformed += 1
            return
        self._accept(message)


class RSvPublisher(SvPublisher):
    """Routable Sampled Values: periodic measurement stream over UDP."""

    _label_prefix = "rsv"

    def __init__(
        self,
        host: Host,
        sv_id: str,
        group_ip: str = DEFAULT_RSV_GROUP,
        interval_us: int = 100 * MS,
    ) -> None:
        super().__init__(host, sv_id, interval_us=interval_us)
        self.group_ip = group_ip
        self._endpoint = _UdpMulticastEndpoint.for_host(host)

    # Bound here too so per-class instrumentation can wrap R-SV on its own.
    _publish = SvPublisher._publish

    def _send(self, payload: bytes) -> None:
        self._endpoint.socket.sendto(
            self.group_ip,
            RGOOSE_PORT,
            _wrap(_RSV_PREFIX, payload),
            appid=self.sv_id,
        )


class RSvSubscriber(SvSubscriber):
    """Receives a routable SV stream by svID."""

    def __init__(
        self,
        host: Host,
        sv_id: str,
        on_samples: Callable[[SvMessage], None],
        group_ip: str = DEFAULT_RSV_GROUP,
        stale_timeout_us: int = 1 * SECOND,
    ) -> None:
        super().__init__(host, sv_id, on_samples, group_ip, stale_timeout_us)

    def _bind(self, group: str) -> None:
        self.host.join_multicast_group(group, appid=self.sv_id)
        endpoint = _UdpMulticastEndpoint.for_host(self.host)
        endpoint.handlers.append(self._on_payload)

    def _on_payload(self, src_ip: str, data: bytes) -> None:
        try:
            session_type, payload = _unwrap(data)
            if session_type != _SESSION_RSV:
                return
            message = decode_sv(payload)
        except CodecError:
            self.rx_malformed += 1
            return
        self._accept(message)
