"""GOOSE (Generic Object Oriented Substation Event) publish/subscribe.

IEDs exchange device status (breaker positions, trip signals, interlock
states) via GOOSE multicast on the station bus.  The implementation follows
the IEC 61850-8-1 state machine:

* a state change increments ``stNum``, resets ``sqNum`` to 0 and triggers a
  retransmission burst with exponentially increasing intervals,
* steady state repeats the last message at the heartbeat interval
  (``GOOSE_MAX_INTERVAL_US``) with incrementing ``sqNum``,
* subscribers detect missing publishers by time-allowed-to-live expiry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.iec61850.codec import (
    TAG_INT,
    TAG_MAP,
    CodecError,
    _encode_int,
    _tlv,
    decode_value,
    encode_value,
    memoize_by_identity,
    typed_fields,
)
from repro.kernel import MS, SECOND, Simulator
from repro.netem.frames import ETHERTYPE_GOOSE, EthernetFrame
from repro.netem.host import Host

#: First retransmission delay after a state change.
GOOSE_MIN_INTERVAL_US = 2 * MS
#: Steady-state heartbeat interval.
GOOSE_MAX_INTERVAL_US = 1 * SECOND

#: Default GOOSE destination group (IEC 61850 appendix B range).
DEFAULT_GOOSE_MAC = "01:0c:cd:01:00:01"


@dataclass
class GooseMessage:
    """Decoded GOOSE PDU."""

    gocb_ref: str
    dat_set: str
    go_id: str
    st_num: int
    sq_num: int
    time_allowed_to_live_ms: int
    test: bool
    conf_rev: int
    timestamp_us: int
    all_data: list

    def to_bytes(self) -> bytes:
        return encode_value(
            {
                "gocbRef": self.gocb_ref,
                "datSet": self.dat_set,
                "goID": self.go_id,
                "stNum": self.st_num,
                "sqNum": self.sq_num,
                "timeAllowedtoLive": self.time_allowed_to_live_ms,
                "test": self.test,
                "confRev": self.conf_rev,
                "t": self.timestamp_us,
                "allData": self.all_data,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "GooseMessage":
        decoded = decode_value(data)
        if not isinstance(decoded, dict):
            raise CodecError("GOOSE payload is not a map")
        return cls(*typed_fields(decoded, _FIELDS))


#: Wire key, type and default of each field, in ``GooseMessage`` order.
_FIELDS = (
    ("gocbRef", str, ""), ("datSet", str, ""), ("goID", str, ""),
    ("stNum", int, 0), ("sqNum", int, 0), ("timeAllowedtoLive", int, 0),
    ("test", bool, False), ("confRev", int, 1), ("t", int, 0),
    ("allData", list, []),
)


#: ``GooseMessage.from_bytes`` with per-frame receiver de-duplication: a
#: delivered frame reaches every subscriber with the same payload object,
#: so the decode runs once per frame (see :func:`codec.memoize_by_identity`).
#: Batch-sized (8 slots): the cut-through plane delivers same-instant
#: frames in one event, interleaving subscribers across payloads.
decode_goose = memoize_by_identity(GooseMessage.from_bytes)

#: Pre-encoded keys of the fields a publisher re-encodes per message.
_ST_NUM, _SQ_NUM, _TTL, _T, _ALL_DATA = map(
    encode_value, ("stNum", "sqNum", "timeAllowedtoLive", "t", "allData")
)


class GoosePublisher:
    """Publishes a dataset with the standard retransmission scheme.

    Encode once: the wire bytes are assembled from a template equal to
    :meth:`GooseMessage.to_bytes`.  The constant fields are encoded at
    construction, the dataset once per ``stNum`` (in :meth:`start` /
    :meth:`update`); a publish encodes only ``stNum``, ``sqNum``,
    ``timeAllowedtoLive`` and ``t``.
    """

    _label_prefix = "goose"

    def __init__(
        self,
        host: Host,
        gocb_ref: str,
        dat_set: str,
        go_id: str = "",
        dst_mac: str = DEFAULT_GOOSE_MAC,
        conf_rev: int = 1,
    ) -> None:
        self.host = host
        self.gocb_ref = gocb_ref
        self.dat_set = dat_set
        self.go_id = go_id or gocb_ref
        self.dst_mac = dst_mac
        self.conf_rev = conf_rev
        self.st_num = 0
        self.sq_num = 0
        self._values: list = []
        self._retransmit_event = None
        self._interval_us = GOOSE_MAX_INTERVAL_US
        self.tx_count = 0
        self.started = False
        self._label = f"{self._label_prefix}:{self.go_id}"
        # Constant fields, pre-encoded around the per-publish ones.
        self._head = b"".join(map(encode_value, (
            "gocbRef", gocb_ref, "datSet", dat_set, "goID", self.go_id)))
        self._mid = b"".join(map(encode_value, ("test", False, "confRev", conf_rev)))
        self._all_data = b""  # "allData" key + value TLVs of this stNum

    @property
    def simulator(self) -> Simulator:
        return self.host.simulator

    def start(self, initial_values: list) -> None:
        """Publish the initial state and begin heartbeating."""
        if self.started:
            return
        self.started = True
        self.st_num = 0
        self._new_state(initial_values)

    def stop(self) -> None:
        self.started = False
        if self._retransmit_event is not None:
            self._retransmit_event.cancel()
            self._retransmit_event = None

    def update(self, values: list) -> None:
        """Publish a state change (new stNum, burst retransmission)."""
        if not self.started:
            self.start(values)
            return
        if list(values) == self._values:
            return  # no change — steady-state heartbeat continues
        if self._retransmit_event is not None:
            self._retransmit_event.cancel()
        self._new_state(values)

    # ------------------------------------------------------------------
    def _new_state(self, values: list) -> None:
        """Next stNum: encode the dataset once, restart the burst."""
        self._values = list(values)
        self._all_data = _ALL_DATA + encode_value(self._values)
        self.st_num += 1
        self.sq_num = 0
        self._interval_us = GOOSE_MIN_INTERVAL_US
        self._publish_now()

    def _publish_now(self) -> None:
        interval = self._interval_us
        body = b"".join((
            self._head,
            _ST_NUM, _tlv(TAG_INT, _encode_int(self.st_num)),
            _SQ_NUM, _tlv(TAG_INT, _encode_int(self.sq_num)),
            _TTL, _tlv(TAG_INT, _encode_int(max(2 * interval // MS, 10))),
            self._mid,
            _T, _tlv(TAG_INT, _encode_int(self.simulator.now)),
            self._all_data,
        ))
        self._send(_tlv(TAG_MAP, body))
        self.tx_count += 1
        self.sq_num += 1
        # Exponential backoff towards the heartbeat interval.
        self._retransmit_event = self.simulator.schedule(
            interval, self._on_timer, label=self._label
        )
        self._interval_us = min(interval * 2, GOOSE_MAX_INTERVAL_US)

    def _send(self, payload: bytes) -> None:
        """Transport hook: L2 multicast (R-GOOSE overrides with UDP)."""
        # The appid tag (the control block reference, standing in for the
        # APPID of a real GOOSE header) lets subscription-aware switches
        # prune this stream to its subscribers on the shared group MAC.
        self.host.send_ethernet(
            self.dst_mac, ETHERTYPE_GOOSE, payload, appid=self.gocb_ref
        )

    def _on_timer(self) -> None:
        if self.started:
            self._publish_now()


class GooseSubscriber:
    """Subscribes to one GOOSE control block reference.

    Malformed payloads are counted in ``rx_malformed`` and dropped.
    """

    def __init__(
        self,
        host: Host,
        gocb_ref: str,
        on_update: Callable[[GooseMessage], None],
        stale_timeout_us: int = 3 * SECOND,
        on_stale: Optional[Callable[[], None]] = None,
        dst_mac: str = DEFAULT_GOOSE_MAC,
    ) -> None:
        self.host = host
        self.gocb_ref = gocb_ref
        self.on_update = on_update
        self.on_stale = on_stale
        self.stale_timeout_us = stale_timeout_us
        self.last_message: Optional[GooseMessage] = None
        self.last_seen_us = -1
        self.rx_count = 0
        self.rx_malformed = 0
        self.state_changes = 0
        self._stale_event = None
        self._bind(dst_mac)

    def _bind(self, group: str) -> None:
        """Transport hook: L2 multicast (R-GOOSE overrides with UDP)."""
        self.host.register_ethertype_handler(ETHERTYPE_GOOSE, self._on_frame)
        # GMRP-analog join: tell the network's multicast pruner this host
        # subscribes to the control block's stream on the group MAC.
        self.host.join_l2_group(group, self.gocb_ref)

    @property
    def values(self) -> list:
        """Most recently received dataset (empty before first message)."""
        return self.last_message.all_data if self.last_message else []

    @property
    def healthy(self) -> bool:
        """True while messages arrive within the stale timeout."""
        if self.last_seen_us < 0:
            return False
        return self.host.simulator.now - self.last_seen_us <= self.stale_timeout_us

    def _on_frame(self, frame: EthernetFrame) -> None:
        if not isinstance(frame.payload, bytes):
            return
        try:
            message = decode_goose(frame.payload)
        except CodecError:
            self.rx_malformed += 1
            return
        self._accept(message)

    def _accept(self, message: GooseMessage) -> None:
        if message.gocb_ref != self.gocb_ref:
            return
        self.rx_count += 1
        self.last_seen_us = self.host.simulator.now
        is_change = (
            self.last_message is None or message.st_num != self.last_message.st_num
        )
        self.last_message = message
        self._arm_stale_timer()
        if is_change:
            self.state_changes += 1
            self.on_update(message)

    def _arm_stale_timer(self) -> None:
        if self._stale_event is not None:
            self._stale_event.cancel()
        if self.on_stale is None:
            return
        self._stale_event = self.host.simulator.schedule(
            self.stale_timeout_us + 1,
            self._check_stale,
            label=f"goose-stale:{self.gocb_ref}",
        )

    def _check_stale(self) -> None:
        self._stale_event = None
        if self.on_stale is None:
            return
        if self.healthy:
            # A message arrived meanwhile without re-arming (races are
            # possible when handlers run in the same tick): re-check later.
            remaining = self.stale_timeout_us - (
                self.host.simulator.now - self.last_seen_us
            )
            self._stale_event = self.host.simulator.schedule(
                max(remaining, 1) + 1, self._check_stale
            )
            return
        self.on_stale()
