"""Sampled Values (IEC 61850-9-2) — measurement streaming.

L2 variant on ethertype ``0x88BA``; the routable variant lives in
:mod:`repro.iec61850.rgoose`.  The cyber range uses SV for sharing analogue
measurements between IEDs (e.g. the two ends of a differential-protection
zone).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
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
from repro.kernel import MS, SECOND
from repro.netem.frames import ETHERTYPE_SV, EthernetFrame
from repro.netem.host import Host

DEFAULT_SV_MAC = "01:0c:cd:04:00:01"


@dataclass
class SvMessage:
    """One sampled-values APDU."""

    sv_id: str
    smp_cnt: int
    timestamp_us: int
    samples: list  # list of floats (or [name, value] pairs)

    def to_bytes(self) -> bytes:
        return encode_value(
            {
                "svID": self.sv_id,
                "smpCnt": self.smp_cnt,
                "t": self.timestamp_us,
                "seqData": self.samples,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SvMessage":
        decoded = decode_value(data)
        if not isinstance(decoded, dict):
            raise CodecError("SV payload is not a map")
        return cls(*typed_fields(decoded, _FIELDS))


#: Wire key, type and default of each field, in ``SvMessage`` order.
_FIELDS = (("svID", str, ""), ("smpCnt", int, 0), ("t", int, 0),
           ("seqData", list, []))


#: Pre-encoded keys of the fields a publisher re-encodes per message.
_SMP_CNT, _T, _SEQ_DATA = map(encode_value, ("smpCnt", "t", "seqData"))


def _encodes_same(new: list, old: list) -> bool:
    """True when two flat sample lists encode to identical bytes.

    Equal values are not enough: ``1 == 1.0 == True`` and ``0.0 == -0.0``
    encode differently, so types and the sign of zero must match too.  A
    container sample never counts as unchanged (it may have been mutated
    in place), which costs only a re-encode.
    """
    if len(new) != len(old):
        return False
    for a, b in zip(new, old):
        if type(a) is not type(b) or isinstance(a, (list, tuple, dict)) or a != b:
            return False
        if isinstance(a, float) and copysign(1.0, a) != copysign(1.0, b):
            return False
    return True


class SvPublisher:
    """Streams samples on the L2 multicast bus at a fixed rate.

    Encode once: the wire bytes are assembled from a template equal to
    :meth:`SvMessage.to_bytes`.  ``svID`` is encoded at construction and
    ``seqData`` only when the sample values change (compared against a
    stored copy, never the source's list); a publish encodes only
    ``smpCnt`` and ``t``.
    """

    _label_prefix = "sv"

    def __init__(
        self,
        host: Host,
        sv_id: str,
        dst_mac: str = DEFAULT_SV_MAC,
        interval_us: int = 100 * MS,
    ) -> None:
        self.host = host
        self.sv_id = sv_id
        self.dst_mac = dst_mac
        self.interval_us = interval_us
        self.smp_cnt = 0
        self.tx_count = 0
        self._task = None
        self._sample_source: Optional[Callable[[], list]] = None
        self._head = encode_value("svID") + encode_value(sv_id)
        self._samples: list = []
        self._seq_data = _SEQ_DATA + encode_value(self._samples)

    def start(self, sample_source: Callable[[], list]) -> None:
        """Begin streaming; ``sample_source`` is polled each interval."""
        if self._task is not None:
            return
        self._sample_source = sample_source
        self._task = self.host.simulator.every(
            self.interval_us,
            self._publish,
            label=f"{self._label_prefix}:{self.sv_id}",
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _publish(self) -> None:
        samples = list(self._sample_source()) if self._sample_source else []
        if not _encodes_same(samples, self._samples):
            self._samples = samples
            self._seq_data = _SEQ_DATA + encode_value(samples)
        body = b"".join((
            self._head,
            _SMP_CNT, _tlv(TAG_INT, _encode_int(self.smp_cnt)),
            _T, _tlv(TAG_INT, _encode_int(self.host.simulator.now)),
            self._seq_data,
        ))
        self.smp_cnt = (self.smp_cnt + 1) & 0xFFFF
        self.tx_count += 1
        self._send(_tlv(TAG_MAP, body))

    def _send(self, payload: bytes) -> None:
        """Transport hook: L2 multicast (R-SV overrides with UDP)."""
        # appid = svID: lets subscription-aware switches prune the stream.
        self.host.send_ethernet(
            self.dst_mac, ETHERTYPE_SV, payload, appid=self.sv_id
        )


#: Shared decode memo: one decode per frame even when a delivery batch
#: interleaves several subscribers across several payloads.
decode_sv = memoize_by_identity(SvMessage.from_bytes)


class SvSubscriber:
    """Receives an L2 SV stream by svID.

    Malformed payloads are counted in ``rx_malformed`` and dropped.
    """

    def __init__(
        self,
        host: Host,
        sv_id: str,
        on_samples: Callable[[SvMessage], None],
        dst_mac: str = DEFAULT_SV_MAC,
        stale_timeout_us: int = 1 * SECOND,
    ) -> None:
        self.host = host
        self.sv_id = sv_id
        self.on_samples = on_samples
        self.stale_timeout_us = stale_timeout_us
        self.last_message: Optional[SvMessage] = None
        self.last_seen_us = -1
        self.rx_count = 0
        self.rx_malformed = 0
        self._bind(dst_mac)

    @property
    def healthy(self) -> bool:
        """True while samples arrive within the stale timeout."""
        if self.last_seen_us < 0:
            return False
        return self.host.simulator.now - self.last_seen_us <= self.stale_timeout_us

    def _bind(self, group: str) -> None:
        """Transport hook: L2 multicast (R-SV overrides with UDP)."""
        self.host.register_ethertype_handler(ETHERTYPE_SV, self._on_frame)
        self.host.join_l2_group(group, self.sv_id)

    def _on_frame(self, frame: EthernetFrame) -> None:
        if not isinstance(frame.payload, bytes):
            return
        try:
            message = decode_sv(frame.payload)
        except CodecError:
            self.rx_malformed += 1
            return
        self._accept(message)

    def _accept(self, message: SvMessage) -> None:
        if message.sv_id != self.sv_id:
            return
        self.rx_count += 1
        self.last_seen_us = self.host.simulator.now
        self.last_message = message
        self.on_samples(message)
