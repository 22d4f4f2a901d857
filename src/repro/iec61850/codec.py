"""BER-style TLV codec for protocol payloads.

A compact tag-length-value encoding in the spirit of the ASN.1 BER used by
MMS and GOOSE.  It is not byte-compatible with ISO 9506 (a non-goal, see
DESIGN.md), but it has the properties the cyber range needs:

* messages on the virtual wire are real byte strings,
* they can be decoded without a schema (self-describing tags),
* tampering mid-flight (the MITM pipeline) works on bytes, not objects.

Supported value types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list`` (heterogeneous) and ``dict`` with string keys.

Wire layout: ``tag(1) | length(varint) | value``.  Lengths use the BER
definite form: one byte below 128, else ``0x80 | n`` followed by ``n``
length bytes.
"""

from __future__ import annotations

import struct
from typing import Any

TAG_NULL = 0x05
TAG_BOOL = 0x01
TAG_INT = 0x02
TAG_FLOAT = 0x09
TAG_OCTETS = 0x04
TAG_STRING = 0x0C
TAG_SEQUENCE = 0x30
TAG_MAP = 0x31


_unpack_float = struct.Struct(">d").unpack_from


class CodecError(Exception):
    """Raised on malformed TLV input."""


def memoize_by_identity(decode, slots: int = 8):
    """Decode memo of ``slots`` entries keyed by payload *identity*.

    A multicast frame is delivered to every subscriber with the *same*
    payload bytes object, so wrapping a decoder with this helper makes the
    decode happen once per frame instead of once per receiver.  With the
    batched receive path several frames (distinct payloads) land on a host
    in one kernel event, interleaving subscribers across payloads — a
    batch-sized memo keeps every payload of the batch cached across the
    whole dispatch loop.  Safe by construction: the memo retains the bytes
    references (so ``id()`` reuse is impossible while cached), bytes are
    immutable, and callers treat decoded messages as read-only.  Failed
    decodes are not cached; eviction is FIFO.
    """
    cache: dict[int, tuple[Any, Any]] = {}

    def memoized(payload):
        entry = cache.get(id(payload))
        if entry is not None and entry[0] is payload:
            return entry[1]
        result = decode(payload)
        if len(cache) >= slots:
            cache.pop(next(iter(cache)))
        cache[id(payload)] = (payload, result)
        return result

    return memoized


def encode_value(value: Any) -> bytes:
    """Encode a Python value to TLV bytes."""
    if value is None:
        return _tlv(TAG_NULL, b"")
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return _tlv(TAG_BOOL, b"\x01" if value else b"\x00")
    if isinstance(value, int):
        return _tlv(TAG_INT, _encode_int(value))
    if isinstance(value, float):
        return _tlv(TAG_FLOAT, struct.pack(">d", value))
    if isinstance(value, bytes):
        return _tlv(TAG_OCTETS, value)
    if isinstance(value, str):
        return _tlv(TAG_STRING, value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        body = b"".join(encode_value(item) for item in value)
        return _tlv(TAG_SEQUENCE, body)
    if isinstance(value, dict):
        parts = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"map keys must be str, got {type(key).__name__}")
            parts.append(encode_value(key))
            parts.append(encode_value(item))
        return _tlv(TAG_MAP, b"".join(parts))
    raise CodecError(f"cannot encode type {type(value).__name__}")


def decode_value(data: bytes) -> Any:
    """Decode TLV bytes produced by :func:`encode_value`."""
    try:
        value, consumed = _decode_at(data, 0, len(data))
    except RecursionError:
        raise CodecError("containers nested too deeply") from None
    if consumed != len(data):
        raise CodecError(
            f"trailing bytes after value: consumed {consumed} of {len(data)}"
        )
    return value


def typed_fields(mapping: dict, schema: tuple) -> list:
    """``mapping``'s values for ``schema``'s ``(key, kind, default)`` fields.

    PDU decoders read attacker-reachable fields through this, so a
    well-formed map with a mistyped field raises :class:`CodecError` (which
    receivers count and drop) rather than ``TypeError``/``ValueError``.
    Types must match exactly (``bool`` is no ``int``); lists are copied.
    """
    values = []
    for key, kind, default in schema:
        value = mapping.get(key, default)
        if type(value) is not kind:
            raise CodecError(
                f"field {key!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
        values.append(list(value) if kind is list else value)
    return values


# ---------------------------------------------------------------------------


def tlv_span(data: bytes, offset: int, end: int) -> tuple[int, int, int]:
    """``(tag, body start, body stop)`` of the TLV at ``offset``, which must
    end by ``end``; raises :class:`CodecError` where :func:`decode_value`
    would reject the header."""
    if offset + 1 >= end:
        raise CodecError("truncated value")
    length = data[offset + 1]
    start = offset + 2
    if length >= 0x80:
        count = length & 0x7F
        start += count
        if count == 0 or start > end:
            raise CodecError("malformed long-form length")
        length = int.from_bytes(data[offset + 2 : start], "big")
    stop = start + length
    if stop > end:
        raise CodecError("value body extends past buffer")
    return data[offset], start, stop


def _tlv(tag: int, body: bytes) -> bytes:
    return bytes([tag]) + _encode_length(len(body)) + body


def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    raw = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(raw)]) + raw


def _encode_int(value: int) -> bytes:
    length = max(1, (value.bit_length() + 8) // 8)
    return value.to_bytes(length, "big", signed=True)


def _decode_at(data: bytes, offset: int, end: int) -> tuple[Any, int]:
    """Decode the value at ``offset``; it must end by ``end`` (the
    enclosing container's end), so containers decode in place, unsliced."""
    if offset + 1 >= end:
        raise CodecError("truncated value")
    tag = data[offset]
    length = data[offset + 1]
    start = offset + 2
    if length >= 0x80:  # long form: 0x80 | n, then n big-endian bytes
        count = length & 0x7F
        start += count
        if count == 0 or start > end:
            raise CodecError("malformed long-form length")
        length = int.from_bytes(data[offset + 2 : start], "big")
    stop = start + length
    if stop > end:
        raise CodecError(f"value body extends past buffer (tag 0x{tag:02x})")
    if tag == TAG_STRING:
        try:
            return data[start:stop].decode("utf-8"), stop
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 string: {exc}") from exc
    if tag == TAG_INT:
        if not length:
            raise CodecError("empty integer body")
        return int.from_bytes(data[start:stop], "big", signed=True), stop
    if tag == TAG_MAP:
        mapping = {}
        while start < stop:
            if data[start] != TAG_STRING:
                raise CodecError("map key is not a string")
            # Keys are short strings: decoded inline, saving a call each.
            key_stop = start + 2 + data[start + 1] if start + 1 < stop else stop + 1
            if key_stop <= stop and data[start + 1] < 0x80:
                try:
                    key = data[start + 2 : key_stop].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CodecError(f"invalid UTF-8 string: {exc}") from exc
                start = key_stop
            else:  # long-form or truncated: the general path handles it
                key, start = _decode_at(data, start, stop)
            mapping[key], start = _decode_at(data, start, stop)
        return mapping, stop
    if tag == TAG_FLOAT:
        if length != 8:
            raise CodecError("float body must be 8 bytes")
        return _unpack_float(data, start)[0], stop
    if tag == TAG_SEQUENCE:
        items = []
        while start < stop:
            item, start = _decode_at(data, start, stop)
            items.append(item)
        return items, stop
    if tag == TAG_OCTETS:
        return data[start:stop], stop
    if tag == TAG_BOOL:
        if length != 1:
            raise CodecError("bool body must be a single byte")
        return data[start] != 0, stop
    if tag == TAG_NULL:
        if length:
            raise CodecError("null with non-empty body")
        return None, stop
    raise CodecError(f"unknown tag 0x{tag:02x}")
