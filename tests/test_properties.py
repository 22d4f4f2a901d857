"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iec61131.types import IecType, coerce, format_time, parse_time_literal
from repro.iec61850.codec import decode_value, encode_value
from repro.kernel import Simulator
from repro.modbus.databank import float_to_registers, registers_to_float
from repro.modbus.protocol import (
    FunctionCode,
    ModbusRequest,
    build_request,
    build_response,
    parse_request,
    parse_response,
)
from repro.netem.addresses import format_mac, int_to_ip, ip_to_int
from repro.powersim import Network, run_power_flow

# ---------------------------------------------------------------------------
# TLV codec: encode/decode is the identity on the supported value domain
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


@given(_values)
@settings(max_examples=200)
def test_codec_round_trip_property(value):
    decoded = decode_value(encode_value(value))
    if isinstance(value, tuple):
        value = list(value)
    assert decoded == value


@given(st.binary(max_size=64))
@settings(max_examples=200)
def test_codec_never_crashes_on_garbage(data):
    """Arbitrary bytes either decode or raise CodecError — no other error."""
    from repro.iec61850.codec import CodecError

    try:
        decode_value(data)
    except CodecError:
        pass


_PDU_KEYS = ("gocbRef", "stNum", "allData", "test", "svID", "smpCnt", "t",
             "seqData", "sessionType", "payload")


@given(st.dictionaries(st.sampled_from(_PDU_KEYS), _values, max_size=6))
@settings(max_examples=200)
def test_pdu_decoders_raise_only_codec_error(fields):
    """Well-formed TLV maps with arbitrarily typed GOOSE/SV fields either
    decode or raise CodecError — no other error."""
    from repro.iec61850 import GooseMessage, SvMessage
    from repro.iec61850.codec import CodecError

    for decoder in (GooseMessage.from_bytes, SvMessage.from_bytes):
        try:
            decoder(encode_value(fields))
        except CodecError:
            pass


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ip_int_round_trip(value):
    assert ip_to_int(int_to_ip(value)) == value


@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_mac_format_is_valid(value):
    from repro.netem.addresses import is_valid_mac

    assert is_valid_mac(format_mac(value))


# ---------------------------------------------------------------------------
# Modbus
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=65535),
    st.lists(st.integers(min_value=0, max_value=65535), min_size=1, max_size=20),
)
def test_modbus_write_registers_round_trip(address, values):
    if address + len(values) > 65536:
        address = 0
    request = ModbusRequest(
        transaction_id=1, unit_id=1,
        function=FunctionCode.WRITE_MULTIPLE_REGISTERS,
        address=address, values=values,
    )
    parsed = parse_request(build_request(request))
    assert parsed.values == values
    assert parsed.address == address


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=50))
def test_modbus_coil_bits_round_trip(bits):
    request = ModbusRequest(
        transaction_id=1, unit_id=1, function=FunctionCode.READ_COILS,
        address=0, count=len(bits),
    )
    response = parse_response(build_response(request, bits), request)
    assert response.values == bits


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_modbus_float_registers_round_trip(value):
    high, low = float_to_registers(value)
    assert 0 <= high <= 0xFFFF and 0 <= low <= 0xFFFF
    restored = registers_to_float(high, low)
    assert restored == value or math.isclose(restored, value, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# IEC 61131 types
# ---------------------------------------------------------------------------


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_time_format_parse_round_trip(us):
    assert parse_time_literal(format_time(us)) == us


@given(st.integers())
def test_int_coercion_always_in_range(value):
    result = coerce(value, IecType.INT)
    assert -(2**15) <= result <= 2**15 - 1


@given(st.integers())
def test_uint_coercion_always_in_range(value):
    result = coerce(value, IecType.UINT)
    assert 0 <= result <= 2**16 - 1


# ---------------------------------------------------------------------------
# Kernel: event ordering is total and monotone
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=40))
def test_simulator_fires_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run_until(10_001)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    # Each callback fired exactly at its requested time.
    assert all(t == d for t, d in fired)


# ---------------------------------------------------------------------------
# Power flow: conservation invariants on random radial feeders
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=5.0),  # load MW
            st.floats(min_value=0.05, max_value=0.5),  # r ohm
            st.floats(min_value=0.1, max_value=1.0),  # x ohm
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_power_flow_balance_on_radial_feeder(segments):
    """Slack P equals total load + losses; losses are non-negative."""
    net = Network("feeder")
    previous = net.add_bus("B0", 20.0)
    net.add_ext_grid("grid", previous, vm_pu=1.0)
    total_load = 0.0
    for index, (p_mw, r, x) in enumerate(segments, start=1):
        bus = net.add_bus(f"B{index}", 20.0)
        net.add_line(f"L{index}", previous, bus, r_ohm=r, x_ohm=x)
        net.add_load(f"ld{index}", bus, p_mw=p_mw, q_mvar=p_mw * 0.2)
        total_load += p_mw
        previous = bus
    result = run_power_flow(net)
    assert result.converged
    losses = result.total_losses_mw
    assert losses >= -1e-9
    assert result.slack_p_mw == (
        __import__("pytest").approx(total_load + losses, rel=1e-6)
    )
    # Voltage decreases monotonically along a uniform radial feeder... not
    # strictly true in general, but it must stay below the source.
    for index in range(1, len(segments) + 1):
        assert result.buses[f"B{index}"].vm_pu <= 1.0 + 1e-9


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=6))
@settings(max_examples=30, deadline=None)
def test_switch_fusion_transitive(n_buses, n_closed):
    """Buses joined by chains of closed switches share one voltage."""
    net = Network("fused")
    buses = [net.add_bus(f"B{i}", 10.0) for i in range(n_buses)]
    net.add_ext_grid("g", buses[0], vm_pu=1.0)
    closed_upto = min(n_closed, n_buses - 1)
    for i in range(n_buses - 1):
        net.add_switch_bus_bus(f"S{i}", buses[i], buses[i + 1],
                               closed=i < closed_upto)
    result = run_power_flow(net)
    for i in range(n_buses):
        if i <= closed_upto:
            assert result.buses[f"B{i}"].vm_pu == 1.0
            assert result.buses[f"B{i}"].energized
        else:
            assert not result.buses[f"B{i}"].energized
