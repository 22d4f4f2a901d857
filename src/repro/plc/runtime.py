"""PLC scan-cycle runtime with Modbus northbound and MMS southbound.

I/O image conventions (documented here because IEC 61131 leaves the fieldbus
mapping to the implementation):

* ``%IX<byte>.<bit>`` — bit inputs *to* the PLC.  Exposed as Modbus coils,
  so the SCADA master writes commands into them.
* ``%QX<byte>.<bit>`` — bit outputs *from* the PLC.  Exposed as Modbus
  discrete inputs (master reads).
* ``%IW<n>`` — word inputs to the PLC: Modbus holding registers (master
  writes setpoints).
* ``%QW<n>`` — word outputs: Modbus input registers (master reads).
* ``%QD<n>`` — float outputs occupying input registers ``n`` and ``n+1``
  (IEEE 754 big-endian pair, the common Modbus float convention).
* ``%ID<n>`` — float inputs from holding registers ``n`` and ``n+1``.

MMS bindings attach program variables to IED object references: ``read``
bindings poll the IED every scan and update the variable before the program
runs; ``write`` bindings push the variable to the IED when its value
changes (deadband 0) after the program runs.

Point bindings (:meth:`VirtualPlc.bind_point`) couple program variables
directly to typed point-database handles: ``read`` bindings subscribe for
delta notification — the variable is refreshed at the next scan only when
the point actually changed — and ``write`` bindings push the variable into
the database on change.  The program scan itself stays strictly periodic:
IEC 61131 semantics (timers, counters, edge detection) require every cycle
to execute even when inputs are unchanged, so only the I/O shuffling is
delta-gated, not the logic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Optional

from repro.iec61131.interpreter import Program, Variable
from repro.iec61131.plcopen import PlcOpenDocument
from repro.iec61850.mms import MmsClient
from repro.kernel import MS
from repro.modbus import ModbusDataBank, ModbusServer
from repro.netem.host import Host
from repro.pointdb import PointHandle, PointRegistry

_LOCATION_RE = re.compile(r"^%([IQ])([XWD])(\d+)(?:\.(\d+))?$")


class PlcError(Exception):
    """Configuration or runtime failure in the PLC."""


@dataclass(frozen=True)
class ParsedLocation:
    direction: str  # "I" | "Q"
    width: str  # "X" bit | "W" word | "D" double/float
    index: int
    bit: int = 0

    @property
    def bit_address(self) -> int:
        return self.index * 8 + self.bit


def parse_location(text: str) -> ParsedLocation:
    """Parse ``%QX0.1`` / ``%IW3`` / ``%QD4`` into components."""
    match = _LOCATION_RE.match(text)
    if not match:
        raise PlcError(f"unsupported location {text!r}")
    direction, width, index, bit = match.groups()
    return ParsedLocation(
        direction=direction,
        width=width,
        index=int(index),
        bit=int(bit) if bit else 0,
    )


@dataclass
class MmsBinding:
    """Couples a program variable to an IED object reference."""

    variable: str
    server_ip: str
    object_ref: str
    direction: str = "read"  # "read" (IED→PLC) | "write" (PLC→IED)


@dataclass
class PointBinding:
    """Couples a program variable to a point-database handle."""

    variable: str
    handle: PointHandle
    pointdb: PointRegistry
    direction: str = "read"  # "read" (db→PLC) | "write" (PLC→db)


class VirtualPlc:
    """Scan-cycle PLC with Modbus server + MMS client bindings."""

    def __init__(
        self,
        host: Host,
        program: Program,
        scan_interval_ms: float = 100.0,
        name: str = "",
    ) -> None:
        self.host = host
        self.program = program
        self.name = name or f"plc:{host.name}"
        self.scan_interval_us = int(scan_interval_ms * MS)
        self.databank = ModbusDataBank()
        self.modbus_server = ModbusServer(host, self.databank)
        self.bindings: list[MmsBinding] = []
        self._clients: dict[str, MmsClient] = {}
        self._read_cache: dict[str, Any] = {}
        self._written: dict[str, Any] = {}
        self._written_at: dict[str, int] = {}
        #: Optional blind integrity refresh (µs); 0 disables.  Off by
        #: default: blind re-assertion can reclose a protection-tripped
        #: breaker onto a fault.
        self.write_refresh_us = 0
        # Operator (Modbus master) writes re-arm every bound write: an
        # explicit command must reach the device even if the PLC's cached
        # value matches — the device's state may have been changed behind
        # the PLC's back (attack, manual operation, restart).
        self.databank.on_write = self._on_master_write
        self._scan_task = None
        self.scan_count = 0
        self.mms_write_count = 0
        #: Delta accounting: changed inputs observed / output writes skipped.
        self.input_events = 0
        self.suppressed_output_writes = 0
        self.point_bindings: list[PointBinding] = []
        #: (pointdb, handle, callback) triples of live read-binding
        #: subscriptions, kept so close() can detach them.
        self._point_subscriptions: list[tuple[Any, Any, Any]] = []
        self._point_pending: dict[str, Any] = {}
        self._point_written: dict[str, Any] = {}
        self._out_image: dict[tuple[str, int], Any] = {}
        self._locations: list[tuple[Variable, ParsedLocation]] = []
        self._index_locations()

    @classmethod
    def from_plcopen(
        cls,
        host: Host,
        document: PlcOpenDocument,
        pou_name: str = "",
        name: str = "",
    ) -> "VirtualPlc":
        """Build from a PLCopen XML document (first task's POU by default)."""
        if not document.pous:
            raise PlcError("PLCopen document contains no POUs")
        interval_ms = 100.0
        selected = pou_name
        if document.tasks:
            task = document.tasks[0]
            interval_ms = task.interval_us / MS
            if not selected:
                selected = task.pou_name
        pou = document.find_pou(selected) if selected else document.pous[0]
        if pou is None:
            raise PlcError(f"POU {selected!r} not found in PLCopen document")
        return cls(host, pou.instantiate(), scan_interval_ms=interval_ms, name=name)

    # ------------------------------------------------------------------
    def _index_locations(self) -> None:
        for variable in self.program.located_variables():
            location = parse_location(variable.location)
            self._locations.append((variable, location))
            # Seed the Modbus image from declared initial values so the
            # first scan does not read zeros where the program expects the
            # declared defaults (e.g. breaker commands initialised TRUE).
            if location.direction != "I":
                continue
            if location.width == "X":
                self.databank.coils[location.bit_address] = (
                    1 if variable.value else 0
                )
            elif location.width == "W":
                self.databank.set_holding_register(
                    location.index, int(variable.value or 0)
                )
            else:
                self.databank.set_holding_float(
                    location.index, float(variable.value or 0.0)
                )

    def bind_mms(
        self, variable: str, server_ip: str, object_ref: str, direction: str = "read"
    ) -> None:
        if direction not in ("read", "write"):
            raise PlcError(f"binding direction must be read/write: {direction!r}")
        self.bindings.append(
            MmsBinding(
                variable=variable,
                server_ip=server_ip,
                object_ref=object_ref,
                direction=direction,
            )
        )

    def bind_point(
        self,
        variable: str,
        pointdb: PointRegistry,
        db_key: str,
        direction: str = "read",
    ) -> None:
        """Couple ``variable`` to a point-database key via a typed handle.

        Read bindings are change driven: the handle subscription records
        the new value and the next scan applies it before the program
        runs — an unchanged point costs nothing.  Write bindings push the
        program value on change after the program runs (``cmd/...`` keys
        go through the command log so the coupling drains them).
        """
        if direction not in ("read", "write"):
            raise PlcError(f"binding direction must be read/write: {direction!r}")
        handle = pointdb.resolve(db_key)
        binding = PointBinding(
            variable=variable, handle=handle, pointdb=pointdb,
            direction=direction,
        )
        self.point_bindings.append(binding)
        if direction == "read":
            def on_change(_handle, value, name=variable) -> None:
                self._on_point_change(name, value)

            pointdb.subscribe(handle, on_change)
            self._point_subscriptions.append((pointdb, handle, on_change))
            current = pointdb.read(handle)
            if current is not None:
                self._point_pending[variable] = current

    def _on_point_change(self, variable: str, value: Any) -> None:
        self.input_events += 1
        self._point_pending[variable] = value

    def _client(self, server_ip: str) -> MmsClient:
        client = self._clients.get(server_ip)
        if client is None:
            client = MmsClient(self.host, server_ip)
            client.connect()
            self._clients[server_ip] = client
        return client

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.modbus_server.start()
        for binding in self.bindings:
            self._client(binding.server_ip)  # pre-connect
        self._scan_task = self.host.simulator.every(
            self.scan_interval_us, self.scan, label=f"plc-scan:{self.name}"
        )

    def stop(self) -> None:
        if self._scan_task is not None:
            self._scan_task.stop()
            self._scan_task = None

    def close(self) -> None:
        """Stop + detach every shared-registry subscription (see
        :meth:`repro.range.CyberRange.close`)."""
        self.stop()
        for pointdb, handle, callback in self._point_subscriptions:
            pointdb.unsubscribe(handle, callback)
        self._point_subscriptions.clear()

    # ------------------------------------------------------------------
    # Scan cycle
    # ------------------------------------------------------------------
    def scan(self) -> None:
        self.scan_count += 1
        self._read_inputs()
        self.program.scan(self.host.simulator.now)
        self._write_outputs()

    def _read_inputs(self) -> None:
        # Changed point-database inputs recorded by handle subscriptions.
        if self._point_pending:
            pending, self._point_pending = self._point_pending, {}
            for variable, value in pending.items():
                try:
                    self.program.set_value(variable, value)
                except Exception:
                    pass
        # Located inputs from the Modbus image (SCADA-written).
        for variable, location in self._locations:
            if location.direction != "I":
                continue
            if location.width == "X":
                value: Any = bool(self.databank.coils.get(location.bit_address, 0))
            elif location.width == "W":
                value = self.databank.holding_registers.get(location.index, 0)
            else:  # "D" float pair
                value = self.databank.read_holding_float(location.index)
            self.program.set_value(variable.name, value)
        # MMS read bindings: issue a read, apply the latest cached value.
        for binding in self.bindings:
            if binding.direction != "read":
                continue
            cached = self._read_cache.get(binding.variable)
            if cached is not None:
                try:
                    self.program.set_value(binding.variable, cached)
                except Exception:
                    pass
            client = self._client(binding.server_ip)
            if not client.connected:
                client.connect()  # re-dial after a drop; no-op mid-handshake
                continue
            client.read(
                [binding.object_ref],
                lambda results, error, b=binding: self._on_mms_read(
                    b, results, error
                ),
            )

    def _on_mms_read(
        self, binding: MmsBinding, results: Any, error: Optional[str]
    ) -> None:
        if error or not isinstance(results, list) or not results:
            return
        entry = results[0]
        if isinstance(entry, dict) and "value" in entry:
            self._read_cache[binding.variable] = entry["value"]

    def _write_outputs(self) -> None:
        image = self._out_image
        for variable, location in self._locations:
            if location.direction != "Q":
                continue
            value = self.program.get_value(variable.name)
            if location.width == "X":
                out: Any = 1 if value else 0
                slot = ("X", location.bit_address)
            elif location.width == "W":
                out = int(value)
                slot = ("W", location.index)
            else:
                out = float(value)
                slot = ("D", location.index)
            # Delta gate: re-asserting an unchanged output into the Modbus
            # image is a no-op for every reader, so skip it.
            if image.get(slot) == out:
                self.suppressed_output_writes += 1
                continue
            image[slot] = out
            if location.width == "X":
                self.databank.set_discrete_input(location.bit_address, out)
            elif location.width == "W":
                self.databank.set_input_register(location.index, out)
            else:
                self.databank.set_input_float(location.index, out)
        for binding in self.point_bindings:
            if binding.direction != "write":
                continue
            value = self.program.get_value(binding.variable)
            if (
                binding.variable in self._point_written
                and self._point_written[binding.variable] == value
            ):
                continue
            self._point_written[binding.variable] = value
            if binding.handle.key.startswith("cmd/"):
                binding.pointdb.write_command(
                    binding.handle,
                    value,
                    writer=self.name,
                    time_us=self.host.simulator.now,
                )
            else:
                binding.pointdb.write_now(binding.handle, value)
        for binding in self.bindings:
            if binding.direction != "write":
                continue
            value = self.program.get_value(binding.variable)
            now = self.host.simulator.now
            if binding.variable in self._written:
                if self._written[binding.variable] == value:
                    refresh_due = (
                        self.write_refresh_us > 0
                        and now - self._written_at.get(binding.variable, 0)
                        >= self.write_refresh_us
                    )
                    if not refresh_due:
                        continue
            client = self._client(binding.server_ip)
            if not client.connected:
                client.connect()
                continue  # value stays pending until the link is back
            client.write(binding.object_ref, value)
            self._written[binding.variable] = value
            self._written_at[binding.variable] = now
            self.mms_write_count += 1

    def _on_master_write(self, table: str, address: int, value: int) -> None:
        """A Modbus master wrote a coil/register: re-arm bound writes."""
        self.input_events += 1
        self._written.clear()
        self._point_written.clear()

    # ------------------------------------------------------------------
    def mms_clients(self) -> dict[str, MmsClient]:
        """Server IP → client (diagnostics / tests)."""
        return dict(self._clients)
