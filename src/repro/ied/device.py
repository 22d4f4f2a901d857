"""The virtual IED device runtime.

Wires together a network host, an IEC 61850 data model, the protection
engine, MMS/GOOSE/R-SV endpoints and the point database (the power-
simulator coupling).  The scan cycle matches the paper's architecture:

1. refresh measurements/statuses from the point database into the model,
2. evaluate protection functions (trip → breaker command into the
   database + GOOSE state change),
3. publish the GOOSE dataset (breaker status + protection flags).

Control commands arrive as MMS writes to a controllable object's
``Oper.ctlVal``; closing is gated by CILO interlocks.  This is the exact
surface the false-command-injection case study attacks.

Scheduling is **change driven**: every point-database input (read points,
breaker statuses, interlock dependencies) is resolved into a typed handle
at construction and subscribed for delta notification.  The kernel runs a
scan only when an input actually changed — a tick, a peer GOOSE message
with new breaker state, a fresh R-SV sample value, or an MMS setting
write.  While a protection function is timing towards its operate delay
the device re-arms itself at ``scan_interval_ms`` so trips still fire on
schedule; a fully idle substation costs ~zero kernel events.  Setting
``change_driven = False`` before :meth:`VirtualIed.start` restores the
legacy fixed-period scan.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.ied.config import IedRuntimeConfig, PointMapping, ProtectionSettings
from repro.ied.datamodel import DataModelError, IedDataModel, Leaf
from repro.ied.protection import (
    Cilo,
    Pdif,
    ProtectionEngine,
    Ptoc,
    Ptov,
    Ptuv,
    TripEvent,
)
from repro.iec61850.goose import GoosePublisher, GooseSubscriber
from repro.iec61850.mms import MmsError, MmsServer
from repro.iec61850.rgoose import RSvPublisher, RSvSubscriber
from repro.kernel import MS
from repro.netem.host import Host
from repro.pointdb import PointHandle, PointRegistry, PointType


class VirtualIed:
    """One virtual IED: data model + protocols + protection."""

    def __init__(
        self,
        host: Host,
        model: IedDataModel,
        config: IedRuntimeConfig,
        pointdb: PointRegistry,
    ) -> None:
        self.host = host
        self.model = model
        self.config = config
        self.pointdb = pointdb
        self.name = config.ied_name
        self.engine = ProtectionEngine(self.name)
        self.mms_server = MmsServer(host, provider=self)
        self.goose_publisher: Optional[GoosePublisher] = None
        self.goose_subscribers: list[GooseSubscriber] = []
        self.sv_publisher: Optional[RSvPublisher] = None
        self._sv_subscribers: dict[str, RSvSubscriber] = {}
        self._sv_last_sample: dict[str, float] = {}
        #: Breaker statuses learned from peer GOOSE messages.
        self.peer_breaker_status: dict[str, bool] = {}
        #: Breakers this IED commands: db breaker name → command handle.
        self._breakers: dict[str, PointHandle] = {}
        self._protection_by_ln: dict[str, Any] = {}
        self._scan_task = None
        self._scan_event = None
        self._running = False
        #: Scan only when inputs changed (plus delay-timing re-arms).
        self.change_driven = True
        self.scan_count = 0
        self.wake_count = 0
        self._inputs_dirty = True
        #: Point-db read points with pre-resolved handles + last synced
        #: generation (−1 = never synced, so the first scan syncs all).
        self._read_handles: list[tuple[PointMapping, PointHandle]] = []
        self._read_gens: list[int] = []
        self._status_handles: dict[str, PointHandle] = {}
        self._wake_subscribed: set[int] = set()
        #: Handles subscribed with the wake callback, kept for close().
        self._subscribed_handles: list[PointHandle] = []
        self.operate_log: list[tuple[int, str, bool, str]] = []
        self.rejected_operates: list[tuple[int, str, str]] = []
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for point in self.config.write_points():
            breaker = _breaker_from_command_key(point.db_key)
            if breaker:
                self._breakers[breaker] = self.pointdb.resolve(point.db_key)
        for settings in self.config.protections:
            self._build_protection(settings)
        self._resolve_handles()
        if self.config.goose is not None:
            self.goose_publisher = GoosePublisher(
                self.host,
                gocb_ref=self.config.goose.gocb_ref,
                dat_set=self.config.goose.dataset,
            )
        for gocb_ref in self.config.goose_subscriptions:
            self.goose_subscribers.append(
                GooseSubscriber(self.host, gocb_ref, self._on_peer_goose)
            )
        if self.config.sv_publish is not None:
            sv_id, meas_ref = self.config.sv_publish
            self.sv_publisher = RSvPublisher(self.host, sv_id)
            self.sv_publisher.start(lambda: [self._read_model_safe(meas_ref)])
        self.engine.on_trip = self._on_trip

    def _resolve_handles(self) -> None:
        """Intern every input key once; subscribe the wake callback.

        The handle set is fixed at construction (compile time for ranges
        built by the SG-ML processor): read points, own breaker statuses,
        and interlock dependencies.  Changes to any of them mark the
        device dirty and schedule a scan.
        """
        for point in self.config.read_points():
            ptype = (
                PointType.BOOL
                if point.db_key.startswith("status/")
                else PointType.ANY
            )
            handle = self.pointdb.resolve(point.db_key, ptype)
            self._read_handles.append((point, handle))
            self._read_gens.append(-1)
            self._subscribe_wake(handle)
        for breaker in self._breakers:
            self._status_handle(breaker)

    def _status_handle(self, breaker: str) -> PointHandle:
        handle = self._status_handles.get(breaker)
        if handle is None:
            handle = self.pointdb.resolve(
                f"status/{breaker}/closed", PointType.BOOL
            )
            self._status_handles[breaker] = handle
            self._subscribe_wake(handle)
        return handle

    def _subscribe_wake(self, handle: PointHandle) -> None:
        if handle.index in self._wake_subscribed:
            return
        self._wake_subscribed.add(handle.index)
        self._subscribed_handles.append(handle)
        self.pointdb.subscribe(handle, self._on_input_change)

    @property
    def handle_count(self) -> int:
        """Distinct point-db handles this device subscribes to."""
        return len(self._wake_subscribed)

    def _build_protection(self, settings: ProtectionSettings) -> None:
        fn_type = settings.fn_type.upper()
        measure = self._measure_callable(settings.meas_ref)
        if fn_type == "PTOC":
            function: Any = Ptoc(
                settings.ln_name, settings.breaker, settings.threshold,
                settings.delay_ms, measure,
            )
            self.engine.add(function)
        elif fn_type == "PTOV":
            function = Ptov(
                settings.ln_name, settings.breaker, settings.threshold,
                settings.delay_ms, measure,
            )
            self.engine.add(function)
        elif fn_type == "PTUV":
            function = Ptuv(
                settings.ln_name, settings.breaker, settings.threshold,
                settings.delay_ms, measure,
            )
            self.engine.add(function)
        elif fn_type == "PDIF":
            subscriber = self._sv_subscriber(settings.remote_sv_id)
            function = Pdif(
                settings.ln_name,
                settings.breaker,
                settings.threshold,
                settings.delay_ms,
                measure,
                remote=lambda s=subscriber: _first_sample(s),
                remote_healthy=lambda s=subscriber: s.healthy,
            )
            self.engine.add(function)
        elif fn_type == "CILO":
            interlock = Cilo(
                settings.ln_name,
                settings.breaker,
                settings.interlock_breaker,
                interlock_closed=self._breaker_status_callable(
                    settings.interlock_breaker
                ),
            )
            self.engine.add_interlock(interlock)
            self._protection_by_ln[settings.ln_name] = interlock
            return
        else:
            raise ValueError(f"unknown protection type {settings.fn_type!r}")
        self._protection_by_ln[settings.ln_name] = function
        # Publish the configured threshold into the data model settings.
        self._write_model_safe(
            self._setting_ref(settings.ln_name, "StrVal.setMag.f"),
            settings.threshold,
        )
        self._write_model_safe(
            self._setting_ref(settings.ln_name, "OpDlTmms.setVal"),
            int(settings.delay_ms),
        )

    def _sv_subscriber(self, sv_id: str) -> RSvSubscriber:
        subscriber = self._sv_subscribers.get(sv_id)
        if subscriber is None:
            subscriber = RSvSubscriber(
                self.host,
                sv_id,
                lambda message, sv=sv_id: self._on_sv_message(sv, message),
            )
            self._sv_subscribers[sv_id] = subscriber
        return subscriber

    def _on_sv_message(self, sv_id: str, message) -> None:
        """Wake on a *new* remote sample value, not on every heartbeat."""
        sample = 0.0
        if message is not None and message.samples:
            try:
                sample = float(message.samples[0])
            except (TypeError, ValueError):
                sample = 0.0
        if self._sv_last_sample.get(sv_id) != sample:
            self._sv_last_sample[sv_id] = sample
            self._mark_inputs_dirty()

    def _measure_callable(self, meas_ref: str):
        def read() -> float:
            if meas_ref and self.model.exists(meas_ref):
                try:
                    return float(self.model.read(meas_ref))
                except (DataModelError, TypeError, ValueError):
                    return 0.0
            return 0.0

        return read

    def _breaker_status_callable(self, breaker: str):
        handle = self._status_handle(breaker)
        registry = self.pointdb

        def read() -> bool:
            # Prefer the peer-published GOOSE status (protection-grade
            # source per the paper); fall back to the point database.
            if breaker in self.peer_breaker_status:
                return self.peer_breaker_status[breaker]
            return registry.get_bool(handle, True)

        return read

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.mms_server.start()
        self._running = True
        self._inputs_dirty = True
        interval = int(self.config.scan_interval_ms * MS)
        if self.change_driven:
            self._schedule_scan(interval)
        else:
            self._scan_task = self.host.simulator.every(
                interval, self.scan, label=f"ied-scan:{self.name}"
            )
        if self.goose_publisher is not None:
            self.goose_publisher.start(self._goose_dataset())

    def stop(self) -> None:
        self._running = False
        if self._scan_task is not None:
            self._scan_task.stop()
            self._scan_task = None
        if self._scan_event is not None:
            self._scan_event.cancel()
            self._scan_event = None
        if self.goose_publisher is not None:
            self.goose_publisher.stop()
        if self.sv_publisher is not None:
            self.sv_publisher.stop()

    def close(self) -> None:
        """Stop + detach every shared-registry subscription.

        After close the device costs nothing on later registry flushes —
        required for session eviction in :mod:`repro.service`, where the
        registry may outlive the device (diagnostics reads) and where a
        closed range must not wake dead devices.
        """
        self.stop()
        for handle in self._subscribed_handles:
            self.pointdb.unsubscribe(handle, self._on_input_change)
        self._subscribed_handles.clear()
        self._wake_subscribed.clear()

    # ------------------------------------------------------------------
    # Change-driven scheduling
    # ------------------------------------------------------------------
    def _on_input_change(self, handle: PointHandle, value: Any) -> None:
        self._mark_inputs_dirty()

    def _mark_inputs_dirty(self) -> None:
        self._inputs_dirty = True
        if self._running and self.change_driven:
            self.wake_count += 1
            self._schedule_scan(0)

    def _schedule_scan(self, delay_us: int) -> None:
        if self._scan_event is not None:
            return  # a scan is already pending
        self._scan_event = self.host.simulator.schedule(
            delay_us, self._scan_wake, label=f"ied-scan:{self.name}"
        )

    def _scan_wake(self) -> None:
        self._scan_event = None
        self.scan()

    def _engine_hot(self) -> bool:
        """A function timing towards its operate delay needs periodic
        evaluation even without further input changes."""
        return any(
            function.started and not function.operated
            for function in self.engine.functions
        )

    # ------------------------------------------------------------------
    # Scan cycle
    # ------------------------------------------------------------------
    def scan(self) -> None:
        self.scan_count += 1
        now = self.host.simulator.now
        self._inputs_dirty = False
        self._sync_measurements()
        self.engine.evaluate(now)
        self._update_protection_flags()
        if self.goose_publisher is not None:
            self.goose_publisher.update(self._goose_dataset())
        if (
            self.change_driven
            and self._running
            and (self._inputs_dirty or self._engine_hot())
        ):
            self._schedule_scan(int(self.config.scan_interval_ms * MS))

    def _sync_measurements(self) -> None:
        registry = self.pointdb
        gens = self._read_gens
        for slot, (point, handle) in enumerate(self._read_handles):
            generation = registry.generation(handle)
            if generation == gens[slot]:
                continue  # unchanged since the last sync
            gens[slot] = generation
            if not registry.present(handle):
                continue
            value = registry.read(handle)
            if isinstance(value, bool):
                scaled: Any = value
            elif isinstance(value, (int, float)):
                scaled = value * point.scale
            else:
                scaled = value
            self._write_model_safe(point.scl_ref, scaled)

    def _update_protection_flags(self) -> None:
        for ln_name, function in self._protection_by_ln.items():
            if isinstance(function, Cilo):
                enabled = function.interlock_closed()
                self._write_model_safe(
                    self._setting_ref(ln_name, "EnaCls.stVal"), enabled
                )
                continue
            self._write_model_safe(
                self._setting_ref(ln_name, "Str.general"), function.started
            )
            self._write_model_safe(
                self._setting_ref(ln_name, "Op.general"), function.operated
            )
            if isinstance(function, Pdif):
                self._write_model_safe(
                    self._setting_ref(ln_name, "DifAClc.mag.f"),
                    function.last_differential,
                )

    def _goose_dataset(self) -> list:
        """Self-describing dataset: [["breaker", name, closed], ["op", ln, flag]...]"""
        registry = self.pointdb
        data: list = [["ied", self.name]]
        for breaker in sorted(self._breakers):
            closed = registry.get_bool(self._status_handle(breaker), True)
            data.append(["breaker", breaker, closed])
        for ln_name, function in sorted(self._protection_by_ln.items()):
            if not isinstance(function, Cilo):
                data.append(["op", ln_name, bool(function.operated)])
        return data

    def _on_peer_goose(self, message) -> None:
        for entry in message.all_data:
            if (
                isinstance(entry, list)
                and len(entry) == 3
                and entry[0] == "breaker"
            ):
                breaker = str(entry[1])
                closed = bool(entry[2])
                if self.peer_breaker_status.get(breaker) is not closed:
                    self.peer_breaker_status[breaker] = closed
                    self._mark_inputs_dirty()

    # ------------------------------------------------------------------
    # Operate path
    # ------------------------------------------------------------------
    def operate_breaker(self, breaker: str, close: bool, source: str) -> bool:
        """Command a breaker; returns False when an interlock blocks it."""
        now = self.host.simulator.now
        if breaker not in self._breakers:
            self.rejected_operates.append((now, breaker, "not controllable"))
            return False
        if close and not self.engine.close_permitted(breaker):
            self.rejected_operates.append((now, breaker, "CILO interlock"))
            return False
        self.pointdb.write_command(
            self._breakers[breaker],
            close,
            writer=f"{self.name}:{source}",
            time_us=now,
        )
        self.operate_log.append((now, breaker, close, source))
        if self.goose_publisher is not None:
            self.goose_publisher.update(self._goose_dataset())
        return True

    def _on_trip(self, event: TripEvent) -> None:
        self.operate_breaker(event.breaker, close=False, source=event.function)

    # ------------------------------------------------------------------
    # MMS provider interface
    # ------------------------------------------------------------------
    def mms_identify(self) -> dict:
        return {
            "vendor": "SG-ML CyberRange",
            "model": "VirtualIED",
            "revision": "1.0",
            "name": self.name,
        }

    def mms_get_name_list(self, object_class: str, domain: str) -> list[str]:
        if object_class == "domain" or not domain:
            return list(self.model.ldevices)
        return self.model.references(prefix=domain)

    def mms_read(self, reference: str) -> Any:
        try:
            return self.model.read(reference)
        except DataModelError as exc:
            raise MmsError(str(exc)) from exc

    def mms_write(self, reference: str, value: Any) -> None:
        leaf = self.model.leaves.get(reference)
        if leaf is None:
            raise MmsError(f"unknown reference {reference!r}")
        if leaf.fc == "CO":
            breaker = self._breaker_for_control(reference)
            if breaker is None:
                raise MmsError(f"{reference}: no breaker mapping")
            if not self.operate_breaker(breaker, bool(value), source="mms"):
                raise MmsError(f"{reference}: operate blocked by interlock")
            leaf.value = bool(value)
            return
        if leaf.fc in ("SP", "CF"):
            leaf.value = leaf.typed(value)
            self._apply_setting_change(reference, leaf.value)
            return
        raise MmsError(f"{reference}: read-only (fc={leaf.fc})")

    def _breaker_for_control(self, reference: str) -> Optional[str]:
        """Resolve a CO-write reference to its breaker via the point map."""
        ln_prefix = reference.split(".", 1)[0]  # "LD/LN"
        for point in self.config.write_points():
            if point.scl_ref.split(".", 1)[0] == ln_prefix:
                breaker = _breaker_from_command_key(point.db_key)
                if breaker:
                    return breaker
        # Fallback: single-breaker IEDs accept any control reference.
        if len(self._breakers) == 1:
            return next(iter(self._breakers))
        return None

    def _apply_setting_change(self, reference: str, value: Any) -> None:
        """Runtime threshold changes take effect on the live function."""
        for ln_name, function in self._protection_by_ln.items():
            if isinstance(function, Cilo):
                continue
            if reference == self._setting_ref(ln_name, "StrVal.setMag.f"):
                function.threshold = float(value)
                self._mark_inputs_dirty()
            elif reference == self._setting_ref(ln_name, "OpDlTmms.setVal"):
                function.delay_us = int(value) * MS
                self._mark_inputs_dirty()

    # ------------------------------------------------------------------
    def _setting_ref(self, ln_name: str, suffix: str) -> str:
        for prefix, _ in self.model.ln_references.items():
            if prefix.endswith("/" + ln_name):
                return f"{prefix}.{suffix}"
        # Default to the first logical device.
        ld = self.model.ldevices[0] if self.model.ldevices else self.name
        return f"{ld}/{ln_name}.{suffix}"

    def _read_model_safe(self, reference: str) -> float:
        try:
            return float(self.model.read(reference))
        except (DataModelError, TypeError, ValueError):
            return 0.0

    def _write_model_safe(self, reference: str, value: Any) -> None:
        leaf = self.model.leaves.get(reference)
        if leaf is None:
            self.model.leaves[reference] = Leaf(reference=reference, value=value)
            return
        leaf.value = leaf.typed(value)


def _breaker_from_command_key(db_key: str) -> str:
    """``cmd/<breaker>/close`` → ``<breaker>`` (empty if not a command)."""
    parts = db_key.split("/")
    if len(parts) == 3 and parts[0] == "cmd":
        return parts[1]
    return ""


def _first_sample(subscriber: RSvSubscriber) -> float:
    message = subscriber.last_message
    if message is None or not message.samples:
        return 0.0
    try:
        return float(message.samples[0])
    except (TypeError, ValueError):
        return 0.0
