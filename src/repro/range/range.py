"""The cyber range object produced by the SG-ML Processor."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.kernel import MS, SECOND, Simulator
from repro.netem import Host, PacketCapture, VirtualNetwork
from repro.plc import VirtualPlc
from repro.pointdb import PointHandle, PointRegistry, PointType
from repro.powersim import Network
from repro.powersim.timeseries import TimeSeriesRunner
from repro.range.cosim import PowerCoupling
from repro.ied import VirtualIed
from repro.scada import ScadaHmi
from repro.telemetry import Snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.engine import ScenarioRun
    from repro.scenario.scenario import Scenario


#: The kind of every :meth:`CyberRange.data_plane_stats` name — the one
#: declaration :meth:`~repro.telemetry.Snapshot.diff` (counters and wall
#: subtract, gauges keep their end value) and
#: :meth:`~repro.telemetry.Snapshot.deterministic` (wall is dropped) read.
DATA_PLANE_KINDS: dict[str, str] = {
    **dict.fromkeys((
        "writes", "changed_writes", "suppressed_writes", "flushes",
        "notifications", "published_changes", "ticks", "solves",
        "solve_skipped", "topology_rebuilds", "injection_rebuilds",
        "nr_iterations", "warm_starts", "warm_start_iterations",
        "ied_scans", "ied_wakes", "netem_sends", "netem_path_compiles",
        "netem_cache_hits", "netem_delivery_events", "netem_deliveries",
        "netem_batched_frames", "netem_mcast_pruned_sends",
        "netem_mcast_flooded_sends", "netem_crossings",
        "netem_mcast_pruned_hops",
    ), Snapshot.COUNTER),
    **dict.fromkeys((
        "points", "present", "netem_cached_paths", "netem_forwarding_rev",
        "netem_cut_through", "netem_multicast_prune", "netem_mcast_groups",
        "netem_mcast_members", "netem_mcast_prune_ratio",
    ), Snapshot.GAUGE),
    **dict.fromkeys((
        "tick_wall_s", "netem_forward_wall_s", "netem_deliver_wall_s",
    ), Snapshot.WALL),
}


class RangeError(Exception):
    """Runtime misuse of the cyber range."""


class CyberRange:
    """An operational smart grid cyber range (paper Fig. 1 architecture)."""

    def __init__(
        self,
        simulator: Simulator,
        network: VirtualNetwork,
        power_net: Network,
        runner: TimeSeriesRunner,
        pointdb: PointRegistry,
        sim_interval_ms: float = 100.0,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.power_net = power_net
        self.pointdb = pointdb
        self.coupling = PowerCoupling(power_net, runner, pointdb)
        self.sim_interval_ms = sim_interval_ms
        #: Effective RNG seed of the stochastic parts (netem loss draws);
        #: campaign and service after-action reports record it.
        self.seed = seed
        self.ieds: dict[str, VirtualIed] = {}
        self.plcs: dict[str, VirtualPlc] = {}
        self.hmis: dict[str, ScadaHmi] = {}
        self._tick_task = None
        self.started = False
        self.closed = False
        self._attacker_count = 0
        #: Resolved-handle caches for the string-keyed read fast paths.
        self._meas_handles: dict[str, PointHandle] = {}
        self._breaker_handles: dict[str, PointHandle] = {}

    # ------------------------------------------------------------------
    # Composition (used by the processor / tests)
    # ------------------------------------------------------------------
    def add_ied(self, ied: VirtualIed) -> VirtualIed:
        if ied.name in self.ieds:
            raise RangeError(f"duplicate IED {ied.name!r}")
        self.ieds[ied.name] = ied
        return ied

    def add_plc(self, name: str, plc: VirtualPlc) -> VirtualPlc:
        if name in self.plcs:
            raise RangeError(f"duplicate PLC {name!r}")
        self.plcs[name] = plc
        return plc

    def add_hmi(self, name: str, hmi: ScadaHmi) -> ScadaHmi:
        if name in self.hmis:
            raise RangeError(f"duplicate HMI {name!r}")
        self.hmis[name] = hmi
        return hmi

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every device and the co-simulation tick."""
        if self.closed:
            raise RangeError("cyber range is closed")
        if self.started:
            return
        self.started = True
        # Publish an initial snapshot so devices see sane values at boot.
        self.coupling.tick(0.0)
        # Servers first (IEDs), then clients (PLC, SCADA).
        for ied in self.ieds.values():
            ied.start()
        for plc in self.plcs.values():
            plc.start()
        for hmi in self.hmis.values():
            hmi.start()
        interval = int(self.sim_interval_ms * MS)
        self._tick_task = self.simulator.every(
            interval, self._on_tick, label="powerflow-tick"
        )

    def stop(self) -> None:
        if self._tick_task is not None:
            self._tick_task.stop()
            self._tick_task = None
        for ied in self.ieds.values():
            ied.stop()
        for plc in self.plcs.values():
            plc.stop()
        for hmi in self.hmis.values():
            hmi.stop()
        self.started = False

    def close(self) -> None:
        """Deterministic teardown: stop, unsubscribe, drop caches.

        After close every shared-registry subscription the range's devices
        made is detached (a later registry flush wakes nobody), the netem
        path/multicast caches are released, and the range refuses to start
        again.  Idempotent.  This is what session eviction in
        :mod:`repro.service` relies on: a closed session must cost nothing
        beyond its (garbage-collectable) object graph.
        """
        if self.closed:
            return
        self.stop()
        self.closed = True
        for ied in self.ieds.values():
            ied.close()
        for plc in self.plcs.values():
            plc.close()
        for hmi in self.hmis.values():
            hmi.close()
        self.network.drop_caches()
        self._meas_handles.clear()
        self._breaker_handles.clear()

    def __enter__(self) -> "CyberRange":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _on_tick(self) -> None:
        self.coupling.tick(self.simulator.now / SECOND)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_for(self, seconds: float) -> None:
        """Advance the whole range by ``seconds`` of virtual time."""
        if not self.started:
            raise RangeError("call start() before run_for()")
        self.simulator.run_for(int(seconds * SECOND))

    def step_until(self, deadline_us: int, max_events: int | None = None):
        """Budget-bounded cooperative slice toward an absolute deadline.

        Thin wrapper over :meth:`repro.kernel.Simulator.step_until` with
        the range lifecycle guard; the service layer drives many ranges on
        one thread with this.  Returns the kernel's
        :class:`~repro.kernel.StepSlice`.
        """
        if not self.started:
            raise RangeError("call start() before step_until()")
        if self.closed:
            raise RangeError("cyber range is closed")
        return self.simulator.step_until(deadline_us, max_events)

    def run_realtime(self, seconds: float, speed: float = 1.0) -> None:
        """Advance pacing against the wall clock (interactive exercises)."""
        if not self.started:
            raise RangeError("call start() before run_realtime()")
        self.simulator.run_realtime(int(seconds * SECOND), speed=speed)

    def run_scenario(
        self, scenario: "Scenario", duration_s: float, settle_s: float = 0.0
    ) -> "ScenarioRun":
        """Execute an event-driven scenario: arm, run, score, report.

        Starts the range if needed, optionally advances ``settle_s`` of
        virtual time *before arming* (device associations, initial GOOSE,
        first power-flow publishes — so ``when()`` conditions arm against
        a settled data plane; the campaign runner uses this on freshly
        compiled ranges), then arms every root phase trigger, advances
        ``duration_s`` and returns the finished
        :class:`~repro.scenario.engine.ScenarioRun` (per-phase timing,
        action log, branch path, outcome verdicts).
        """
        from repro.scenario.engine import ScenarioRun

        if not self.started:
            self.start()
        if settle_s > 0:
            self.run_for(settle_s)
        run = ScenarioRun(scenario, self)
        run.start()
        self.run_for(duration_s)
        return run.finish()

    # ------------------------------------------------------------------
    # Attack / observation surface
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        return self.network.host(name)

    def add_attacker(
        self, switch_name: str, name: str = "", ip: str = ""
    ) -> Host:
        """Attach an attacker box to a switch, like plugging in a laptop.

        The paper: "Users can utilize any penetration testing tool ... on a
        virtual node of the cyber range or on their own devices connected
        to the cyber range."
        """
        self._attacker_count += 1
        host_name = name or f"attacker{self._attacker_count}"
        host_ip = ip or f"10.66.66.{self._attacker_count}"
        attacker = self.network.add_host(
            host_name, ip=host_ip, subnet_mask="255.0.0.0"
        )
        self.network.add_link(host_name, switch_name)
        return attacker

    def capture(self, link_name: str) -> PacketCapture:
        return self.network.capture(link_name)

    def capture_all(self) -> PacketCapture:
        return self.network.capture_all()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def architecture_summary(self) -> dict[str, int]:
        """Counts of each Fig. 1 component (bench/report helper)."""
        return {
            "ieds": len(self.ieds),
            "plcs": len(self.plcs),
            "hmis": len(self.hmis),
            "hosts": len(self.network.hosts),
            "switches": len(self.network.switches),
            "links": len(self.network.links),
            "buses": len(self.power_net.buses),
            "power_switches": len(self.power_net.switches),
        }

    def point_handle(
        self, key: str, ptype: PointType = PointType.ANY
    ) -> PointHandle:
        """Resolve (and intern) a typed handle for a point key.

        The public entry point for handle-based fast paths: resolve once,
        then read/subscribe through the registry without string lookups.
        """
        return self.pointdb.resolve(key, ptype)

    def breaker_state(self, breaker: str) -> bool:
        """Breaker position via a cached handle (True = closed).

        Read-only: an unknown breaker returns the default without
        interning a new registry slot.
        """
        registry = self.pointdb
        handle = self._breaker_handles.get(breaker)
        if handle is None:
            handle = registry.handle_for(f"status/{breaker}/closed")
            if handle is None:
                return True
            self._breaker_handles[breaker] = handle
        return registry.get_bool(handle, True)

    def measurement(self, key: str) -> float:
        """Float measurement via a cached handle (0.0 when absent).

        Read-only: an unknown key returns 0.0 without interning a new
        registry slot (misspelled keys must not grow the registry).
        """
        registry = self.pointdb
        handle = self._meas_handles.get(key)
        if handle is None:
            handle = registry.handle_for(key)
            if handle is None:
                return 0.0
            self._meas_handles[key] = handle
        return registry.get_float(handle)

    def data_plane_stats(self) -> Snapshot:
        """Registry, solver, device and netem accounting (bench/report).

        ``suppressed_writes`` vs ``changed_writes`` shows how much of the
        per-tick snapshot the delta layer absorbed; ``ied_scans`` vs
        ``ied_wakes`` how often devices ran versus how often a changed
        input asked them to; ``solve_skipped`` vs ``solves`` how many ticks
        the incremental solver answered from cache, and
        ``warm_start_iterations`` the Newton-Raphson cost of the
        warm-started solves.  ``tick_wall_s`` (power flow),
        ``netem_forward_wall_s`` (netem transport) and
        ``netem_deliver_wall_s`` (endpoint processing) attribute
        whole-range wall time.  Kinds are declared in
        :data:`DATA_PLANE_KINDS`.  Per-group multicast delivery counts
        live in :meth:`multicast_group_stats` (string-keyed).
        """
        coupling = self.coupling
        runner = coupling.runner
        network = self.network
        plane = network.plane
        groups = network.groups
        pruned = plane.mcast_pruned_sends
        flooded = plane.mcast_flooded_sends
        return Snapshot({
            **self.pointdb.stats(),
            "published_changes": coupling.published_changes,
            "ticks": coupling.tick_count,
            "tick_wall_s": coupling.tick_clock.seconds,
            "solves": runner.solve_count,
            "solve_skipped": runner.solve_skipped,
            "topology_rebuilds": runner.session.topology_rebuilds,
            "injection_rebuilds": runner.session.injection_rebuilds,
            "nr_iterations": runner.session.total_iterations,
            "warm_starts": runner.session.warm_starts,
            "warm_start_iterations": runner.session.warm_iterations,
            "ied_scans": sum(i.scan_count for i in self.ieds.values()),
            "ied_wakes": sum(i.wake_count for i in self.ieds.values()),
            "netem_sends": plane.sends,
            "netem_path_compiles": plane.path_compiles,
            "netem_cache_hits": plane.cache_hits,
            "netem_delivery_events": plane.delivery_events,
            "netem_deliveries": plane.deliveries,
            "netem_batched_frames": plane.batched_frames,
            "netem_mcast_pruned_sends": pruned,
            "netem_mcast_flooded_sends": flooded,
            "netem_crossings": plane.crossings,
            "netem_cached_paths": plane.cached_paths,
            "netem_forwarding_rev": plane.state.rev,
            "netem_forward_wall_s": plane.forward_clock.seconds,
            "netem_deliver_wall_s": plane.deliver_clock.seconds,
            "netem_cut_through": 1.0 if network.cut_through else 0.0,
            "netem_multicast_prune": 1.0 if groups.enabled else 0.0,
            "netem_mcast_groups": float(groups.group_count),
            "netem_mcast_members": float(groups.member_count),
            "netem_mcast_pruned_hops": float(
                sum(switch.pruned for switch in network.switches.values())
            ),
            "netem_mcast_prune_ratio": (
                pruned / (pruned + flooded) if pruned + flooded else 0.0
            ),
        }, DATA_PLANE_KINDS)

    def multicast_group_stats(self) -> dict[str, int]:
        """Deliveries per multicast group (``mac|appid`` → frame×receiver).

        Counted by the cut-through plane per registered group; the
        pruned-vs-flooded aggregate ratios are in
        :meth:`data_plane_stats` (``netem_mcast_*``).
        """
        return dict(self.network.groups.group_deliveries)
