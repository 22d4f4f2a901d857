"""Cyber↔physical coupling: the periodic power-flow tick.

Each tick (default 100 ms, §III-C):

1. drain breaker commands written by IEDs into the point database and
   apply them to the power network's switches,
2. advance the scenario (load profiles, contingency events) and re-solve
   the power flow,
3. publish the fresh snapshot back into the point database under the key
   conventions of :mod:`repro.pointdb`.

Key conventions published per element (names are the SCL equipment names):

* buses:      ``meas/<bus>/vm_pu``, ``meas/<bus>/va_deg``
* lines:      ``meas/<line>/p_mw``, ``q_mvar``, ``i_ka``, ``loading``
* trafos:     ``meas/<trafo>/p_mw``, ``q_mvar``, ``loading``
* switches:   ``status/<switch>/closed``
* gens/sgens: ``meas/<name>/p_mw``
* loads:      ``meas/<name>/p_mw`` (scaled)
* ext grids:  ``meas/<name>/p_mw`` (per-grid share of the slack power)
* system:     ``meas/system/hz``, ``meas/system/slack_p_mw``

Publication is **handle based**: every key above is resolved into a typed
:class:`~repro.pointdb.registry.PointHandle` once, at construction, and the
steady-state tick performs zero string formatting.  Values equal to the
previous tick are suppressed by the registry; one dirty-set flush at the
end of :meth:`PowerCoupling.publish` delivers each changed point to its
subscribers exactly once.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.powersim import Network, PowerFlowDiverged, PowerFlowResult
from repro.powersim.timeseries import TimeSeriesRunner
from repro.pointdb import PointRegistry, PointType


class PowerCoupling:
    """Owns the tick: commands in, snapshot out."""

    def __init__(
        self,
        net: Network,
        runner: TimeSeriesRunner,
        pointdb: PointRegistry,
    ) -> None:
        self.net = net
        self.runner = runner
        self.pointdb = pointdb
        self.tick_count = 0
        self.applied_commands = 0
        self.unknown_commands: list[str] = []
        self.diverged_ticks = 0
        self.last_result: Optional[PowerFlowResult] = None
        #: Changed points delivered by the per-tick flush (accounting).
        self.published_changes = 0
        #: Wall-clock seconds spent inside :meth:`tick` (bench accounting).
        self.tick_wall_s = 0.0
        #: Grid-share cache, valid while the topology revision is unchanged.
        self._grids_rev = -1
        self._grid_active: list[bool] = []
        self._active_grid_count = 0
        # Command targets resolved by name once; draining commands must not
        # scan the component tables per command.  First match wins (the
        # contract of Network.find_switch/find_load); elements added after
        # construction are found lazily in _command_target.
        self._switch_by_name: dict[str, object] = {}
        for switch in net.switches:
            self._switch_by_name.setdefault(switch.name, switch)
        self._load_by_name: dict[str, object] = {}
        for load in net.loads:
            self._load_by_name.setdefault(load.name, load)
        self._resolve_handles()

    # ------------------------------------------------------------------
    def _resolve_handles(self) -> None:
        """Intern every published key once; the tick never formats keys."""
        resolve = self.pointdb.resolve
        float_t = PointType.FLOAT
        bool_t = PointType.BOOL
        self._bus_handles = [
            (
                bus.name,
                resolve(f"meas/{bus.name}/vm_pu", float_t),
                resolve(f"meas/{bus.name}/va_deg", float_t),
            )
            for bus in self.net.buses
        ]
        self._line_handles = [
            (
                line.name,
                resolve(f"meas/{line.name}/p_mw", float_t),
                resolve(f"meas/{line.name}/q_mvar", float_t),
                resolve(f"meas/{line.name}/i_ka", float_t),
                resolve(f"meas/{line.name}/i_to_ka", float_t),
                resolve(f"meas/{line.name}/loading", float_t),
            )
            for line in self.net.lines
        ]
        self._trafo_handles = [
            (
                trafo.name,
                resolve(f"meas/{trafo.name}/p_mw", float_t),
                resolve(f"meas/{trafo.name}/q_mvar", float_t),
                resolve(f"meas/{trafo.name}/loading", float_t),
            )
            for trafo in self.net.transformers
        ]
        self._switch_handles = [
            (switch, resolve(f"status/{switch.name}/closed", bool_t))
            for switch in self.net.switches
        ]
        self._gen_handles = [
            (gen, resolve(f"meas/{gen.name}/p_mw", float_t))
            for gen in self.net.gens
        ]
        self._grid_handles = [
            (grid, resolve(f"meas/{grid.name}/p_mw", float_t))
            for grid in self.net.ext_grids
        ]
        self._sgen_handles = [
            (sgen, resolve(f"meas/{sgen.name}/p_mw", float_t))
            for sgen in self.net.sgens
        ]
        self._load_handles = [
            (load, resolve(f"meas/{load.name}/p_mw", float_t))
            for load in self.net.loads
        ]
        self._h_hz = resolve("meas/system/hz", float_t)
        self._h_slack = resolve("meas/system/slack_p_mw", float_t)
        self._h_losses = resolve("meas/system/losses_mw", float_t)

    @property
    def handle_count(self) -> int:
        """Handles this coupling resolved at construction."""
        return (
            2 * len(self._bus_handles)
            + 5 * len(self._line_handles)
            + 3 * len(self._trafo_handles)
            + len(self._switch_handles)
            + len(self._gen_handles)
            + len(self._grid_handles)
            + len(self._sgen_handles)
            + len(self._load_handles)
            + 3
        )

    # ------------------------------------------------------------------
    def tick(self, time_s: float) -> Optional[PowerFlowResult]:
        """One co-simulation step at scenario time ``time_s``."""
        # sgml: lint-ok[det-wallclock] wall accounting
        started = time.perf_counter()
        self.tick_count += 1
        self._apply_commands()
        try:
            result = self.runner.step(time_s)
        except PowerFlowDiverged:
            self.diverged_ticks += 1
            # sgml: lint-ok[det-wallclock] wall accounting
            self.tick_wall_s += time.perf_counter() - started
            return None
        self.last_result = result
        self.publish(result)
        # sgml: lint-ok[det-wallclock] wall accounting
        self.tick_wall_s += time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    def _apply_commands(self) -> None:
        for command in self.pointdb.drain_commands():
            parts = command.key.split("/")
            if len(parts) != 3 or parts[0] != "cmd":
                continue
            target, action = parts[1], parts[2]
            if action == "close":
                switch = self._command_target(
                    target, self._switch_by_name, self.net.find_switch
                )
                if switch is None:
                    self.unknown_commands.append(command.key)
                    continue
                switch.closed = bool(command.value)
                self.applied_commands += 1
            elif action == "scale":
                load = self._command_target(
                    target, self._load_by_name, self.net.find_load
                )
                if load is None:
                    self.unknown_commands.append(command.key)
                    continue
                load.scaling = float(command.value)
                self.applied_commands += 1

    def stats(self) -> dict[str, float]:
        """Tick/publish counters merged into ``CyberRange.data_plane_stats``.

        ``tick_wall_s`` is the wall-clock cost of the power-flow side of a
        range; together with the forwarding plane's ``forward_wall_s`` /
        ``deliver_wall_s`` (see :mod:`repro.netem.forwarding`) it lets the
        scalability bench attribute whole-range wall time to power flow
        versus netem transport versus endpoint processing.
        """
        runner = self.runner
        session = runner.session
        return {
            "published_changes": self.published_changes,
            "ticks": self.tick_count,
            "tick_wall_s": self.tick_wall_s,
            "solves": runner.solve_count,
            "solve_skipped": runner.solve_skipped,
            "topology_rebuilds": session.topology_rebuilds,
            "injection_rebuilds": session.injection_rebuilds,
            "nr_iterations": session.total_iterations,
            "warm_starts": session.warm_starts,
            "warm_start_iterations": session.warm_iterations,
        }

    @staticmethod
    def _command_target(name: str, cache: dict, find):
        """Cached name lookup, falling back to the live table scan for
        elements added to the network after this coupling was built."""
        element = cache.get(name)
        if element is None:
            element = find(name)
            if element is not None:
                cache[name] = element
        return element

    # ------------------------------------------------------------------
    def publish(self, result: PowerFlowResult) -> None:
        """Write the snapshot through pre-resolved handles, then flush.

        Unchanged values never leave the registry's write path; the single
        flush at the end wakes each subscriber once per changed point.
        """
        registry = self.pointdb
        write = registry.write
        buses = result.buses
        for name, h_vm, h_va in self._bus_handles:
            bus = buses.get(name)
            if bus is None:
                continue
            write(h_vm, bus.vm_pu)
            write(h_va, bus.va_degree)
        lines = result.lines
        for name, h_p, h_q, h_i, h_i_to, h_loading in self._line_handles:
            flow = lines.get(name)
            if flow is None:
                continue
            write(h_p, flow.p_from_mw)
            write(h_q, flow.q_from_mvar)
            write(h_i, flow.i_from_ka)
            write(h_i_to, flow.i_to_ka)
            write(h_loading, flow.loading_percent)
        trafos = result.transformers
        for name, h_p, h_q, h_loading in self._trafo_handles:
            flow = trafos.get(name)
            if flow is None:
                continue
            write(h_p, flow.p_from_mw)
            write(h_q, flow.q_from_mvar)
            write(h_loading, flow.loading_percent)
        for switch, handle in self._switch_handles:
            write(handle, switch.closed)
        for gen, handle in self._gen_handles:
            write(handle, gen.p_mw if gen.in_service else 0.0)
        # Slack power is a system total; attribute an equal share to each
        # active external grid so two grids don't both report the whole.
        # Which grids are active only changes with the topology revision,
        # so the activity flags are cached against it.
        if self.net.topology_rev != self._grids_rev:
            self._grids_rev = self.net.topology_rev
            self._grid_active = [
                grid.in_service and self.net.buses[grid.bus].in_service
                for grid, _ in self._grid_handles
            ]
            self._active_grid_count = sum(self._grid_active)
        count = self._active_grid_count
        share = result.slack_p_mw / count if count else 0.0
        for (grid, handle), active in zip(self._grid_handles, self._grid_active):
            write(handle, share if active else 0.0)
        for sgen, handle in self._sgen_handles:
            value = sgen.p_mw * sgen.scaling if sgen.in_service else 0.0
            write(handle, value)
        for load, handle in self._load_handles:
            value = load.p_mw * load.scaling if load.in_service else 0.0
            write(handle, value)
        write(self._h_hz, 50.0)
        write(self._h_slack, result.slack_p_mw)
        write(self._h_losses, result.total_losses_mw)
        self.published_changes += registry.flush()
