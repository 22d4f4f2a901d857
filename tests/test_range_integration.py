"""Cross-module integration: the co-simulation loop end to end."""

import pytest

from repro.kernel import SECOND
from repro.powersim import Network
from repro.powersim.timeseries import (
    ScenarioEvent,
    SimulationScenario,
    TimeSeriesRunner,
)
from repro.pointdb import PointRegistry
from repro.range import CyberRange, PowerCoupling, RangeError
from repro.kernel import Simulator
from repro.netem import VirtualNetwork


TBUS_VM = "meas/EPIC/VL1/TransmissionBay/TBUS/vm_pu"


def _small_power_net():
    net = Network("mini")
    a = net.add_bus("A", 20.0)
    b = net.add_bus("B", 20.0)
    c = net.add_bus("C", 20.0)
    net.add_ext_grid("grid", a, vm_pu=1.0)
    net.add_line("L1", a, b, r_ohm=0.05, x_ohm=0.2, max_i_ka=0.4)
    net.add_switch_bus_bus("CB1", b, c, closed=True)
    net.add_load("LD1", c, p_mw=4.0, q_mvar=1.0)
    return net


# ---------------------------------------------------------------------------
# PowerCoupling
# ---------------------------------------------------------------------------


def test_coupling_publishes_snapshot():
    net = _small_power_net()
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    result = coupling.tick(0.0)
    assert result is not None
    assert db.get("meas/A/vm_pu") == pytest.approx(1.0)
    assert db.get("meas/L1/p_mw") > 3.9
    assert db.get("status/CB1/closed") is True
    assert db.get("meas/system/hz") == 50.0
    assert db.get("meas/LD1/p_mw") == pytest.approx(4.0)


def test_coupling_applies_breaker_commands():
    net = _small_power_net()
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    coupling.tick(0.0)
    db.write_command(db.resolve("cmd/CB1/close"), False, writer="test")
    coupling.tick(0.1)
    assert coupling.applied_commands == 1
    assert db.get("status/CB1/closed") is False
    assert db.get("meas/C/vm_pu") == 0.0
    assert db.get("meas/L1/p_mw") == pytest.approx(0.0, abs=1e-9)


def test_coupling_flags_unknown_commands():
    net = _small_power_net()
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    db.write_command(db.resolve("cmd/GHOST/close"), False)
    coupling.tick(0.0)
    assert coupling.unknown_commands == ["cmd/GHOST/close"]


def test_coupling_load_scale_command():
    net = _small_power_net()
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    coupling.tick(0.0)
    db.write_command(db.resolve("cmd/LD1/scale"), 0.5)
    coupling.tick(0.1)
    assert db.get("meas/LD1/p_mw") == pytest.approx(2.0)


def test_coupling_survives_divergence():
    net = _small_power_net()
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    coupling.tick(0.0)
    net.loads[0].p_mw = 1e9  # unsolvable
    assert coupling.tick(0.1) is None
    assert coupling.diverged_ticks == 1
    net.loads[0].p_mw = 4.0
    assert coupling.tick(0.2) is not None


def test_coupling_delta_publication_suppresses_steady_state():
    """Unchanged values are not re-published: handle subscribers fire
    exactly once per changed value per tick, and a steady-state tick
    delivers ~nothing."""
    net = _small_power_net()
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    handle = db.resolve("meas/A/vm_pu")
    seen = []
    db.subscribe(handle, lambda h, v: seen.append(v))
    coupling.tick(0.0)
    assert len(seen) == 1  # first tick: the value is new
    changed_after_first = coupling.published_changes
    coupling.tick(0.1)
    coupling.tick(0.2)
    # Identical solves → the registry swallows every write, no deliveries.
    assert len(seen) == 1
    assert coupling.published_changes == changed_after_first
    # A real change is delivered exactly once on the tick that made it.
    db.write_command(db.resolve("cmd/CB1/close"), False, writer="test")
    coupling.tick(0.3)
    slack_handle = db.resolve("meas/A/vm_pu")
    assert slack_handle.index == handle.index  # interning is stable
    assert coupling.published_changes > changed_after_first


def test_coupling_handles_resolved_once_at_construction():
    net = _small_power_net()
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    before = db.size
    coupling.tick(0.0)
    coupling.tick(0.1)
    # The tick interns nothing new: the key universe is fixed up front.
    assert db.size == before
    assert coupling.handle_count > 0


def test_coupling_ext_grid_share_not_duplicated():
    """Two external grids must not both report the full slack power."""
    net = Network("twin-grid")
    a = net.add_bus("A", 20.0)
    b = net.add_bus("B", 20.0)
    net.add_ext_grid("gridA", a, vm_pu=1.0)
    net.add_ext_grid("gridB", b, vm_pu=1.0)
    net.add_line("L1", a, b, r_ohm=0.05, x_ohm=0.2, max_i_ka=0.4)
    net.add_load("LD1", b, p_mw=4.0, q_mvar=1.0)
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    result = coupling.tick(0.0)
    assert result is not None
    total = db.get("meas/gridA/p_mw") + db.get("meas/gridB/p_mw")
    assert total == pytest.approx(result.slack_p_mw)


def test_coupling_scenario_events_fire_at_tick_time():
    net = _small_power_net()
    scenario = SimulationScenario(
        events=[ScenarioEvent(time_s=1.0, action="open_switch", target="CB1")]
    )
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net, scenario), db)
    coupling.tick(0.5)
    assert db.get("status/CB1/closed") is True
    coupling.tick(1.0)
    assert db.get("status/CB1/closed") is False


# ---------------------------------------------------------------------------
# CyberRange lifecycle
# ---------------------------------------------------------------------------


def _bare_range():
    simulator = Simulator()
    network = VirtualNetwork(simulator)
    network.add_switch("sw")
    net = _small_power_net()
    return CyberRange(
        simulator, network, net, TimeSeriesRunner(net), PointRegistry(),
        sim_interval_ms=100,
    )


def test_range_requires_start_before_run():
    cyber_range = _bare_range()
    with pytest.raises(RangeError):
        cyber_range.run_for(1.0)


def test_range_ticks_at_interval():
    cyber_range = _bare_range()
    cyber_range.start()
    cyber_range.run_for(1.0)
    # initial tick + 10 periodic ticks over 1 s at 100 ms.
    assert cyber_range.coupling.tick_count == 11


def test_range_add_attacker_is_connected():
    cyber_range = _bare_range()
    attacker = cyber_range.add_attacker("sw", name="evil", ip="10.9.9.9")
    assert attacker.name == "evil"
    assert cyber_range.network.adjacency()["evil"] == ["sw"]


def test_range_duplicate_component_names_rejected():
    cyber_range = _bare_range()
    from repro.ied import IedDataModel, IedRuntimeConfig, VirtualIed

    host = cyber_range.network.add_host("ied", "10.0.0.5")
    cyber_range.network.add_link("ied", "sw")
    model = IedDataModel("X")
    device = VirtualIed(
        host, model, IedRuntimeConfig(ied_name="X"), cyber_range.pointdb
    )
    cyber_range.add_ied(device)
    with pytest.raises(RangeError):
        cyber_range.add_ied(device)


def test_range_stop_halts_ticks():
    cyber_range = _bare_range()
    cyber_range.start()
    cyber_range.run_for(0.5)
    ticks = cyber_range.coupling.tick_count
    cyber_range.stop()
    cyber_range.simulator.run_for(1 * SECOND)
    assert cyber_range.coupling.tick_count == ticks


def test_range_realtime_runs(monkeypatch):
    cyber_range = _bare_range()
    cyber_range.start()
    cyber_range.run_realtime(0.2, speed=10_000.0)
    assert cyber_range.coupling.tick_count >= 2


# ---------------------------------------------------------------------------
# Full-stack scenario on EPIC: protection reacts to a physical disturbance
# ---------------------------------------------------------------------------


def test_epic_overload_trips_ptoc_selectively(running_epic):
    """Scaling Load_SH2 far beyond nominal overloads the smart-home feeder.
    SHIED1's PTOC (fastest delay) trips CB_SH1, isolating the overload;
    the slower upstream PTOCs (GIED1/TIED2) reset once current falls —
    classic time-graded selectivity.

    Load_SH2 (not _SH1) because the scenario's load profile re-asserts
    Load_SH1's scaling every tick, by design."""
    cr = running_epic
    load_step = cr.pointdb.resolve("cmd/Load_SH2/scale")
    cr.pointdb.write_command(load_step, 12.0, writer="test")
    cr.run_for(3.0)
    trips = [t for ied in cr.ieds.values() for t in ied.engine.trips]
    assert trips, "expected at least one over-current trip"
    assert {t.fn_type for t in trips} == {"PTOC"}
    assert {t.breaker for t in trips} == {"CB_SH1"}
    assert cr.breaker_state("CB_SH1") is False
    # Upstream breakers stayed closed: the rest of the grid is healthy.
    for breaker in ("CB_G1", "CB_G2", "CB_T1", "CB_M1"):
        assert cr.breaker_state(breaker) is True
    assert cr.measurement("meas/TL1/loading") < 100.0
    assert cr.measurement(TBUS_VM) > 0.95


def test_epic_change_driven_ieds_idle_when_grid_steady(running_epic):
    """Once the grid settles, idle devices stop scanning: no input changes
    means no kernel wakes, so further simulated time adds ~zero IED scans
    while a disturbance immediately re-activates the affected devices."""
    cr = running_epic
    stats_before = cr.data_plane_stats()
    cr.run_for(2.0)
    stats_after = cr.data_plane_stats()
    ticks = stats_after["ticks"] - stats_before["ticks"]
    assert ticks >= 20  # the coupling kept ticking...
    scans = stats_after["ied_scans"] - stats_before["ied_scans"]
    # ...but a steady grid wakes almost nobody (legacy: every IED scans
    # every 20 ms — 100 scans per IED over 2 s, ~1000 total for EPIC).
    assert scans < 20 * len(cr.ieds)
    # A disturbance re-activates the data plane and still trips protection.
    load_step = cr.pointdb.resolve("cmd/Load_SH2/scale")
    cr.pointdb.write_command(load_step, 12.0, writer="test")
    cr.run_for(3.0)
    assert cr.data_plane_stats()["ied_scans"] > stats_after["ied_scans"]
    assert cr.breaker_state("CB_SH1") is False


#: The ``data_plane_stats`` names, in order: the campaign report's
#: ``data_plane_delta``, the ``sgml serve`` ``/stats`` payload and the
#: perf harness all key on them.
DATA_PLANE_NAMES = (
    "points", "present", "writes", "changed_writes", "suppressed_writes",
    "flushes", "notifications", "published_changes", "ticks",
    "tick_wall_s", "solves", "solve_skipped", "topology_rebuilds",
    "injection_rebuilds", "nr_iterations", "warm_starts",
    "warm_start_iterations", "ied_scans", "ied_wakes", "netem_sends",
    "netem_path_compiles", "netem_cache_hits", "netem_delivery_events",
    "netem_deliveries", "netem_batched_frames", "netem_mcast_pruned_sends",
    "netem_mcast_flooded_sends", "netem_crossings", "netem_cached_paths",
    "netem_forwarding_rev", "netem_forward_wall_s", "netem_deliver_wall_s",
    "netem_cut_through", "netem_multicast_prune", "netem_mcast_groups",
    "netem_mcast_members", "netem_mcast_pruned_hops",
    "netem_mcast_prune_ratio",
)


def test_data_plane_stats_names_are_pinned(running_epic):
    from repro.range.range import DATA_PLANE_KINDS

    stats = running_epic.data_plane_stats()
    assert tuple(stats) == DATA_PLANE_NAMES
    assert set(DATA_PLANE_KINDS) == set(DATA_PLANE_NAMES)
    wall = {"tick_wall_s", "netem_forward_wall_s", "netem_deliver_wall_s"}
    assert tuple(stats.deterministic()) == tuple(
        name for name in DATA_PLANE_NAMES if name not in wall
    )


def test_epic_scenario_event_gen_loss(epic_model):
    """A scenario-driven generator loss shifts output to the slack unit."""
    from repro.powersim.timeseries import ScenarioEvent
    from repro.sgml import SgmlProcessor

    epic_model.scenario.events.append(
        ScenarioEvent(time_s=1.0, action="sgen_out", target="PV1")
    )
    cr = SgmlProcessor(epic_model).compile()
    cr.start()
    cr.run_for(0.5)
    pv_before = cr.measurement("meas/PV1/p_mw")
    assert pv_before == pytest.approx(0.01, abs=1e-3)
    cr.run_for(1.0)
    assert cr.measurement("meas/PV1/p_mw") == 0.0


def test_epic_deterministic_replay(epic_model_dir):
    """Two runs from the same model produce identical trajectories."""
    from repro.sgml import SgmlModelSet, SgmlProcessor

    def run_once():
        model = SgmlModelSet.from_directory(epic_model_dir)
        cyber_range = SgmlProcessor(model).compile()
        cyber_range.start()
        cyber_range.run_for(3.0)
        return (
            cyber_range.measurement("meas/TL1/p_mw"),
            cyber_range.measurement("meas/TL1/i_ka"),
            cyber_range.simulator.processed,
        )

    assert run_once() == run_once()
