"""Incremental solver: revision counters, cache invalidation, warm starts.

The contract under test: every mutation path that can change the physics
must trigger a fresh solve whose results match a cold
:func:`run_power_flow` to well below 1e-9, and a tick with no changes must
skip the solve entirely.
"""

import pytest

from repro.epic import generate_scaleout_model
from repro.pointdb import PointRegistry
from repro.powersim import (
    LoadProfile,
    Network,
    ProfilePoint,
    ScenarioEvent,
    SimulationScenario,
    SolverSession,
    TimeSeriesRunner,
    run_power_flow,
)
from repro.range.cosim import PowerCoupling
from repro.sgml import SgmlModelSet, SgmlProcessor

TOL = 1e-9


def _rich_net() -> Network:
    """Two substations with every element kind and both switch types."""
    net = Network("session-test")
    a = net.add_bus("A", 110.0)
    b = net.add_bus("B", 110.0)
    c = net.add_bus("C", 20.0)
    d = net.add_bus("D", 110.0)
    net.add_ext_grid("grid", a, vm_pu=1.01)
    net.add_line("L1", a, b, r_ohm=0.5, x_ohm=2.0, max_i_ka=0.5)
    net.add_line("L2", b, d, r_ohm=0.4, x_ohm=1.5, max_i_ka=0.5)
    net.add_transformer("T1", b, c, sn_mva=25.0)
    net.add_load("ld1", c, p_mw=8.0, q_mvar=2.0)
    net.add_load("ld2", d, p_mw=5.0, q_mvar=1.0)
    net.add_gen("G1", d, p_mw=3.0, vm_pu=1.02)
    net.add_sgen("pv1", c, p_mw=2.0)
    net.add_shunt("sh1", b, q_mvar=1.0)
    net.add_switch_bus_bus("CB1", a, b, closed=False)  # bypass, normally open
    net.add_switch_bus_line("LS1", a, 0, closed=True)
    return net


def assert_results_match(got, want, vm_tol=TOL, qty_tol=1e-7):
    """Two snapshots describe the same operating point.

    ``vm_tol`` is the acceptance bar on per-unit voltage magnitude;
    degree/MW/kA-scale quantities get ``qty_tol`` absolute plus 5e-8
    relative (two independently converged solves at mismatch tol 1e-10
    agree to ~7.5 significant digits).
    """
    assert got.converged and want.converged
    assert set(got.buses) == set(want.buses)
    for name, bus in want.buses.items():
        other = got.buses[name]
        assert other.energized == bus.energized, name
        assert other.vm_pu == pytest.approx(bus.vm_pu, abs=vm_tol), name
        assert other.va_degree == pytest.approx(bus.va_degree, abs=qty_tol, rel=5e-8), name
        assert other.p_mw == pytest.approx(bus.p_mw, abs=qty_tol, rel=5e-8), name
        assert other.q_mvar == pytest.approx(bus.q_mvar, abs=qty_tol, rel=5e-8), name
    for table in ("lines", "transformers"):
        for name, flow in getattr(want, table).items():
            other = getattr(got, table)[name]
            assert other.in_service == flow.in_service, name
            for fieldname in (
                "p_from_mw",
                "q_from_mvar",
                "p_to_mw",
                "q_to_mvar",
                "i_from_ka",
                "i_to_ka",
                "loading_percent",
            ):
                assert getattr(other, fieldname) == pytest.approx(
                    getattr(flow, fieldname), abs=qty_tol, rel=5e-8
                ), (name, fieldname)
    assert got.slack_p_mw == pytest.approx(want.slack_p_mw, abs=qty_tol, rel=5e-8)
    assert got.slack_q_mvar == pytest.approx(want.slack_q_mvar, abs=qty_tol, rel=5e-8)
    assert got.total_load_mw == pytest.approx(want.total_load_mw, abs=qty_tol, rel=5e-8)


# ---------------------------------------------------------------------------
# Revision counters
# ---------------------------------------------------------------------------


def test_topology_rev_tracks_switch_and_service_mutations():
    net = _rich_net()
    rev = net.topology_rev
    net.set_switch("CB1", True)
    assert net.topology_rev == rev + 1
    net.set_switch("CB1", True)  # no-op write
    assert net.topology_rev == rev + 1
    net.find_line("L1").in_service = False
    net.find_gen("G1").in_service = False
    net.find_sgen("pv1").in_service = False
    net.buses[3].in_service = False
    net.transformers[0].tap_pos = 2
    assert net.topology_rev == rev + 6
    assert net.injection_rev == 0


def test_injection_rev_tracks_setpoint_mutations():
    net = _rich_net()
    rev = net.injection_rev
    topo = net.topology_rev
    net.find_load("ld1").scaling = 1.4
    net.find_sgen("pv1").p_mw = 3.0
    net.find_gen("G1").vm_pu = 1.03
    net.ext_grids[0].vm_pu = 1.0
    assert net.injection_rev == rev + 4
    net.find_load("ld1").scaling = 1.4  # no-op write
    assert net.injection_rev == rev + 4
    assert net.topology_rev == topo


def test_adding_elements_bumps_topology():
    net = _rich_net()
    rev = net.topology_rev
    net.add_load("ld3", 1, p_mw=1.0)
    assert net.topology_rev > rev


# ---------------------------------------------------------------------------
# Cache invalidation: every mutation path produces a fresh matching solve
# ---------------------------------------------------------------------------

MUTATIONS = {
    "set_switch_close": lambda net: net.set_switch("CB1", True),
    "set_switch_open": lambda net: net.set_switch("LS1", False),
    "line_service": lambda net: setattr(net.find_line("L2"), "in_service", False),
    "gen_service": lambda net: setattr(net.find_gen("G1"), "in_service", False),
    "sgen_service": lambda net: setattr(net.find_sgen("pv1"), "in_service", False),
    "scale_load": lambda net: setattr(net.find_load("ld1"), "scaling", 1.6),
    "load_setpoint": lambda net: setattr(net.find_load("ld2"), "p_mw", 7.0),
    "gen_setpoint": lambda net: setattr(net.find_gen("G1"), "vm_pu", 1.0),
    "grid_setpoint": lambda net: setattr(net.ext_grids[0], "vm_pu", 0.99),
    "tap_change": lambda net: setattr(net.transformers[0], "tap_pos", -2),
    "bus_service": lambda net: setattr(net.buses[3], "in_service", False),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_invalidates_and_matches_cold_solve(name):
    net = _rich_net()
    session = SolverSession(net)
    session.solve()  # prime every cache layer
    count = session.solve_count
    MUTATIONS[name](net)
    fresh = session.solve()
    assert session.solve_count == count + 1
    assert_results_match(fresh, run_power_flow(net))


def test_event_paths_invalidate_through_runner():
    net = _rich_net()
    scenario = SimulationScenario(
        events=[
            ScenarioEvent(time_s=1.0, action="line_out", target="L2"),
            ScenarioEvent(time_s=2.0, action="gen_out", target="G1"),
            ScenarioEvent(time_s=3.0, action="sgen_out", target="pv1"),
            ScenarioEvent(time_s=4.0, action="scale_load", target="ld1", value=0.7),
            ScenarioEvent(time_s=5.0, action="open_switch", target="LS1"),
            ScenarioEvent(time_s=6.0, action="close_switch", target="LS1"),
        ]
    )
    runner = TimeSeriesRunner(net, scenario)
    for step_time in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5):
        got = runner.step(step_time)
        assert_results_match(got, run_power_flow(net))
    # Six events, plus the initial solve; no extra solves in between.
    assert runner.solve_count == 7
    assert runner.solve_skipped == 0


def test_steady_state_step_skips_solve():
    net = _rich_net()
    runner = TimeSeriesRunner(net)
    first = runner.step(0.1)
    for tick in range(2, 12):
        assert runner.step(tick * 0.1) is first
    assert runner.solve_count == 1
    assert runner.solve_skipped == 10
    # A real change ends the fast path.
    net.find_load("ld1").scaling = 1.2
    fresh = runner.step(1.2)
    assert fresh is not first
    assert runner.solve_count == 2
    assert_results_match(fresh, run_power_flow(net))


def test_profile_step_triggers_fresh_solve():
    net = _rich_net()
    scenario = SimulationScenario(
        profiles=[
            LoadProfile(
                target="ld1",
                points=[ProfilePoint(0.0, 1.0), ProfilePoint(2.0, 1.5)],
            )
        ]
    )
    runner = TimeSeriesRunner(net, scenario)
    runner.step(0.5)
    runner.step(1.0)  # profile value unchanged — fast path
    assert runner.solve_count == 1
    assert runner.solve_skipped == 1
    stepped = runner.step(2.5)  # profile stepped to 1.5
    assert runner.solve_count == 2
    assert net.find_load("ld1").scaling == 1.5
    assert_results_match(stepped, run_power_flow(net))


def test_ied_breaker_command_invalidates_through_coupling():
    net = _rich_net()
    pointdb = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), pointdb)
    ls1 = pointdb.resolve("cmd/LS1/close")
    coupling.tick(0.0)
    solves = coupling.runner.solve_count
    coupling.tick(0.1)  # steady tick: no solve
    assert coupling.runner.solve_count == solves
    pointdb.write_command(ls1, False, writer="ied")
    result = coupling.tick(0.2)
    assert coupling.runner.solve_count == solves + 1
    assert not net.find_switch("LS1").closed
    assert_results_match(result, run_power_flow(net))
    # Re-asserting the same position is suppressed by the tracked write.
    pointdb.write_command(ls1, False, writer="ied")
    coupling.tick(0.3)
    assert coupling.runner.solve_count == solves + 1
    # A switch added after the coupling was built is still commandable
    # (the name cache falls back to the live table).
    net.add_switch_bus_bus("CB_LATE", 0, 3, closed=False)
    late = pointdb.resolve("cmd/CB_LATE/close")
    pointdb.write_command(late, True, writer="ied")
    coupling.tick(0.4)
    assert net.find_switch("CB_LATE").closed
    assert "cmd/CB_LATE/close" not in coupling.unknown_commands


def test_diverged_warm_start_retries_cold():
    net = _rich_net()
    session = SolverSession(net)
    session.solve()
    # An extreme injection change makes the warm start worthless; the
    # session must fall back to a cold start transparently when that
    # cold start can still converge.
    net.find_load("ld1").scaling = 0.0
    net.find_load("ld2").scaling = 0.0
    result = session.solve()
    assert_results_match(result, run_power_flow(net))


def test_grid_share_reallocates_on_topology_change():
    net = Network("two-grids")
    a = net.add_bus("A", 110.0)
    b = net.add_bus("B", 110.0)
    net.add_ext_grid("g1", a, vm_pu=1.0)
    net.add_ext_grid("g2", b, vm_pu=1.0)
    net.add_line("L", a, b, r_ohm=0.5, x_ohm=2.0)
    net.add_load("ld", b, p_mw=10.0)
    pointdb = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), pointdb)
    result = coupling.tick(0.0)
    share = pointdb.get("meas/g1/p_mw")
    assert share == pytest.approx(result.slack_p_mw / 2)
    assert pointdb.get("meas/g2/p_mw") == pytest.approx(share)
    net.ext_grids[1].in_service = False  # topology bump → cache refresh
    result = coupling.tick(0.1)
    assert pointdb.get("meas/g1/p_mw") == pytest.approx(result.slack_p_mw)
    assert pointdb.get("meas/g2/p_mw") == 0.0


# ---------------------------------------------------------------------------
# LoadProfile sort cache
# ---------------------------------------------------------------------------


def test_profile_cache_invalidated_by_append():
    profile = LoadProfile(target="ld", points=[ProfilePoint(0.0, 1.0)])
    assert profile.value_at(10.0) == 1.0
    profile.points.append(ProfilePoint(5.0, 2.0))  # direct append
    assert profile.value_at(10.0) == 2.0
    profile.add_point(2.0, 1.5)  # out-of-order append, re-sorted lazily
    assert profile.value_at(3.0) == 1.5
    assert [p.time_s for p in profile.sorted_points()] == [0.0, 2.0, 5.0]


def test_profile_cache_invalidated_by_in_place_replacement():
    profile = LoadProfile(
        target="ld", points=[ProfilePoint(0.0, 1.0), ProfilePoint(5.0, 2.0)]
    )
    assert profile.value_at(6.0) == 2.0
    profile.points[1] = ProfilePoint(5.0, 3.0)  # in-place, same length
    assert profile.value_at(6.0) == 3.0  # identity fingerprint catches it
    profile.points.pop()
    assert profile.value_at(6.0) == 1.0


# ---------------------------------------------------------------------------
# Warm-start == cold-start property across the scale-out models
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaleout_nets(tmp_path_factory):
    """Power networks of the 1..5 substation scale-out models."""
    nets = {}
    for substations in range(1, 6):
        directory = tmp_path_factory.mktemp(f"warmcold-{substations}")
        generate_scaleout_model(
            str(directory), substations=substations, total_ieds=3 * substations
        )
        model = SgmlModelSet.from_directory(str(directory))
        nets[substations] = SgmlProcessor(model).compile().power_net
    return nets


@pytest.mark.parametrize("substations", [1, 2, 3, 4, 5])
def test_warm_start_matches_cold_start(scaleout_nets, substations):
    net = scaleout_nets[substations]
    session = SolverSession(net)
    session.solve()

    def check():
        warm = session.solve()
        cold = run_power_flow(net)
        worst = max(
            abs(warm.buses[name].vm_pu - cold.buses[name].vm_pu)
            for name in cold.buses
        )
        assert worst < 1e-9, f"max |dVm| {worst:.2e}"
        assert_results_match(warm, cold)

    # Injection-only perturbations (warm-start path).
    for load in net.loads:
        load.scaling = 1.25
    check()
    for load in net.loads:
        load.scaling = 0.8
    check()
    # Topology perturbation and restoration (rebuild, then warm again).
    breaker = net.switches[0].name
    net.set_switch(breaker, False)
    check()
    net.set_switch(breaker, True)
    check()
    for load in net.loads:
        load.scaling = 1.0
    check()
    assert session.warm_starts >= 1
    assert session.topology_rebuilds >= 2
