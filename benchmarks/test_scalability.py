"""§IV-A scalability — 5 substations / 104 IEDs @ 100 ms interval.

Paper: "a commodity desktop PC with Intel Core i9 Processor and 16GB RAM
can host a 5-substation model including 104 virtual IEDs with 100ms power
flow simulation interval."

The bench sweeps 1..5 substations (21..104 IEDs, the paper's scale) and
extrapolates to 10 and 20 substations (208/416 IEDs, the ROADMAP's
target), measuring the wall-clock cost of one simulated second of the full
co-simulation (power flow ticks + all IED scan cycles + GOOSE/R-SV
traffic).  Feasibility criterion: one simulated second must cost at most
one wall second — i.e. the range keeps up with real time, which is what
"hosting at 100 ms interval" means.

Three cost metrics go into ``BENCH_scalability.json`` per point (full
schema: ``benchmarks/README.md``):

* ``wall_per_sim_s`` — wall seconds per simulated second for the *whole*
  range (co-simulation tick + IED/PLC/SCADA traffic).  This is the paper's
  feasibility number.
* ``per_tick_ms`` — the directly measured mean cost of one power-flow tick
  (command drain + solve-or-skip + publish), timed inside
  :class:`~repro.range.cosim.PowerCoupling`.  Since the incremental solver
  landed, a steady-state tick is a revision-counter compare plus the
  delta-suppressed publish; ``solve_skipped`` / ``solves`` records how many
  ticks took the fast path and ``mean_nr_iterations`` the Newton-Raphson
  cost of the ticks that did solve.
* ``netem_share_of_wall`` — the cut-through forwarding plane's transport
  wall time (path resolution + inline hop semantics + delivery-event
  scheduling) as a share of ``wall_per_sim_s``; endpoint protocol
  processing is reported separately as ``netem_deliver_wall_s`` and
  ``netem_deliver_share_of_wall``.  With subscription-aware multicast
  pruning, the 5-substation point asserts both shares stay below 20%
  (netem frame delivery was ~85% of wall before the cut-through plane,
  and endpoint flood processing ~42% before pruning) and that
  ``netem_deliveries`` dropped ~10× versus the flood baseline.

The event-storm point (``5_event_storm``) re-runs the 5-substation model
with a tie breaker toggling every tick, forcing a topology rebuild + cold
solve per tick — the worst case for the cache layers — and must stay
real-time feasible and within 2x the seed solver's steady-state tick cost.

Results are persisted to ``BENCH_scalability.json`` by the conftest
session-finish hook when ``BENCH_RECORD=1`` is set.
"""

import os

import pytest
from conftest import SCALABILITY_RESULTS, print_report, record_scalability_result

from repro.kernel import MS
from repro.sgml import SgmlModelSet, SgmlProcessor

#: Smoke mode (CI): sweep only the 1-2 substation points so the bench
#: finishes in seconds while still exercising the full co-simulation path
#: and emitting a (partial, merged) BENCH_scalability.json.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Tentpole acceptance bar: steady-state power-flow tick cost at the
#: paper's full scale (5 substations / 104 IEDs), milliseconds.
STEADY_TICK_BUDGET_MS = 2.0

#: Event-storm bar: 2x the seed solver's committed steady-state per-tick
#: cost (13.65 ms at 5 substations) — a full rebuild every tick must not
#: regress past what the non-incremental solver spent per tick.
STORM_TICK_BUDGET_MS = 27.3

#: Multicast-pruning acceptance at 5 substations: the flood baseline
#: delivered ~56.8k frames×receivers per 3 simulated seconds (552 sends ×
#: ~103 receivers); pruning must cut that at least ~10×.
PRUNED_DELIVERIES_BUDGET = 5700

#: Netem wall-share bars at 5 substations (was <50% transport post
#: cut-through; pruning halves both transport and endpoint cost).
NETEM_SHARE_BUDGET = 0.20
NETEM_DELIVER_SHARE_BUDGET = 0.20


#: Simulated seconds executed by one pedantic run (rounds × 1 s).
_BENCH_ROUNDS = 3


def _measure(cyber_range, benchmark):
    """Run the benchmark and derive both cost metrics + solver stats."""
    coupling = cyber_range.coupling
    wall_before = coupling.tick_wall_s
    ticks_before = coupling.tick_count
    before = cyber_range.data_plane_stats()
    events_before = cyber_range.simulator.processed

    def one_simulated_second():
        cyber_range.run_for(1.0)

    benchmark.pedantic(one_simulated_second, rounds=_BENCH_ROUNDS, iterations=1)
    ticks = coupling.tick_count - ticks_before
    tick_ms = (coupling.tick_wall_s - wall_before) * 1000.0 / max(1, ticks)
    stats = cyber_range.data_plane_stats()
    solves = stats["solves"]
    wall = benchmark.stats.stats.mean
    # Netem attribution, per simulated second: the forwarding walk (path
    # resolution + inline hop semantics + event scheduling) is the netem
    # *transport* cost; terminal delivery includes the virtual hosts'
    # protocol stacks and is reported separately (see benchmarks/README.md).
    forward_wall = (
        stats["netem_forward_wall_s"] - before["netem_forward_wall_s"]
    ) / _BENCH_ROUNDS
    deliver_wall = (
        stats["netem_deliver_wall_s"] - before["netem_deliver_wall_s"]
    ) / _BENCH_ROUNDS
    return {
        "ieds": len(cyber_range.ieds),
        "wall_per_sim_s": wall,
        "per_tick_ms": tick_ms,
        "sim_interval_ms": cyber_range.sim_interval_ms,
        "registry_points": stats["points"],
        "suppressed_writes": stats["suppressed_writes"],
        "changed_writes": stats["changed_writes"],
        "ied_scans": stats["ied_scans"],
        "solves": solves,
        "solve_skipped": stats["solve_skipped"],
        "mean_nr_iterations": stats["nr_iterations"] / max(1, solves),
        "warm_starts": stats["warm_starts"],
        "kernel_events_per_sim_s": (
            (cyber_range.simulator.processed - events_before) / _BENCH_ROUNDS
        ),
        "netem_sends": stats["netem_sends"] - before["netem_sends"],
        "netem_delivery_events": (
            stats["netem_delivery_events"] - before["netem_delivery_events"]
        ),
        "netem_deliveries": (
            stats["netem_deliveries"] - before["netem_deliveries"]
        ),
        "netem_batched_frames": (
            stats["netem_batched_frames"] - before["netem_batched_frames"]
        ),
        "netem_mcast_pruned_sends": (
            stats["netem_mcast_pruned_sends"]
            - before["netem_mcast_pruned_sends"]
        ),
        "netem_mcast_flooded_sends": (
            stats["netem_mcast_flooded_sends"]
            - before["netem_mcast_flooded_sends"]
        ),
        "netem_mcast_prune_ratio": stats["netem_mcast_prune_ratio"],
        "netem_mcast_groups": stats["netem_mcast_groups"],
        "netem_cache_hits": (
            stats["netem_cache_hits"] - before["netem_cache_hits"]
        ),
        "netem_path_compiles": (
            stats["netem_path_compiles"] - before["netem_path_compiles"]
        ),
        "netem_forward_wall_s": forward_wall,
        "netem_deliver_wall_s": deliver_wall,
        "netem_share_of_wall": forward_wall / wall if wall else 0.0,
        "netem_deliver_share_of_wall": deliver_wall / wall if wall else 0.0,
    }


@pytest.mark.parametrize("substations", [1, 2, 3, 4, 5, 10, 20])
def test_scalability_sweep(benchmark, scaleout_dirs, substations):
    if SMOKE and substations > 2:
        pytest.skip("BENCH_SMOKE: sweep limited to 1-2 substations")
    model = SgmlModelSet.from_directory(scaleout_dirs[substations])
    cyber_range = SgmlProcessor(model).compile()
    cyber_range.start()
    cyber_range.run_for(1.0)  # warm-up: associations, GOOSE bursts

    result = _measure(cyber_range, benchmark)
    record_scalability_result(substations, result)
    wall = result["wall_per_sim_s"]
    ied_count = result["ieds"]

    # Feasibility at every scale point (the paper claims it at 5/104).
    assert wall < 1.0, (
        f"{substations} substations / {ied_count} IEDs: "
        f"{wall:.2f}s wall per simulated second (not real-time capable)"
    )
    # Delta data plane: the steady-state sweep re-publishes almost nothing —
    # unchanged values are suppressed inside the registry write path.
    assert result["suppressed_writes"] > result["changed_writes"], (
        f"delta suppression inactive: {result}"
    )
    # Incremental solver: after boot, a steady-state tick never solves.
    assert result["solve_skipped"] > result["solves"], (
        f"skip-solve fast path inactive: {result}"
    )
    # Cut-through plane: the path cache must serve the steady-state sweep
    # (compiles only while MAC tables/ARP caches settle, hits afterwards).
    assert result["netem_cache_hits"] > result["netem_path_compiles"], (
        f"forwarding path cache inactive: {result}"
    )
    # Multicast pruning: every GOOSE/R-SV send hits a registered group
    # (the compiler registers all publisher groups), so nothing floods.
    assert result["netem_mcast_flooded_sends"] == 0, (
        f"multicast sends escaped the group table: {result}"
    )
    if substations == 5:
        assert ied_count == 104
        assert result["per_tick_ms"] <= STEADY_TICK_BUDGET_MS, (
            f"steady-state tick {result['per_tick_ms']:.3f} ms exceeds the "
            f"{STEADY_TICK_BUDGET_MS} ms budget"
        )
        # Tentpole acceptance: with subscription-aware pruning, netem
        # transport AND endpoint processing each stay below 20% of wall
        # (transport was ~40% post-cut-through, endpoint ~26%).
        assert result["netem_share_of_wall"] < NETEM_SHARE_BUDGET, (
            f"netem transport share "
            f"{result['netem_share_of_wall']:.2%} >= "
            f"{NETEM_SHARE_BUDGET:.0%}: {result}"
        )
        assert (
            result["netem_deliver_share_of_wall"] < NETEM_DELIVER_SHARE_BUDGET
        ), (
            f"netem endpoint share "
            f"{result['netem_deliver_share_of_wall']:.2%} >= "
            f"{NETEM_DELIVER_SHARE_BUDGET:.0%}: {result}"
        )
        # "Kill the flood": deliveries collapse from ~103 receivers per
        # multicast frame to actual subscribers only (~10× or better).
        assert result["netem_deliveries"] <= PRUNED_DELIVERIES_BUDGET, (
            f"netem_deliveries {result['netem_deliveries']} exceeds the "
            f"pruned budget {PRUNED_DELIVERIES_BUDGET} "
            f"(flood baseline was ~56856): {result}"
        )
        rows = [
            "paper: 5 substations / 104 IEDs @ 100 ms on a desktop PC",
            "substations  IEDs  wall-s per sim-s   tick-ms   netem-share",
        ]
        for count in sorted(SCALABILITY_RESULTS, key=str):
            result_row = SCALABILITY_RESULTS[count]
            if not all(
                key in result_row
                for key in ("ieds", "wall_per_sim_s", "per_tick_ms")
            ):
                continue  # points recorded by other bench files
            rows.append(
                f"{count!s:^11}  {result_row['ieds']:>4}  "
                f"{result_row['wall_per_sim_s']:>14.3f}   "
                f"{result_row['per_tick_ms']:>7.3f}   "
                f"{result_row.get('netem_share_of_wall', 0.0):>10.1%}"
            )
        feasible = SCALABILITY_RESULTS[5]["wall_per_sim_s"] < 1.0
        rows.append(
            f"5-substation/104-IED real-time feasible: {feasible} "
            f"(paper: yes)"
        )
        rows.append(
            f"deliveries/3 sim-s: {result['netem_deliveries']} "
            f"(flood baseline ~56856), prune ratio "
            f"{result['netem_mcast_prune_ratio']:.0%}, batched frames "
            f"{result['netem_batched_frames']}"
        )
        print_report("§IV-A / scalability sweep", rows)


def test_event_storm_topology_rebuild(benchmark, scaleout_dirs):
    """Breaker events every tick: the cache-rebuild worst case.

    A tie breaker toggles once per power-flow interval, so every tick pays
    bus refusion + branch rebuild + Ybus + a cold Newton-Raphson solve.
    The point proves the incremental layers did not slow down the path
    that cannot be cached.
    """
    if SMOKE:
        pytest.skip("BENCH_SMOKE: event-storm point runs in the full sweep")
    model = SgmlModelSet.from_directory(scaleout_dirs[5])
    cyber_range = SgmlProcessor(model).compile()
    cyber_range.start()
    cyber_range.run_for(1.0)

    breaker = "CB_S5_TIEIN"  # islands substation 5; both states converge
    state = [True]

    def toggle():
        state[0] = not state[0]
        cyber_range.power_net.set_switch(breaker, state[0])

    interval = int(cyber_range.sim_interval_ms * MS)
    task = cyber_range.simulator.every(interval, toggle, label="event-storm")
    try:
        result = _measure(cyber_range, benchmark)
    finally:
        task.stop()
    record_scalability_result("5_event_storm", result)

    assert result["wall_per_sim_s"] < 1.0, "event storm not real-time capable"
    assert result["per_tick_ms"] <= STORM_TICK_BUDGET_MS, (
        f"storm tick {result['per_tick_ms']:.3f} ms exceeds 2x the seed "
        f"solver's steady-state cost ({STORM_TICK_BUDGET_MS} ms)"
    )
    # Every tick re-solved: the storm defeats the fast path by design.
    assert result["solves"] > result["solve_skipped"]
    print_report(
        "§IV-A / event storm (breaker toggles every tick, 5 substations)",
        [
            f"wall-s per sim-s: {result['wall_per_sim_s']:.3f}",
            f"tick cost: {result['per_tick_ms']:.3f} ms "
            f"(budget {STORM_TICK_BUDGET_MS} ms)",
            f"solves: {result['solves']}  skipped: {result['solve_skipped']}  "
            f"mean NR iterations: {result['mean_nr_iterations']:.2f}",
        ],
    )
