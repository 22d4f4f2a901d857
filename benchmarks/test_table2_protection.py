"""Table II — protection functions on the virtual IED.

One bench per logical-node class.  Each drives the function across its
threshold on a live EPIC (or scale-out) range and reports the trip
behaviour the paper's table describes, timing the protection-scan path.
"""

import pytest
from conftest import print_report

from repro.ied.protection import Cilo, Pdif, ProtectionEngine, Ptoc, Ptov, Ptuv


def test_table2_ptoc(benchmark, epic_range):
    """PTOC: 'Opens a circuit breaker when power flow exceeds threshold.'"""
    cr = epic_range
    cr.start()
    cr.run_for(2.0)
    # Overload the smart-home feeder (12x nominal) → SHIED1 PTOC trips.
    load_step = cr.pointdb.resolve("cmd/Load_SH2/scale")
    cr.pointdb.write_command(load_step, 12.0, writer="bench")

    def run_until_trip():
        cr.run_for(1.0)
        return [t for i in cr.ieds.values() for t in i.engine.trips]

    trips = benchmark.pedantic(run_until_trip, rounds=1, iterations=1)
    assert trips and trips[0].fn_type == "PTOC"
    trip = trips[0]
    print_report(
        "Table II / PTOC (time over-current)",
        [
            "paper: threshold 'generally 3 to 4 times the nominal current'",
            f"configured: {trip.threshold:.2f} kA vs nominal ~0.02 kA on SHL1",
            f"measured trip: {trip.describe()}",
            f"breaker {trip.breaker} now closed="
            f"{cr.breaker_state(trip.breaker)}",
        ],
    )
    assert cr.breaker_state(trip.breaker) is False


def test_table2_ptov_ptuv(benchmark):
    """PTOV / PTUV: voltage thresholds on a bus (pure-engine timing)."""
    voltage = [1.0]
    engine = ProtectionEngine("bench")
    engine.add(Ptov("PTOV1", "CB1", 1.10, 100, lambda: voltage[0]))
    engine.add(Ptuv("PTUV1", "CB1", 0.85, 100, lambda: voltage[0]))

    def scan_sequence():
        for function in engine.functions:
            function.started = False
            function.operated = False
            function._start_time_us = None
        events = []
        voltage[0] = 1.2  # over-voltage
        events += engine.evaluate(0)
        events += engine.evaluate(150_000)
        voltage[0] = 0.7  # under-voltage
        events += engine.evaluate(300_000)
        events += engine.evaluate(500_000)
        return events

    events = benchmark(scan_sequence)
    kinds = [event.fn_type for event in events]
    print_report(
        "Table II / PTOV + PTUV (over/under-voltage)",
        [
            "paper: trip when bus voltage exceeds / goes below threshold",
            f"sequence 1.2 pu → trip {kinds[0]} at threshold 1.10",
            f"sequence 0.7 pu → trip {kinds[1]} at threshold 0.85",
        ],
    )
    assert kinds == ["PTOV", "PTUV"]


def test_table2_pdif(benchmark):
    """PDIF: differential between two substations' measurements."""
    local, remote, healthy = [1.0], [1.0], [True]
    pdif = Pdif(
        "PDIF1", "CB_TIE", threshold=0.2, delay_ms=0,
        measure=lambda: local[0], remote=lambda: remote[0],
        remote_healthy=lambda: healthy[0],
    )

    def fault_sequence():
        pdif.started = pdif.operated = False
        pdif._start_time_us = None
        balanced = pdif.evaluate(0)
        remote[0] = 0.4  # internal fault: currents diverge
        fault = pdif.evaluate(1)
        remote[0] = 1.0
        return balanced, fault

    balanced, fault = benchmark(fault_sequence)
    print_report(
        "Table II / PDIF (differential protection)",
        [
            "paper: trip when 'current measurements at the 2 connected "
            "substations are different beyond the threshold'",
            f"balanced |1.0-1.0|=0.0 < 0.2 → trip={balanced is not None}",
            f"fault    |1.0-0.4|=0.6 > 0.2 → trip={fault is not None}",
        ],
    )
    assert balanced is None and fault is not None


def test_table2_pdif_channel_blocking(benchmark):
    """PDIF blocks when the R-SV channel is stale (no remote data)."""
    healthy = [False]
    pdif = Pdif(
        "PDIF1", "CB_TIE", threshold=0.2, delay_ms=0,
        measure=lambda: 9.0, remote=lambda: 0.0,
        remote_healthy=lambda: healthy[0],
    )
    result = benchmark(pdif.evaluate, 0)
    print_report(
        "Table II / PDIF channel supervision",
        [f"stale remote stream → blocked (trip={result is not None})"],
    )
    assert result is None


def test_table2_cilo(benchmark, epic_range):
    """CILO: 'Prevents a CB to be closed when a certain CB is open.'"""
    cr = epic_range
    cr.start()
    cr.run_for(2.0)
    gied1, gied2 = cr.ieds["GIED1"], cr.ieds["GIED2"]
    gied1.operate_breaker("CB_G1", close=False, source="bench")
    gied2.operate_breaker("CB_G2", close=False, source="bench")
    cr.run_for(2.0)

    blocked = benchmark.pedantic(
        lambda: gied2.operate_breaker("CB_G2", close=True, source="bench"),
        rounds=1, iterations=1,
    )
    gied1.operate_breaker("CB_G1", close=True, source="bench")
    cr.run_for(2.0)
    permitted = gied2.operate_breaker("CB_G2", close=True, source="bench")
    print_report(
        "Table II / CILO (interlocking)",
        [
            "interlock: CB_G2 may close only while CB_G1 is closed "
            "(generator paralleling order)",
            f"CB_G1 open   → close CB_G2 permitted={blocked}",
            f"CB_G1 closed → close CB_G2 permitted={permitted}",
        ],
    )
    assert blocked is False and permitted is True
