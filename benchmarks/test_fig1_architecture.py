"""Fig. 1 — typical smart grid cyber range architecture.

The figure shows: SCADA HMI + PLCs + IEDs on an emulated network (cyber
side), a power-flow simulator (physical side), and a realtime-ish interface
between them.  The bench instantiates the full EPIC range and verifies each
architectural component exists and is *connected* (traffic and coupling
actually flow), timing a complete co-simulation second.
"""

from conftest import print_report


def test_fig1_architecture_components(benchmark, epic_range):
    cr = epic_range
    cr.start()

    benchmark.pedantic(cr.run_for, args=(1.0,), rounds=3, iterations=1)

    summary = cr.architecture_summary()
    hmi = cr.hmis["SCADA1"]
    plc = cr.plcs["CPLC"]
    rows = [
        "paper Fig. 1 component → this build",
        f"SCADA HMI          → {summary['hmis']} (polls={hmi.poll_count})",
        f"PLC                → {summary['plcs']} (scans={plc.scan_count}, "
        f"MMS writes={plc.mms_write_count})",
        f"virtual IEDs       → {summary['ieds']}",
        f"emulated network   → {summary['hosts']} hosts / "
        f"{summary['switches']} switches / {summary['links']} links",
        f"power simulation   → {summary['buses']} buses, "
        f"{cr.coupling.tick_count} snapshots (100 ms interval)",
        f"coupling interface → {len(cr.pointdb)} point-db keys, "
        f"{len(cr.pointdb.command_history)} command writes",
    ]
    print_report("Fig. 1 / cyber range architecture", rows)

    assert summary["hmis"] == 1
    assert summary["plcs"] == 1
    assert summary["ieds"] == 8
    assert hmi.poll_count > 0
    assert plc.scan_count > 0
    assert cr.coupling.tick_count > 10
    # The interface is bidirectional: measurements out, commands in.
    assert len(cr.pointdb.keys("meas/")) > 20
    assert len(cr.pointdb.keys("status/")) == 5
