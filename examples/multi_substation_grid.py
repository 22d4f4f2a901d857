#!/usr/bin/env python3
"""Multi-substation grid: SED merging, WAN, and inter-substation protection.

Demonstrates the paper's §III-B multi-substation flow: per-substation
SSD/SCD files are merged via the SED (tie lines + WAN links), the WAN is
abstracted as a single switch, and PDIF differential protection exchanges
currents across substations over R-SV.

Run with:  python examples/multi_substation_grid.py
"""

import tempfile

from repro.epic import generate_scaleout_model
from repro.iec61850.rgoose import RSvPublisher
from repro.sgml import SgmlModelSet, SgmlProcessor
from repro.telemetry import Stopwatch


def main() -> None:
    model_dir = generate_scaleout_model(
        tempfile.mkdtemp(prefix="sgml-grid-"), substations=3, total_ieds=18
    )
    model = SgmlModelSet.from_directory(model_dir)
    cyber_range = SgmlProcessor(model).compile()
    print(f"architecture: {cyber_range.architecture_summary()}")
    print(f"subnet switches: {sorted(cyber_range.network.switches)}")

    cyber_range.start()
    cyber_range.run_for(3.0)

    print("\ninter-substation tie flows:")
    for tie in ("TIE1", "TIE2"):
        p = cyber_range.measurement(f"meas/{tie}/p_mw")
        i = cyber_range.measurement(f"meas/{tie}/i_ka")
        print(f"  {tie}: {p:7.3f} MW, {i:.4f} kA")

    pdif_ied = cyber_range.ieds["S1IED2"]
    pdif = pdif_ied._protection_by_ln["PDIF1"]
    print(f"\nPDIF at S1 end of TIE1:")
    print(f"  remote R-SV stream healthy: {pdif.remote_healthy()}")
    print(f"  differential current:       {pdif.last_differential:.5f} kA "
          f"(threshold {pdif.threshold} kA)")

    # --- attack: suppress the real remote stream and forge it --------
    print("\nattack: forge the remote end's R-SV stream (and cut the truth)")
    attacker = cyber_range.add_attacker("sw-WAN", name="wan-attacker")
    forged = RSvPublisher(attacker, "TIE1-to")
    forged.start(lambda: [9.99])
    cyber_range.network.links["S2IED3--sw-S2LAN"].set_down()
    cyber_range.run_for(2.0)
    print(f"  PDIF differential now: {pdif.last_differential:.3f} kA")
    print(f"  PDIF operated: {pdif.operated}")
    print(f"  CB_S1_TIE closed: {cyber_range.breaker_state('CB_S1_TIE')}")
    print("  → protection misoperation: the tie tripped on false data")

    for ied in cyber_range.ieds.values():
        for trip in ied.engine.trips:
            print(f"  trip log: {trip.describe()}")

    # --- quick scalability sanity check ------------------------------
    print("\nwall-clock cost of one simulated second at this scale:")
    with Stopwatch() as clock:
        cyber_range.run_for(1.0)
    print(f"  {clock.seconds:.3f} s "
          "(< 1.0 → real-time capable, cf. paper §IV-A)")


if __name__ == "__main__":
    main()
