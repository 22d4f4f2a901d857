"""Virtual IED: data model from ICD, protection functions, device runtime."""

import pytest

from repro.kernel import MS, SECOND, Simulator
from repro.netem import VirtualNetwork
from repro.pointdb import PointRegistry
from repro.scl import parse_scl
from repro.iec61850 import MmsClient, MmsError
from repro.ied import (
    Cilo,
    IedDataModel,
    IedRuntimeConfig,
    Pdif,
    PointMapping,
    ProtectionEngine,
    ProtectionSettings,
    Ptoc,
    Ptov,
    Ptuv,
    VirtualIed,
)
from repro.ied.config import GooseLinkConfig
from repro.ied.datamodel import DataModelError

ICD = """
<SCL>
  <Header id="x"/>
  <IED name="IED1">
    <AccessPoint name="AP1"><Server>
      <LDevice inst="LD0">
        <LN0 lnClass="LLN0" inst=""/>
        <LN lnClass="MMXU" inst="1"/>
        <LN lnClass="XCBR" inst="1"/>
        <LN lnClass="PTOC" inst="1"/>
        <LN lnClass="CILO" inst="1"/>
      </LDevice>
    </Server></AccessPoint>
  </IED>
</SCL>
"""


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


def test_model_instantiates_class_content():
    model = IedDataModel.from_icd(parse_scl(ICD).ieds[0])
    assert model.ldevices == ["IED1LD0"]
    assert model.read("IED1LD0/XCBR1.Pos.stVal") is True
    assert model.read("IED1LD0/MMXU1.TotW.mag.f") == 0.0
    assert model.read("IED1LD0/PTOC1.Op.general") is False
    assert model.ln_classes() >= {"LLN0", "MMXU", "XCBR", "PTOC", "CILO"}


def test_model_typed_writes():
    model = IedDataModel.from_icd(parse_scl(ICD).ieds[0])
    model.write("IED1LD0/MMXU1.TotW.mag.f", "3.5")
    assert model.read("IED1LD0/MMXU1.TotW.mag.f") == 3.5
    model.write("IED1LD0/XCBR1.Pos.stVal", 0)
    assert model.read("IED1LD0/XCBR1.Pos.stVal") is False


def test_model_unknown_reference():
    model = IedDataModel.from_icd(parse_scl(ICD).ieds[0])
    with pytest.raises(DataModelError):
        model.read("IED1LD0/GONE1.X.y")
    with pytest.raises(DataModelError):
        model.write("IED1LD0/GONE1.X.y", 1)


def test_model_dai_initial_values_applied():
    icd = ICD.replace(
        '<LN lnClass="XCBR" inst="1"/>',
        '<LN lnClass="XCBR" inst="1"><DOI name="Pos">'
        '<DAI name="stVal"><Val>false</Val></DAI></DOI></LN>',
    )
    model = IedDataModel.from_icd(parse_scl(icd).ieds[0])
    assert model.read("IED1LD0/XCBR1.Pos.stVal") is False


def test_model_find_ln_and_references():
    model = IedDataModel.from_icd(parse_scl(ICD).ieds[0])
    assert model.find_ln("PTOC") == ["IED1LD0/PTOC1"]
    refs = model.references("IED1LD0/MMXU1")
    assert all(ref.startswith("IED1LD0/MMXU1") for ref in refs)
    assert refs


# ---------------------------------------------------------------------------
# Protection functions (pure logic)
# ---------------------------------------------------------------------------


def test_ptoc_start_delay_operate():
    current = [1.0]
    fn = Ptoc("PTOC1", "CB1", threshold=2.0, delay_ms=100, measure=lambda: current[0])
    assert fn.evaluate(0) is None
    current[0] = 3.0
    assert fn.evaluate(10_000) is None  # starts, no trip yet
    assert fn.started
    assert fn.evaluate(50_000) is None  # delay not elapsed
    trip = fn.evaluate(120_000)
    assert trip is not None
    assert trip.breaker == "CB1"
    assert fn.operated


def test_ptoc_resets_when_condition_clears():
    current = [3.0]
    fn = Ptoc("PTOC1", "CB1", threshold=2.0, delay_ms=100, measure=lambda: current[0])
    fn.evaluate(0)
    current[0] = 1.0
    assert fn.evaluate(50_000) is None
    assert not fn.started
    current[0] = 3.0
    fn.evaluate(60_000)
    assert fn.evaluate(100_000) is None  # timer restarted at 60ms
    assert fn.evaluate(160_000) is not None


def test_ptoc_zero_delay_instantaneous():
    fn = Ptoc("PTOC1", "CB1", threshold=1.0, delay_ms=0, measure=lambda: 5.0)
    assert fn.evaluate(0) is not None


def test_ptoc_no_retrip_while_operated():
    fn = Ptoc("PTOC1", "CB1", threshold=1.0, delay_ms=0, measure=lambda: 5.0)
    assert fn.evaluate(0) is not None
    assert fn.evaluate(1000) is None  # already operated


def test_ptov_and_ptuv_pickups():
    voltage = [1.0]
    over = Ptov("PTOV1", "CB1", threshold=1.1, delay_ms=0, measure=lambda: voltage[0])
    under = Ptuv("PTUV1", "CB1", threshold=0.9, delay_ms=0, measure=lambda: voltage[0])
    assert over.evaluate(0) is None and under.evaluate(0) is None
    voltage[0] = 1.15
    assert over.evaluate(1) is not None
    voltage[0] = 0.85
    assert under.evaluate(2) is not None


def test_ptuv_dead_bus_blocking():
    fn = Ptuv("PTUV1", "CB1", threshold=0.9, delay_ms=0, measure=lambda: 0.0)
    assert fn.evaluate(0) is None  # dead bus does not trip undervoltage
    assert not fn.started


def test_pdif_trips_on_differential():
    local, remote = [1.0], [1.0]
    fn = Pdif(
        "PDIF1", "CB1", threshold=0.2, delay_ms=0,
        measure=lambda: local[0], remote=lambda: remote[0],
        remote_healthy=lambda: True,
    )
    assert fn.evaluate(0) is None
    remote[0] = 0.5  # fault between the CTs
    trip = fn.evaluate(1)
    assert trip is not None
    assert fn.last_differential == pytest.approx(0.5)


def test_pdif_blocks_without_channel():
    fn = Pdif(
        "PDIF1", "CB1", threshold=0.2, delay_ms=0,
        measure=lambda: 9.0, remote=lambda: 0.0,
        remote_healthy=lambda: False,
    )
    assert fn.evaluate(0) is None  # stale channel → block


def test_cilo_blocks_and_permits():
    closed = [False]
    interlock = Cilo("CILO1", "CB2", "CB1", interlock_closed=lambda: closed[0])
    assert not interlock.close_permitted()
    assert interlock.open_permitted()
    closed[0] = True
    assert interlock.close_permitted()
    assert interlock.blocked_count == 1


def test_engine_collects_trips_and_callback():
    engine = ProtectionEngine("IED1")
    engine.add(Ptoc("PTOC1", "CB1", 1.0, 0, measure=lambda: 5.0))
    seen = []
    engine.on_trip = seen.append
    events = engine.evaluate(1000)
    assert len(events) == 1
    assert events[0].ied_name == "IED1"
    assert seen == events == engine.trips


def test_engine_close_permitted_aggregates():
    engine = ProtectionEngine("IED1")
    engine.add_interlock(Cilo("CILO1", "CB2", "CB1", lambda: True))
    engine.add_interlock(Cilo("CILO2", "CB2", "CB3", lambda: False))
    assert not engine.close_permitted("CB2")
    assert engine.close_permitted("CB9")  # unguarded breaker


# ---------------------------------------------------------------------------
# Device runtime
# ---------------------------------------------------------------------------


@pytest.fixture
def ied_setup(sim, write_point):
    net = VirtualNetwork(sim)
    net.add_switch("sw")
    host = net.add_host("IED1", "10.0.0.10")
    client_host = net.add_host("cli", "10.0.0.99")
    net.add_link("IED1", "sw")
    net.add_link("cli", "sw")
    db = PointRegistry()
    write_point(db, "meas/L1/i_ka", 0.05)
    write_point(db, "status/CB1/closed", True)
    model = IedDataModel.from_icd(parse_scl(ICD).ieds[0])
    config = IedRuntimeConfig(
        ied_name="IED1",
        points=[
            PointMapping("IED1LD0/MMXU1.A.phsA.cVal.mag.f", "meas/L1/i_ka"),
            PointMapping("IED1LD0/XCBR1.Pos.stVal", "status/CB1/closed"),
            PointMapping(
                "IED1LD0/XCBR1.Oper.ctlVal", "cmd/CB1/close", direction="write"
            ),
        ],
        protections=[
            ProtectionSettings(
                ln_name="PTOC1", fn_type="PTOC", breaker="CB1",
                meas_ref="IED1LD0/MMXU1.A.phsA.cVal.mag.f",
                threshold=0.2, delay_ms=100,
            ),
            ProtectionSettings(
                ln_name="CILO1", fn_type="CILO", breaker="CB1",
                interlock_breaker="CB_UP",
            ),
        ],
        goose=GooseLinkConfig(gocb_ref="IED1LD0/LLN0$GO$g1", dataset="ds"),
        scan_interval_ms=20,
    )
    device = VirtualIed(host, model, config, db)
    device.start()
    return net, db, device, client_host


def test_device_syncs_measurements(ied_setup, sim, write_point):
    _, db, device, _ = ied_setup
    sim.run_for(SECOND)
    assert device.model.read("IED1LD0/MMXU1.A.phsA.cVal.mag.f") == 0.05
    write_point(db, "meas/L1/i_ka", 0.07)
    sim.run_for(100 * MS)
    assert device.model.read("IED1LD0/MMXU1.A.phsA.cVal.mag.f") == 0.07


def test_device_protection_trip_writes_command(ied_setup, sim, write_point):
    _, db, device, _ = ied_setup
    write_point(db, "meas/L1/i_ka", 0.9)  # above 0.2 kA threshold
    sim.run_for(SECOND)
    commands = db.drain_commands()
    assert any(
        w.key == "cmd/CB1/close" and w.value is False for w in commands
    )
    assert device.engine.trips
    assert device.model.read("IED1LD0/PTOC1.Op.general") is True


def test_device_threshold_setting_in_model(ied_setup):
    _, _, device, _ = ied_setup
    assert device.model.read("IED1LD0/PTOC1.StrVal.setMag.f") == pytest.approx(0.2)


def test_device_mms_control_respects_interlock(ied_setup, sim, write_point):
    _, db, device, client_host = ied_setup
    write_point(db, "status/CB_UP/closed", False)  # interlock open
    client = MmsClient(client_host, "10.0.0.10")
    client.connect()
    replies = []
    sim.run_for(SECOND)
    client.write(
        "IED1LD0/XCBR1.Oper.ctlVal", True,
        lambda r, e: replies.append(e),
    )
    sim.run_for(SECOND)
    assert replies and "interlock" in replies[0]
    assert device.rejected_operates
    # Opening is always permitted.
    replies.clear()
    client.write(
        "IED1LD0/XCBR1.Oper.ctlVal", False, lambda r, e: replies.append(e)
    )
    sim.run_for(SECOND)
    assert replies == [None]


def test_device_mms_write_updates_live_threshold(ied_setup, sim):
    _, _, device, client_host = ied_setup
    client = MmsClient(client_host, "10.0.0.10")
    client.connect()
    sim.run_for(SECOND)
    client.write("IED1LD0/PTOC1.StrVal.setMag.f", 9.9)
    sim.run_for(SECOND)
    ptoc = device._protection_by_ln["PTOC1"]
    assert ptoc.threshold == pytest.approx(9.9)


def test_device_mms_read_only_rejected(ied_setup, sim):
    _, _, _, client_host = ied_setup
    client = MmsClient(client_host, "10.0.0.10")
    client.connect()
    replies = []
    sim.run_for(SECOND)
    client.write(
        "IED1LD0/MMXU1.TotW.mag.f", 123.0, lambda r, e: replies.append(e)
    )
    sim.run_for(SECOND)
    assert replies and "read-only" in replies[0]


def test_device_goose_dataset_reflects_breaker(ied_setup, sim, write_point):
    net, db, device, _ = ied_setup
    from repro.iec61850 import GooseSubscriber

    listener = net.add_host("listener", "10.0.0.50")
    net.add_link("listener", "sw")
    updates = []
    GooseSubscriber(
        listener, "IED1LD0/LLN0$GO$g1", lambda m: updates.append(m.all_data)
    )
    sim.run_for(SECOND)
    assert updates
    entries = {tuple(e[:2]): e for e in updates[-1] if isinstance(e, list)}
    assert entries[("breaker", "CB1")][2] is True
    # Open the breaker: the state change is published with a new stNum.
    write_point(db, "status/CB1/closed", False)
    sim.run_for(SECOND)
    entries = {tuple(e[:2]): e for e in updates[-1] if isinstance(e, list)}
    assert entries[("breaker", "CB1")][2] is False


def test_device_name_list_served(ied_setup, sim):
    _, _, _, client_host = ied_setup
    client = MmsClient(client_host, "10.0.0.10")
    client.connect()
    out = {}
    sim.run_for(SECOND)
    client.get_name_list(lambda r, e: out.update(domains=r))
    sim.run_for(SECOND)
    assert out["domains"] == ["IED1LD0"]
