"""The SG-ML Processor: "compiling" a model set into a cyber range.

Runs the paper's Fig. 3 toolchain in order, recording per-stage wall-clock
timings (the Fig. 3 bench reports them):

1. **SSD Merger** — consolidate per-substation SSDs (+ SED tie lines),
2. **SCD Merger** — consolidate per-substation SCDs (+ WAN abstraction),
3. **SSD Parser** — consolidated SSD → power-system simulation model,
4. **Network Launcher** — consolidated SCD → intermediate JSON → emulated
   network (the Mininet Launcher equivalent),
5. **Virtual IED Builder** — ICDs + IED Config XML → virtual IEDs on their
   network hosts ("configure and compile virtual IED instance based on
   ICD"),
6. **PLC configuration** — PLCopen XML + PLC Config XML → OpenPLC-style
   runtime on its host,
7. **SCADA Config Parser** — SCADA Config XML → SCADABR-style JSON →
   imported into the HMI runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.kernel import Simulator
from repro.ied import IedDataModel, IedRuntimeConfig, VirtualIed
from repro.plc import VirtualPlc
from repro.pointdb import PointRegistry
from repro.powersim import Network
from repro.powersim.timeseries import SimulationScenario, TimeSeriesRunner
from repro.range import CyberRange
from repro.scada import ScadaHmi, import_scadabr_json
from repro.scl.merge import merge_scd, merge_ssd
from repro.scl.model import SclDocument
from repro.sgml.errors import SgmlError, SgmlValidationError
from repro.sgml.modelset import SgmlModelSet
from repro.sgml.multicast_gen import MulticastGroupPlan, derive_multicast_plan
from repro.sgml.network_gen import NetworkPlan, generate_network_plan
from repro.sgml.powersim_gen import generate_power_network
from repro.sgml.scada_config import scada_config_to_json
from repro.telemetry import Stopwatch


@dataclass
class CompiledArtifacts:
    """Intermediate outputs of each toolchain stage (Fig. 3 visibility)."""

    merged_ssd: Optional[SclDocument] = None
    merged_scd: Optional[SclDocument] = None
    power_net: Optional[Network] = None
    network_plan: Optional[NetworkPlan] = None
    network_plan_json: str = ""
    #: Multicast groups derived from the SCL subscription model (dst MAC /
    #: appID → subscriber hosts), applied to the network's pruner.
    multicast_plan: Optional[MulticastGroupPlan] = None
    multicast_plan_json: str = ""
    multicast_group_count: int = 0
    scadabr_json: str = ""
    ied_count: int = 0
    stage_timings_ms: dict[str, float] = field(default_factory=dict)
    #: Point-registry size after compile: every key the coupling publishes
    #: and every device input, interned exactly once at compile time.
    point_registry_size: int = 0
    #: Handles resolved by the power-flow coupling (publisher side).
    coupling_handle_count: int = 0
    #: Point-db handles subscribed per device: IED name → handle count.
    device_handle_counts: dict[str, int] = field(default_factory=dict)


class SgmlProcessor:
    """Compiles an :class:`SgmlModelSet` into an operational range."""

    def __init__(
        self,
        model: SgmlModelSet,
        sim_interval_ms: float = 100.0,
        strict: bool = True,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.sim_interval_ms = sim_interval_ms
        self.strict = strict
        #: Effective RNG seed for the compiled range's stochastic parts
        #: (netem link loss draws); recorded on the range and in reports.
        self.seed = seed
        self.artifacts = CompiledArtifacts()
        #: Protection functions configured but disabled because their LN
        #: class is absent from the IED's ICD (paper's enablement rule).
        self.disabled_protections: list[str] = []

    # ------------------------------------------------------------------
    def compile(self, simulator: Optional[Simulator] = None) -> CyberRange:
        """Run the full toolchain; returns a ready-to-start cyber range."""
        model = self.model
        if self.strict:
            model.validate_or_raise()
        timings = self.artifacts.stage_timings_ms

        # Stage 1+2: mergers.
        merged_ssd = self._timed(
            timings, "ssd_merger", lambda: self._merge_ssd()
        )
        merged_scd = self._timed(
            timings, "scd_merger", lambda: self._merge_scd()
        )
        self.artifacts.merged_ssd = merged_ssd
        self.artifacts.merged_scd = merged_scd

        # Stage 3: SSD Parser → power model.
        power_net = self._timed(
            timings, "ssd_parser", lambda: generate_power_network(merged_ssd)
        )
        self.artifacts.power_net = power_net

        # Stage 4: network topology → emulator.
        plan = self._timed(
            timings, "network_plan", lambda: generate_network_plan(merged_scd)
        )
        self.artifacts.network_plan = plan
        self.artifacts.network_plan_json = plan.to_json()
        simulator = simulator or Simulator()
        network = self._timed(
            timings, "network_launch", lambda: plan.build(simulator, self.seed)
        )

        # Shared infrastructure.
        pointdb = PointRegistry()
        scenario = model.scenario or SimulationScenario()
        runner = TimeSeriesRunner(power_net, scenario)
        cyber_range = CyberRange(
            simulator,
            network,
            power_net,
            runner,
            pointdb,
            sim_interval_ms=self.sim_interval_ms,
            seed=self.seed,
        )

        # Stage 4b: multicast group table.  Registering every *publisher*
        # group (even subscriber-less ones) before any traffic flows is
        # what lets the switches prune instead of flood; subscriber joins
        # follow in stage 5 when the subscriber objects are constructed.
        multicast_plan = self._timed(
            timings,
            "multicast_plan",
            lambda: derive_multicast_plan(self.model.ied_configs),
        )
        self.artifacts.multicast_plan = multicast_plan
        self.artifacts.multicast_plan_json = multicast_plan.to_json()
        self.artifacts.multicast_group_count = multicast_plan.group_count
        multicast_plan.apply(network)

        # Stage 5: Virtual IED Builder.
        self._timed(
            timings,
            "ied_builder",
            lambda: self._build_ieds(cyber_range, merged_scd, pointdb),
        )

        # Stage 6: PLC runtime.
        self._timed(timings, "plc_builder", lambda: self._build_plcs(
            cyber_range, plan
        ))

        # Stage 7: SCADA Config Parser + import.
        self._timed(timings, "scada_config", lambda: self._build_scada(
            cyber_range, plan
        ))

        # Data-plane accounting: every handle the range will ever touch is
        # resolved by now (coupling + device constructors above), so the
        # registry size is the compile-time point universe.
        self.artifacts.point_registry_size = pointdb.size
        self.artifacts.coupling_handle_count = cyber_range.coupling.handle_count
        self.artifacts.device_handle_counts = {
            name: ied.handle_count for name, ied in cyber_range.ieds.items()
        }
        return cyber_range

    # ------------------------------------------------------------------
    def _merge_ssd(self) -> SclDocument:
        sources = self.model.ssds or self.model.scds
        if not sources:
            raise SgmlError("model set has no SSD or SCD files")
        return merge_ssd(sources, sed=self.model.sed)

    def _merge_scd(self) -> SclDocument:
        sources = self.model.scds or self.model.ssds
        if not sources:
            raise SgmlError("model set has no SCD files")
        return merge_scd(sources, sed=self.model.sed)

    def _build_ieds(
        self,
        cyber_range: CyberRange,
        merged_scd: SclDocument,
        pointdb: PointRegistry,
    ) -> None:
        icd_by_name = self.model.all_icd_ieds()
        for ied_name, runtime_config in self.model.ied_configs.items():
            try:
                host = cyber_range.network.host(ied_name)
            except Exception as exc:
                raise SgmlValidationError(
                    f"IED {ied_name!r} has no network host (missing "
                    f"ConnectedAP in SCD?): {exc}"
                ) from exc
            if ied_name in icd_by_name:
                ied_section, templates = icd_by_name[ied_name]
            else:
                ied_section = merged_scd.find_ied(ied_name)
                templates = merged_scd.templates
                if ied_section is None:
                    raise SgmlValidationError(
                        f"IED {ied_name!r}: no ICD file and no IED section "
                        f"in the SCD"
                    )
            model = IedDataModel.from_icd(ied_section, templates)
            # Paper §III-B: the ICD enables features — "if the ICD file
            # contains definition of logical node PTOV, over-voltage
            # protection function is enabled".  Drop configured functions
            # whose LN class is absent from the ICD.
            enabled_classes = model.ln_classes()
            kept = [
                settings
                for settings in runtime_config.protections
                if settings.fn_type in enabled_classes
            ]
            dropped = len(runtime_config.protections) - len(kept)
            if dropped:
                self.disabled_protections.extend(
                    f"{ied_name}/{settings.ln_name}"
                    for settings in runtime_config.protections
                    if settings.fn_type not in enabled_classes
                )
                runtime_config.protections = kept
            device = VirtualIed(host, model, runtime_config, pointdb)
            cyber_range.add_ied(device)
            self.artifacts.ied_count += 1

    def _build_plcs(self, cyber_range: CyberRange, plan: NetworkPlan) -> None:
        if not self.model.plc_configs:
            return
        if self.model.plc_logic is None:
            raise SgmlError(
                "PLC config present but no PLCopen XML logic file found"
            )
        for plc_name, plc_config in self.model.plc_configs.items():
            host = cyber_range.network.host(plc_name)
            plc = VirtualPlc.from_plcopen(
                host,
                self.model.plc_logic,
                pou_name=plc_config.pou,
                name=plc_name,
            )
            plc.scan_interval_us = int(plc_config.scan_interval_ms * 1000)
            for bind in plc_config.binds:
                ip = plan.host_ip(bind.ied)
                if not ip:
                    raise SgmlValidationError(
                        f"PLC {plc_name}: bind target IED {bind.ied!r} has "
                        f"no host in the network plan"
                    )
                plc.bind_mms(bind.variable, ip, bind.ref, bind.direction)
            cyber_range.add_plc(plc_name, plc)

    def _build_scada(self, cyber_range: CyberRange, plan: NetworkPlan) -> None:
        config_xml = self.model.scada_config
        if config_xml is None:
            return
        json_text = scada_config_to_json(config_xml, resolve_host=plan.host_ip)
        self.artifacts.scadabr_json = json_text
        scada_config = import_scadabr_json(json_text)
        node = config_xml.scada_node
        if not node:
            raise SgmlError("SCADA config must name its host node (scada=...)")
        host = cyber_range.network.host(node)
        hmi = ScadaHmi(host, scada_config)
        cyber_range.add_hmi(node, hmi)

    # ------------------------------------------------------------------
    @staticmethod
    def _timed(timings: dict[str, float], stage: str, fn):
        with Stopwatch() as clock:
            result = fn()
        timings[stage] = clock.seconds * 1000.0
        return result
