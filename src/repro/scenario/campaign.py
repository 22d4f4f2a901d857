"""Batch campaign runner: sweep many scenarios against one model set.

A :class:`Campaign` binds an :class:`~repro.sgml.modelset.SgmlModelSet` to
an ordered list of declarative scenario specs — generated by the
:mod:`repro.scenario.catalog` families, loaded from a directory of
``.json``/``.yaml`` spec files, or both — and executes them back to back:

* **fresh range per run** (default): every scenario gets its own compiled
  :class:`~repro.range.CyberRange`, so runs are fully isolated — the mode
  for scoring and CI gates;
* **reused range** (``reuse_range=True``): one range is compiled and
  settled once and all scenarios run on it sequentially (virtual time keeps
  advancing), trading isolation for a single compile — the mode for quick
  sweeps and interactive training sessions.  State mutated by one scenario
  (open breakers, scaled loads, attacker hosts) is visible to the next.

The result is a :class:`CampaignReport`: per-scenario verdicts, per-phase
timing, branch paths taken, per-run data-plane counter deltas and wall
time, aggregated into one JSON document (``sgml campaign --report``).

``Campaign.validate()`` / ``dry_run()`` check every spec — parse, build,
branch-graph validation — without compiling a range, which is what the
``sgml campaign --dry-run`` CI smoke step runs against generated catalogs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.scenario.catalog import CatalogEntry, generate_catalog
from repro.scenario.scenario import Scenario
from repro.sgml.modelset import SgmlModelSet


class CampaignError(Exception):
    """Campaign construction or execution misuse."""


def load_spec_file(path: str) -> dict:
    """Read one scenario spec file: ``.json`` always, ``.yaml``/``.yml``
    when PyYAML is installed.  The single loader behind both the ``sgml
    scenario`` CLI and :meth:`Campaign.from_spec_dir`."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:  # pragma: no cover - environment dependent
            raise CampaignError(
                f"{path}: PyYAML is not installed; use a .json scenario spec"
            ) from None
        spec = yaml.safe_load(text)
    else:
        spec = json.loads(text)
    if not isinstance(spec, dict):
        raise CampaignError(f"scenario spec {path!r} is not a mapping")
    return spec


@dataclass
class CampaignScenario:
    """One campaign member: a named spec plus its provenance."""

    name: str
    spec: dict
    source: str = ""  # "catalog:<family>" or a spec-file path

    @classmethod
    def from_entry(cls, entry: CatalogEntry) -> "CampaignScenario":
        return cls(
            name=entry.name, spec=entry.spec, source=f"catalog:{entry.family}"
        )


@dataclass
class CampaignReport:
    """Aggregate result of one campaign (or one dry-run validation).

    ``workers``, ``per_run_wall_s`` and ``scenarios_per_minute`` were
    added with the sharded executor (:mod:`repro.scenario.sharding`);
    serial reports carry ``workers=1``.  ``per_run_wall_s`` is the summed
    wall time of the individual runs — under sharding it exceeds
    ``wall_s`` (elapsed), and their ratio is the measured speedup.
    """

    model: str
    dry_run: bool
    reuse_range: bool
    results: list[dict] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    per_run_wall_s: float = 0.0
    scenarios_per_minute: float = 0.0

    @property
    def passed(self) -> bool:
        """Dry-run: every spec valid.  Run: every scenario passed."""
        key = "valid" if self.dry_run else "passed"
        return bool(self.results) and all(r.get(key) for r in self.results)

    def to_dict(self) -> dict:
        scored = [r for r in self.results if not self.dry_run]
        return {
            "model": self.model,
            "dry_run": self.dry_run,
            "reuse_range": self.reuse_range,
            "passed": self.passed,
            "scenario_count": len(self.results),
            "passed_count": sum(1 for r in scored if r.get("passed")),
            "wall_s": self.wall_s,
            "workers": self.workers,
            "per_run_wall_s": self.per_run_wall_s,
            "scenarios_per_minute": self.scenarios_per_minute,
            "scenarios": self.results,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignReport":
        """Rebuild a report from its :meth:`to_dict` JSON (round-trip).

        Derived fields (``passed``, the counts) are recomputed, not read,
        so a reloaded report equals the original dataclass exactly;
        unknown extra fields are ignored (forward-tolerant).
        """
        return cls(
            model=payload["model"],
            dry_run=bool(payload["dry_run"]),
            reuse_range=bool(payload["reuse_range"]),
            results=[dict(result) for result in payload["scenarios"]],
            wall_s=float(payload["wall_s"]),
            workers=int(payload.get("workers", 1)),
            per_run_wall_s=float(payload.get("per_run_wall_s", 0.0)),
            scenarios_per_minute=float(
                payload.get("scenarios_per_minute", 0.0)
            ),
        )

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path

    def summary(self) -> str:
        lines = [
            f"=== campaign report: {self.model} "
            f"({'dry-run' if self.dry_run else 'executed'}) ==="
        ]
        for result in self.results:
            if self.dry_run:
                status = "VALID" if result.get("valid") else "INVALID"
                detail = result.get("error", "")
            else:
                status = "PASS" if result.get("passed") else "FAIL"
                detail = result.get("error") or (
                    f"{result.get('wall_s', 0.0):.2f}s wall"
                    + (
                        f", path: {' ; '.join(result['branch_path'])}"
                        if result.get("branch_path")
                        else ""
                    )
                )
            lines.append(
                f"  [{status:>7}] {result['name']}"
                + (f" — {detail}" if detail else "")
            )
        verdict = "PASS" if self.passed else "FAIL"
        throughput = ""
        if not self.dry_run and self.workers > 1:
            throughput = (
                f", {self.workers} workers, "
                f"{self.scenarios_per_minute:.1f} scenarios/min"
            )
        lines.append(
            f"=== campaign verdict: {verdict} "
            f"({len(self.results)} scenarios{throughput}) ==="
        )
        return "\n".join(lines)


class Campaign:
    """An ordered scenario sweep over one model set."""

    def __init__(
        self,
        model: SgmlModelSet,
        scenarios: list[CampaignScenario],
        *,
        reuse_range: bool = False,
        settle_s: float = 2.0,
        default_duration_s: float = 10.0,
        seed: int = 0,
    ) -> None:
        if not scenarios:
            raise CampaignError("campaign has no scenarios")
        names = [s.name for s in scenarios]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise CampaignError(
                f"duplicate scenario names in campaign: {sorted(duplicates)}"
            )
        self.model = model
        self.scenarios = scenarios
        self.reuse_range = reuse_range
        self.settle_s = settle_s
        self.default_duration_s = default_duration_s
        #: Seed *root*.  Fresh-range runs derive a per-scenario seed from
        #: it (``sharding.derive_seed(seed, member.name)`` — a stable,
        #: process-independent hash), recorded as ``result["seed"]`` in
        #: every result, dry or live, serial or sharded, so any run is
        #: reproducible from the report alone.  Reused-range sweeps
        #: compile their single shared range directly with this value.
        self.seed = seed

    def member_seed(self, member: CampaignScenario) -> int:
        """The seed ``member``'s run compiles under (documented above)."""
        from repro.scenario.sharding import derive_seed

        if self.reuse_range:
            return self.seed
        return derive_seed(self.seed, member.name)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(
        cls,
        model: SgmlModelSet,
        families: Optional[list[str]] = None,
        max_sites: int = 1,
        params: Optional[dict] = None,
        **kwargs,
    ) -> "Campaign":
        """Generate the scenario catalog for ``model`` and sweep it."""
        entries = generate_catalog(
            model, families=families, max_sites=max_sites, params=params
        )
        if not entries:
            raise CampaignError(
                "catalog generation produced no scenarios for this model set"
            )
        return cls(
            model, [CampaignScenario.from_entry(e) for e in entries], **kwargs
        )

    @classmethod
    def from_spec_dir(
        cls, model: SgmlModelSet, directory: str, **kwargs
    ) -> "Campaign":
        """Load every ``.json`` (and, with PyYAML, ``.yaml``/``.yml``)
        scenario spec in ``directory``, sorted by filename."""
        if not os.path.isdir(directory):
            raise CampaignError(f"spec directory not found: {directory}")
        scenarios: list[CampaignScenario] = []
        for filename in sorted(os.listdir(directory)):
            path = os.path.join(directory, filename)
            if not os.path.isfile(path):
                continue
            if not filename.endswith((".json", ".yaml", ".yml")):
                continue
            spec = load_spec_file(path)
            scenarios.append(
                CampaignScenario(
                    name=str(spec.get("name", filename)),
                    spec=spec,
                    source=path,
                )
            )
        if not scenarios:
            raise CampaignError(f"no scenario specs found in {directory}")
        return cls(model, scenarios, **kwargs)

    # ------------------------------------------------------------------
    # Validation (no range compiled)
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Problems across every spec (empty = all valid)."""
        return [
            f"{result['name']}: {result['error']}"
            for result in self.dry_run().results
            if not result["valid"]
        ]

    def dry_run(self) -> CampaignReport:
        """Validate every spec without compiling or running anything."""
        report = CampaignReport(
            model=self._model_name(),
            dry_run=True,
            reuse_range=self.reuse_range,
        )
        # sgml: lint-ok[det-wallclock] wall accounting
        start = time.perf_counter()
        for member in self.scenarios:
            result = {
                "name": member.name,
                "source": member.source,
                "seed": self.member_seed(member),
                "valid": True,
            }
            try:
                scenario = Scenario.from_spec(member.spec)
                result["phase_count"] = len(scenario.phases)
                result["branch_edges"] = sum(
                    len(p.edges) for p in scenario.phases
                )
            except Exception as exc:
                result["valid"] = False
                result["error"] = str(exc)
            report.results.append(result)
        # sgml: lint-ok[det-wallclock] wall accounting
        report.wall_s = time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Execute the sweep serially and aggregate the reports.

        Fresh-range mode delegates each run to
        :func:`repro.scenario.sharding.run_one` — the same pure per-run
        unit the process-pool executor ships to workers — so
        ``ShardedCampaign(campaign, workers=N)`` is provably equivalent
        to this serial path (the determinism-differential suite pins it).
        Reused-range mode runs each spec through the same
        :func:`~repro.scenario.sharding.run_on_range` step on one shared
        range.
        """
        from repro.scenario.sharding import run_on_range, run_one
        from repro.sgml.processor import SgmlProcessor

        report = CampaignReport(
            model=self._model_name(),
            dry_run=False,
            reuse_range=self.reuse_range,
        )
        shared = None  # the reused range, compiled on first use

        def shared_range():
            nonlocal shared
            if shared is None:
                shared = SgmlProcessor(self.model, seed=self.seed).compile()
                shared.start()
                if self.settle_s > 0:
                    shared.run_for(self.settle_s)
            return shared

        # sgml: lint-ok[det-wallclock] wall accounting
        campaign_start = time.perf_counter()
        for member in self.scenarios:
            if self.reuse_range:
                result = run_on_range(
                    member.spec,
                    shared_range,
                    0.0,
                    self.default_duration_s,
                    name=member.name,
                    source=member.source,
                    seed=self.member_seed(member),
                )
            else:
                result = run_one(
                    self.model,
                    member.spec,
                    self.member_seed(member),
                    self.settle_s,
                    self.default_duration_s,
                    name=member.name,
                    source=member.source,
                )
            report.results.append(result)
        # sgml: lint-ok[det-wallclock] wall accounting
        report.wall_s = time.perf_counter() - campaign_start
        report.per_run_wall_s = sum(
            float(r.get("wall_s", 0.0)) for r in report.results
        )
        if report.wall_s > 0:
            report.scenarios_per_minute = (
                60.0 * len(report.results) / report.wall_s
            )
        return report

    # ------------------------------------------------------------------
    def _model_name(self) -> str:
        return self.model.source_dir or (
            self.model.ssds[0].header.id if self.model.ssds else "model"
        )
