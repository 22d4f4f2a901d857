"""Batch campaign runner: sweep many scenarios against one model set.

A :class:`Campaign` binds an :class:`~repro.sgml.modelset.SgmlModelSet` to
an ordered list of declarative scenario specs — generated by the
:mod:`repro.scenario.catalog` families, loaded from a directory of
``.json``/``.yaml`` spec files, or both — and :meth:`Campaign.run` is the
one executor that sweeps them.  Every run goes through the per-run unit of
:mod:`repro.scenario.sharding`, placed one of three ways:

* **in-process** (``workers=1``): each scenario gets its own compiled
  :class:`~repro.range.CyberRange`, so runs are fully isolated — the mode
  for scoring and CI gates;
* **process pool** (``workers>1``): the same fresh-range runs fanned
  across ``fork`` workers, with a bounded in-flight window, crash
  quarantine and per-run timeouts, producing results identical field for
  field to ``workers=1`` (wall-clock fields aside);
* **reused range** (``reuse_range=True``): one range is compiled and
  settled once and all scenarios run on it sequentially (virtual time keeps
  advancing), trading isolation for a single compile — the mode for quick
  sweeps and interactive training sessions.  State mutated by one scenario
  (open breakers, scaled loads, attacker hosts) is visible to the next.

The result is a :class:`CampaignReport`: per-scenario verdicts, per-phase
timing, branch paths taken, per-run data-plane counter deltas and wall
time, aggregated into one JSON document (``sgml campaign --report``).
:func:`run_matrix` sweeps several model sets into one :class:`MatrixReport`
(``sgml campaign --matrix epic,scaleout``).

``Campaign.validate()`` / ``dry_run()`` check every spec — parse, build,
branch-graph validation — without compiling a range, which is what the
``sgml campaign --dry-run`` CI smoke step runs against generated catalogs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.scenario.catalog import CatalogEntry, generate_catalog
from repro.scenario.scenario import Scenario
from repro.scenario.sharding import derive_seed, run_on_range, run_one
from repro.sgml.modelset import SgmlModelSet
from repro.telemetry import Stopwatch


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

    ``per_run_wall_s`` is the summed wall time of the individual runs —
    on a process pool it exceeds ``wall_s`` (elapsed), and their ratio is
    the measured speedup.
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
    def from_results(
        cls,
        results: list[dict],
        *,
        model: str,
        reuse_range: bool,
        workers: int,
        wall_s: float,
    ) -> "CampaignReport":
        """Aggregate executed per-run results into one report.

        Order-independent by construction: results are sorted by member
        name, so any completion order — in-process, pooled, shuffled —
        aggregates to the same report (pinned by the property test in
        ``tests/test_campaign_sharding.py``).
        """
        ordered = sorted(results, key=lambda r: str(r.get("name", "")))
        return cls(
            model=model,
            dry_run=False,
            reuse_range=reuse_range,
            results=ordered,
            wall_s=wall_s,
            workers=int(workers),
            per_run_wall_s=sum(float(r.get("wall_s", 0.0)) for r in ordered),
            scenarios_per_minute=(
                60.0 * len(ordered) / wall_s if wall_s > 0 else 0.0
            ),
        )

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
        #: every result, dry or live, in-process or pooled, so any run is
        #: reproducible from the report alone.  Reused-range sweeps
        #: compile their single shared range directly with this value.
        self.seed = seed

    def member_seed(self, member: CampaignScenario) -> int:
        """The seed ``member``'s run compiles under (documented above)."""
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
        with Stopwatch() as clock:
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
        report.wall_s = clock.seconds
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        workers: Optional[int] = 1,
        per_run_timeout_s: Optional[float] = None,
    ) -> CampaignReport:
        """Execute the sweep and aggregate one report.

        Every run goes through one per-run unit, placed one of three ways:

        * ``workers=1`` — :func:`~repro.scenario.sharding.run_one` in this
          process, with the per-run timer armed exactly as in a worker;
        * ``workers>1`` — the same call fanned across a process pool
          (:meth:`_run_pool`); the model set needs a ``source_dir`` to
          ship to the workers;
        * ``reuse_range`` — :func:`~repro.scenario.sharding.run_on_range`
          on one shared range, sequentially and without a per-run timeout.

        ``workers`` is checked and resolved by :meth:`workers_for`.
        ``per_run_timeout_s`` caps each run's wall clock; a run over
        budget becomes a structured ``timed_out`` failed result.  Results
        come back sorted by member name whatever the placement, and every
        placement of a fresh-range sweep yields the same results field for
        field, wall-clock fields aside (the determinism-differential suite
        pins it).
        """
        workers = self.workers_for(workers, per_run_timeout_s)
        with Stopwatch() as clock:
            if self.reuse_range:
                results = self._run_shared()
            elif workers == 1:
                results = [
                    self._job(member, self.model, per_run_timeout_s)()
                    for member in self.scenarios
                ]
            else:
                results = self._run_pool(workers, per_run_timeout_s)
        return CampaignReport.from_results(
            results,
            model=self._model_name(),
            reuse_range=self.reuse_range,
            workers=workers,
            wall_s=clock.seconds,
        )

    def workers_for(
        self,
        workers: Optional[int] = 1,
        per_run_timeout_s: Optional[float] = None,
    ) -> int:
        """The worker count :meth:`run` takes for these arguments.

        ``0``/``None`` means auto (:func:`resolve_workers`).  Raises
        :class:`CampaignError` for a placement this campaign cannot take.
        """
        workers = resolve_workers(workers, self.reuse_range)
        if self.reuse_range and workers > 1:
            raise CampaignError(
                "reuse_range campaigns are sequential by design; "
                "run with workers=1 (or drop reuse_range to shard)"
            )
        if self.reuse_range and per_run_timeout_s is not None:
            raise CampaignError(
                "reuse_range campaigns take no per-run timeout: a run cut "
                "short would leave the shared range mid-event for the next "
                "scenario"
            )
        if workers > 1 and not self.model.source_dir:
            raise CampaignError(
                "sharded campaigns need a model directory to ship to "
                "workers (SgmlModelSet.source_dir is empty); "
                "use workers=1 for in-memory model sets"
            )
        return workers

    def _job(self, member: CampaignScenario, model_ref, timeout_s) -> partial:
        """``member``'s :func:`run_one` call, ready to run in this process
        or to pickle into a pool worker."""
        return partial(
            run_one,
            model_ref,
            member.spec,
            self.member_seed(member),
            self.settle_s,
            self.default_duration_s,
            name=member.name,
            source=member.source,
            timeout_s=timeout_s,
        )

    def _run_shared(self) -> list[dict]:
        """Every member on one range, compiled and settled on first use."""
        from repro.sgml.processor import SgmlProcessor

        shared = None

        def shared_range():
            nonlocal shared
            if shared is None:
                shared = SgmlProcessor(self.model, seed=self.seed).compile()
                shared.start()
                if self.settle_s > 0:
                    shared.run_for(self.settle_s)
            return shared

        return [
            run_on_range(
                member.spec,
                shared_range,
                0.0,
                self.default_duration_s,
                name=member.name,
                source=member.source,
                seed=self.member_seed(member),
            )
            for member in self.scenarios
        ]

    def _run_pool(
        self, workers: int, timeout_s: Optional[float]
    ) -> list[dict]:
        """Bounded-submission pool loop with crash quarantine.

        At most ``2 × workers`` runs are in flight, so a huge catalog
        cannot flood the pool's call queue with pickled specs.  A worker
        dying (SIGKILL, hard crash) breaks the whole
        ``ProcessPoolExecutor``: every outstanding future raises
        ``BrokenProcessPool`` and the guilty member is indistinguishable
        from queued innocents.  Every member outstanding at the break is
        re-run *quarantined* — alone, in its own one-worker pool — so the
        crash attributes unambiguously: the poison member becomes a
        structured ``worker_crash`` result, innocents complete normally
        (runs are pure and seed-deterministic, so a re-run is exact).
        Total results always equal total members.
        """
        model_ref = self.model.source_dir
        results: list[dict] = []
        pending = list(self.scenarios)
        inflight: dict = {}
        executor = _fork_pool(workers)
        try:
            while pending or inflight:
                while pending and len(inflight) < 2 * workers:
                    member = pending.pop(0)
                    job = self._job(member, model_ref, timeout_s)
                    inflight[executor.submit(job)] = member
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                suspects: list[CampaignScenario] = []
                for future in done:
                    member = inflight.pop(future)
                    result = self._pool_result(member, future)
                    if result is None:
                        suspects.append(member)
                    else:
                        results.append(result)
                if suspects:
                    # Everything still in flight died with the pool.
                    suspects.extend(inflight.values())
                    inflight.clear()
                    executor.shutdown(wait=True, cancel_futures=True)
                    for member in suspects:
                        job = self._job(member, model_ref, timeout_s)
                        results.append(self._run_quarantined(member, job))
                    executor = _fork_pool(workers)
        finally:
            # Wait for worker teardown: an abandoned pool races
            # interpreter exit (atexit wakeup on a closed pipe).
            executor.shutdown(wait=True, cancel_futures=True)
        return results

    def _run_quarantined(self, member: CampaignScenario, job: partial) -> dict:
        """Re-run one pool-break suspect alone in a one-worker pool."""
        with _fork_pool(1) as executor:
            result = self._pool_result(member, executor.submit(job))
        return result or self._failed(
            member, "worker process died mid-run", worker_crash=True
        )

    def _pool_result(self, member: CampaignScenario, future) -> Optional[dict]:
        """``future``'s result, or ``None`` if the pool broke under it."""
        exc = future.exception()
        if exc is None:
            return future.result()
        if isinstance(exc, (BrokenProcessPool, OSError)):
            return None
        # run_one never raises; only a pickling failure lands here
        return self._failed(member, str(exc))  # pragma: no cover

    def _failed(self, member: CampaignScenario, error: str, **flags) -> dict:
        """The structured result of a run that returned none of its own."""
        return {
            "name": member.name,
            "source": member.source,
            "seed": self.member_seed(member),
            "passed": False,
            "error": error,
            **flags,
            "wall_s": 0.0,
        }

    # ------------------------------------------------------------------
    def _model_name(self) -> str:
        return self.model.source_dir or (
            self.model.ssds[0].header.id if self.model.ssds else "model"
        )


def resolve_workers(workers: Optional[int], reuse_range: bool = False) -> int:
    """The worker count a sweep runs on.  ``0``/``None`` means auto: one
    per CPU, or 1 for a reuse-range sweep, which is sequential by design."""
    if workers:
        return max(1, int(workers))
    return 1 if reuse_range else os.cpu_count() or 1


def _fork_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool, on ``fork`` where the platform has it: forked
    workers inherit the parsed-model cache and imported modules, spawned
    ones would re-import repro per pool."""
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


# ---------------------------------------------------------------------------
# Cross-model matrix
# ---------------------------------------------------------------------------


@dataclass
class MatrixReport:
    """Aggregate of one campaign sweep per model set (the matrix layer)."""

    workers: int
    reports: list[dict] = field(default_factory=list)  # {"model_set", "report"}
    wall_s: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.reports) and all(
            entry["report"]["passed"] for entry in self.reports
        )

    @property
    def scenario_count(self) -> int:
        return sum(e["report"]["scenario_count"] for e in self.reports)

    @property
    def scenarios_per_minute(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return 60.0 * self.scenario_count / self.wall_s

    def to_dict(self) -> dict:
        return {
            "matrix": True,
            "workers": self.workers,
            "passed": self.passed,
            "model_sets": [e["model_set"] for e in self.reports],
            "scenario_count": self.scenario_count,
            "wall_s": self.wall_s,
            "scenarios_per_minute": self.scenarios_per_minute,
            "reports": self.reports,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MatrixReport":
        return cls(
            workers=int(payload["workers"]),
            reports=[dict(entry) for entry in payload["reports"]],
            wall_s=float(payload["wall_s"]),
        )

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path

    def summary(self) -> str:
        lines = [
            f"=== matrix report: {len(self.reports)} model sets, "
            f"{self.workers} workers ==="
        ]
        for entry in self.reports:
            report = entry["report"]
            verdict = "PASS" if report["passed"] else "FAIL"
            lines.append(
                f"  [{verdict:>4}] {entry['model_set']}: "
                f"{report['passed_count']}/{report['scenario_count']} passed "
                f"({report['wall_s']:.2f}s wall)"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"=== matrix verdict: {verdict} ({self.scenario_count} scenarios, "
            f"{self.scenarios_per_minute:.1f}/min) ==="
        )
        return "\n".join(lines)


def run_matrix(
    model_sets: list[tuple[str, SgmlModelSet]],
    *,
    families: Optional[list[str]] = None,
    max_sites: int = 1,
    workers: Optional[int] = None,
    settle_s: float = 2.0,
    default_duration_s: float = 10.0,
    seed: int = 0,
    per_run_timeout_s: Optional[float] = None,
) -> MatrixReport:
    """One sweep over several model sets × catalog families.

    Each ``(label, model)`` pair generates its own catalog (``families``
    subset applies to all) and runs it through :meth:`Campaign.run` at
    the same worker count; the per-model reports are grouped into one
    :class:`MatrixReport`.  Per-scenario seeds derive from each
    campaign's members exactly as in a single sweep, so a matrix run of
    one model set equals that model set's standalone sweep.
    """
    if not model_sets:
        raise CampaignError("matrix sweep has no model sets")
    matrix = MatrixReport(workers=resolve_workers(workers))
    with Stopwatch() as clock:
        for label, model in model_sets:
            campaign = Campaign.from_catalog(
                model,
                families=families,
                max_sites=max_sites,
                settle_s=settle_s,
                default_duration_s=default_duration_s,
                seed=seed,
            )
            report = campaign.run(matrix.workers, per_run_timeout_s)
            matrix.reports.append(
                {"model_set": label, "report": report.to_dict()}
            )
    matrix.wall_s = clock.seconds
    return matrix
