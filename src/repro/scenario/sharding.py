"""Sharded campaigns: process-pool scenario sweeps + cross-model matrix.

Fresh-range campaign runs are fully independent simulators — every
scenario compiles its own :class:`~repro.range.CyberRange` from the same
model files — so a catalog sweep fans out across a
:class:`~concurrent.futures.ProcessPoolExecutor` without any shared
state.  This module is that fan-out layer:

* :func:`run_one` — the pure, picklable per-run unit.  Given a *model
  reference* (a model directory path, or an in-process
  :class:`~repro.sgml.modelset.SgmlModelSet`), a scenario spec dict and a
  seed, it compiles a fresh range, runs the scenario and returns the same
  per-run result dict :meth:`Campaign.run` produces serially.  Workers
  cache the parsed model set per directory (:data:`_MODEL_CACHE`), so a
  sweep pays one SCL parse per worker, not per scenario.  The run itself
  is :func:`run_on_range`, the step a reused-range sweep calls too.
* :func:`derive_seed` — deterministic per-scenario seeds,
  ``seed_root + stable_hash(name)``.  The hash is SHA-256-based (never
  :func:`hash`, which is salted per process), so serial, sharded and
  cross-process runs of the same campaign all see identical seeds and —
  because the whole co-simulation is seed-deterministic — identical
  verdicts, branch paths and data-plane deltas.  A run is reproducible
  from its report alone: recompile the model with the recorded ``seed``
  and re-run the spec.
* :class:`ShardedCampaign` — the executor.  Bounded in-flight futures,
  per-run timeouts enforced *inside* the worker (``SIGALRM``, so a hung
  run becomes a structured failed result without poisoning the pool),
  crash capture (a worker that dies mid-run breaks the pool; the pool is
  rebuilt, innocent runs are retried, and the poison run is recorded as
  ``{"passed": false, "worker_crash": true}``), and order-independent
  aggregation (:func:`aggregate_results`: results sorted by member name,
  so the report is invariant to completion order).  ``workers=1`` falls
  back to the exact serial :meth:`Campaign.run` path.
* :func:`run_matrix` / :class:`MatrixReport` — the cross-model layer:
  one sweep over several model sets × catalog families
  (``sgml campaign --matrix epic,scaleout``), with a matrix-grouped
  aggregate report.

Determinism contract (pinned by ``tests/test_campaign_sharding.py`` and
the CI ``campaign-smoke`` differential): for the same campaign,
``workers=N`` and ``workers=1`` produce per-run results that are
identical field for field, wall-clock fields excluded.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.scenario.campaign import (
    Campaign,
    CampaignError,
    CampaignReport,
    CampaignScenario,
)
from repro.scenario.scenario import Scenario
from repro.sgml.modelset import SgmlModelSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.range import CyberRange

#: Result fields that carry wall-clock measurements — excluded from the
#: sharded-vs-serial differential (everything else must match exactly).
WALL_CLOCK_FIELDS = frozenset({"wall_s"})


def strip_wall_clock(result: dict) -> dict:
    """A copy of a per-run result with every wall-clock field removed.

    Drops the top-level :data:`WALL_CLOCK_FIELDS` and the wall-time
    counters nested in ``data_plane_delta`` (``tick_wall_s`` and every
    ``*_wall_s`` key) — the only fields allowed to differ between a
    serial and a sharded run of the same scenario.
    """
    cleaned = {
        key: value
        for key, value in result.items()
        if key not in WALL_CLOCK_FIELDS
    }
    delta = cleaned.get("data_plane_delta")
    if isinstance(delta, dict):
        cleaned["data_plane_delta"] = {
            key: value
            for key, value in delta.items()
            if not key.endswith("_wall_s")
        }
    return cleaned

#: Per-worker cache of parsed model sets, keyed by model directory.  One
#: SCL parse per (worker, model dir) instead of one per scenario; with the
#: default ``fork`` start method a model already parsed in the parent is
#: inherited for free.
_MODEL_CACHE: dict[str, SgmlModelSet] = {}

#: Env var gating the fault-injection hooks (``x_sharding_test`` spec
#: key) used by the pool fault-path tests.  Never honored unless set.
TEST_HOOKS_ENV = "REPRO_SHARDING_TEST_HOOKS"

#: Spec key carrying a fault-injection hook (test-only, env-gated).
TEST_HOOK_KEY = "x_sharding_test"


def stable_hash(name: str) -> int:
    """A process-stable 32-bit hash of ``name`` (SHA-256 prefix).

    :func:`hash` is salted per interpreter, so it would break the
    serial == sharded seed contract; this never changes across processes,
    platforms or Python versions.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def derive_seed(seed_root: int, name: str) -> int:
    """The deterministic per-scenario seed: ``seed_root + stable_hash(name)``.

    Every fresh-range campaign run — dry or live, serial or sharded —
    records this value as ``result["seed"]``, making any run reproducible
    from the report alone.
    """
    return int(seed_root) + stable_hash(name)


def _resolve_model(model_ref: Union[str, SgmlModelSet]) -> SgmlModelSet:
    """Parse (and per-worker cache) a model reference."""
    if isinstance(model_ref, SgmlModelSet):
        return model_ref
    model = _MODEL_CACHE.get(model_ref)
    if model is None:
        model = SgmlModelSet.from_directory(model_ref)
        _MODEL_CACHE[model_ref] = model
    return model


class _RunTimeout(Exception):
    """Raised inside a worker when a run exceeds its timeout budget."""


def _apply_test_hook(hook: dict) -> None:
    """Fault injection for the pool tests (env-gated; see TEST_HOOKS_ENV)."""
    if "sleep_s" in hook:
        time.sleep(float(hook["sleep_s"]))
    if hook.get("raise"):
        raise RuntimeError(str(hook["raise"]))
    if hook.get("kill"):
        os.kill(os.getpid(), signal.SIGKILL)


def run_on_range(
    spec: dict,
    acquire_range: Callable[[], "CyberRange"],
    settle_s: float,
    duration_s: float,
    *,
    name: Optional[str] = None,
    source: str = "",
    seed: int,
    close: bool = False,
) -> dict:
    """Run one scenario spec on the range ``acquire_range()`` returns.

    The per-run step both campaign modes share: a fresh-range run
    acquires a newly compiled range and closes it afterwards (``close``),
    a reused-range sweep acquires the one shared range.  ``duration_s`` is
    the campaign default — a spec carrying its own ``duration_s`` wins.
    Never raises: any failure (parse, compile, run, timeout) comes back as
    a structured ``{"passed": False, "error": ...}`` result so one bad
    spec cannot sink a sweep.
    """
    result: dict = {
        "name": name if name is not None else str(spec.get("name", "scenario")),
        "source": source,
        "seed": int(seed),
    }
    # sgml: lint-ok[det-wallclock] wall accounting
    wall_start = time.perf_counter()
    try:
        scenario = Scenario.from_spec(spec)
        cyber_range = acquire_range()
        stats_before = cyber_range.data_plane_stats()
        run = cyber_range.run_scenario(
            scenario, scenario.duration_s or duration_s, settle_s=settle_s
        )
        stats_after = cyber_range.data_plane_stats()
        result.update(run.to_dict())
        result["branch_path"] = run.branch_path()
        result["data_plane_delta"] = {
            key: stats_after[key] - stats_before.get(key, 0)
            for key in stats_after
            if isinstance(stats_after[key], (int, float))
        }
        if close:
            cyber_range.close()
    except Exception as exc:
        result["passed"] = False
        result["error"] = str(exc)
        if isinstance(exc, _RunTimeout):
            result["timed_out"] = True
    # sgml: lint-ok[det-wallclock] wall accounting
    result["wall_s"] = time.perf_counter() - wall_start
    return result


def run_one(
    model_ref: Union[str, SgmlModelSet],
    spec: dict,
    seed: int,
    settle_s: float,
    duration_s: float,
    *,
    name: Optional[str] = None,
    source: str = "",
    timeout_s: Optional[float] = None,
) -> dict:
    """Execute one fresh-range scenario run; the picklable sweep unit.

    Compiles a range from ``model_ref`` under ``seed`` and hands it to
    :func:`run_on_range`, so it never raises either.  ``timeout_s`` is
    enforced with ``SIGALRM`` (worker processes run jobs on their main
    thread); on platforms without it the timeout is best-effort skipped.
    """
    hook = None
    if TEST_HOOK_KEY in spec and (
        os.environ.get(TEST_HOOKS_ENV, "") not in ("", "0")
    ):
        hook = spec[TEST_HOOK_KEY]
        spec = {k: v for k, v in spec.items() if k != TEST_HOOK_KEY}
    # (without the env var the marker key stays in the spec and is
    # rejected by Scenario.from_spec like any unknown field)

    def compile_range() -> "CyberRange":
        from repro.sgml.processor import SgmlProcessor

        if hook is not None:
            _apply_test_hook(hook)
        model = _resolve_model(model_ref)
        return SgmlProcessor(model, seed=int(seed)).compile()

    timer_armed = timeout_s is not None and hasattr(signal, "SIGALRM")
    if timer_armed:
        def _on_alarm(signum, frame):
            raise _RunTimeout(f"per-run timeout after {timeout_s:g}s")

        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        return run_on_range(
            spec, compile_range, settle_s, duration_s,
            name=name, source=source, seed=seed, close=True,
        )
    finally:
        if timer_armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def worker_crash_result(name: str, source: str, seed: int) -> dict:
    """The structured result recorded when a worker died mid-run."""
    return {
        "name": name,
        "source": source,
        "seed": int(seed),
        "passed": False,
        "error": "worker process died mid-run",
        "worker_crash": True,
        "wall_s": 0.0,
    }


def aggregate_results(
    results: list[dict],
    *,
    model: str,
    workers: int,
    wall_s: float,
    reuse_range: bool = False,
) -> CampaignReport:
    """Merge per-run results into a :class:`CampaignReport`.

    Order-independent by construction: results are sorted by member name,
    so any completion order — serial, sharded, shuffled — aggregates to
    the same report (pinned by the property test in
    ``tests/test_campaign_sharding.py``).
    """
    ordered = sorted(results, key=lambda r: str(r.get("name", "")))
    per_run_wall_s = sum(float(r.get("wall_s", 0.0)) for r in ordered)
    report = CampaignReport(
        model=model,
        dry_run=False,
        reuse_range=reuse_range,
        results=ordered,
        wall_s=wall_s,
        workers=int(workers),
        per_run_wall_s=per_run_wall_s,
        scenarios_per_minute=(
            60.0 * len(ordered) / wall_s if wall_s > 0 else 0.0
        ),
    )
    return report


class ShardedCampaign:
    """Fan a fresh-range :class:`Campaign` across a process pool.

    ``workers=1`` (or campaigns in ``reuse_range`` mode, which are
    inherently sequential) takes the exact serial :meth:`Campaign.run`
    path; the report is then re-aggregated through
    :func:`aggregate_results` so serial and sharded reports share one
    shape (name-sorted results + ``workers``/throughput fields).
    """

    def __init__(
        self,
        campaign: Campaign,
        *,
        workers: Optional[int] = None,
        per_run_timeout_s: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        self.campaign = campaign
        self.workers = max(1, int(workers if workers else os.cpu_count() or 1))
        self.per_run_timeout_s = per_run_timeout_s
        #: Bounded in-flight futures: never more than this many runs
        #: submitted at once, so a huge catalog cannot flood the pool's
        #: call queue with pickled specs.
        self.max_inflight = max(
            self.workers, int(max_inflight or 2 * self.workers)
        )

    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        campaign = self.campaign
        if self.workers == 1 or campaign.reuse_range:
            if campaign.reuse_range and self.workers > 1:
                raise CampaignError(
                    "reuse_range campaigns are sequential by design; "
                    "run with workers=1 (or drop reuse_range to shard)"
                )
            # sgml: lint-ok[det-wallclock] wall accounting
            start = time.perf_counter()
            serial = campaign.run()
            return aggregate_results(
                serial.results,
                model=serial.model,
                workers=1,
                # sgml: lint-ok[det-wallclock] wall accounting
                wall_s=time.perf_counter() - start,
                reuse_range=serial.reuse_range,
            )
        model_ref = campaign.model.source_dir
        if not model_ref:
            raise CampaignError(
                "sharded campaigns need a model directory to ship to "
                "workers (SgmlModelSet.source_dir is empty); "
                "use workers=1 for in-memory model sets"
            )
        # sgml: lint-ok[det-wallclock] wall accounting
        start = time.perf_counter()
        results = self._run_pool(model_ref, campaign.scenarios)
        return aggregate_results(
            results,
            model=campaign._model_name(),
            workers=self.workers,
            # sgml: lint-ok[det-wallclock] wall accounting
            wall_s=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _submit(self, executor, member: CampaignScenario):
        campaign = self.campaign
        return executor.submit(
            run_one,
            campaign.model.source_dir,
            member.spec,
            derive_seed(campaign.seed, member.name),
            campaign.settle_s,
            campaign.default_duration_s,
            name=member.name,
            source=member.source,
            timeout_s=self.per_run_timeout_s,
        )

    def _make_executor(self) -> ProcessPoolExecutor:
        import multiprocessing

        kwargs = {}
        if "fork" in multiprocessing.get_all_start_methods():
            # fork inherits the parsed-model cache and imported modules;
            # spawn workers would re-import repro per pool.
            kwargs["mp_context"] = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.workers, **kwargs)

    def _run_pool(
        self, model_ref: str, members: list[CampaignScenario]
    ) -> list[dict]:
        """Bounded-submission pool loop with crash capture.

        A worker dying (SIGKILL, hard crash) breaks the whole
        ``ProcessPoolExecutor``: every outstanding future raises
        ``BrokenProcessPool`` and the guilty member is indistinguishable
        from queued innocents.  Every member outstanding at the break is
        re-run *quarantined* — alone, in its own single-worker pool — so
        the crash attributes unambiguously: the poison member becomes a
        structured ``worker_crash`` result, innocents complete normally
        (runs are pure and seed-deterministic, so a re-run is exact).
        Total results always equal total members.
        """
        results: list[dict] = []
        pending = list(members)
        executor = self._make_executor()
        inflight: dict = {}
        try:
            while pending or inflight:
                while pending and len(inflight) < self.max_inflight:
                    member = pending.pop(0)
                    inflight[self._submit(executor, member)] = member
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                pool_broken = False
                suspects: list[CampaignScenario] = []
                for future in done:
                    member = inflight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        results.append(future.result())
                        continue
                    if self._is_pool_break(exc):
                        pool_broken = True
                        suspects.append(member)
                    else:  # pragma: no cover - run_one never raises
                        results.append(
                            {
                                "name": member.name,
                                "source": member.source,
                                "seed": derive_seed(
                                    self.campaign.seed, member.name
                                ),
                                "passed": False,
                                "error": str(exc),
                                "wall_s": 0.0,
                            }
                        )
                if pool_broken:
                    # Everything still in flight died with the pool.
                    suspects.extend(inflight.values())
                    inflight.clear()
                    executor.shutdown(wait=True, cancel_futures=True)
                    for member in suspects:
                        results.append(self._run_quarantined(member))
                    executor = self._make_executor()
        finally:
            # Wait for worker teardown: an abandoned pool races
            # interpreter exit (atexit wakeup on a closed pipe).
            executor.shutdown(wait=True, cancel_futures=True)
        return results

    def _run_quarantined(self, member: CampaignScenario) -> dict:
        """Re-run one pool-break suspect alone in a one-worker pool."""
        import multiprocessing

        kwargs = {}
        if "fork" in multiprocessing.get_all_start_methods():
            kwargs["mp_context"] = multiprocessing.get_context("fork")
        executor = ProcessPoolExecutor(max_workers=1, **kwargs)
        try:
            future = self._submit(executor, member)
            exc = future.exception()
            if exc is None:
                return future.result()
            if self._is_pool_break(exc):
                return worker_crash_result(
                    member.name,
                    member.source,
                    derive_seed(self.campaign.seed, member.name),
                )
            raise exc  # pragma: no cover - run_one never raises
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _is_pool_break(exc: BaseException) -> bool:
        from concurrent.futures.process import BrokenProcessPool

        return isinstance(exc, (BrokenProcessPool, OSError))


# ---------------------------------------------------------------------------
# Cross-model matrix
# ---------------------------------------------------------------------------


@dataclass
class MatrixReport:
    """Aggregate of one sharded sweep per model set (the matrix layer)."""

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
        import json

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
    subset applies to all) and runs it through a :class:`ShardedCampaign`
    at the same worker count; the per-model reports are grouped into one
    :class:`MatrixReport`.  Per-scenario seeds derive from each
    campaign's members exactly as in a single sweep, so a matrix run of
    one model set equals that model set's standalone sharded sweep.
    """
    if not model_sets:
        raise CampaignError("matrix sweep has no model sets")
    matrix = MatrixReport(
        workers=max(1, int(workers if workers else os.cpu_count() or 1))
    )
    # sgml: lint-ok[det-wallclock] wall accounting
    start = time.perf_counter()
    for label, model in model_sets:
        campaign = Campaign.from_catalog(
            model,
            families=families,
            max_sites=max_sites,
            settle_s=settle_s,
            default_duration_s=default_duration_s,
            seed=seed,
        )
        report = ShardedCampaign(
            campaign,
            workers=matrix.workers,
            per_run_timeout_s=per_run_timeout_s,
        ).run()
        matrix.reports.append(
            {"model_set": label, "report": report.to_dict()}
        )
    # sgml: lint-ok[det-wallclock] wall accounting
    matrix.wall_s = time.perf_counter() - start
    return matrix


def differential(serial: list[dict], sharded: list[dict]) -> list[str]:
    """Field-for-field mismatches between two result lists (empty = equal).

    The determinism contract: serial and sharded runs of the same
    campaign differ only in wall-clock fields (see
    :func:`strip_wall_clock`).  Results are matched by member name;
    phase records nested under ``phases`` are compared whole (their
    timings are virtual, hence deterministic).
    """
    problems: list[str] = []
    by_name_a = {r["name"]: r for r in serial}
    by_name_b = {r["name"]: r for r in sharded}
    if sorted(by_name_a) != sorted(by_name_b):
        return [
            f"member sets differ: {sorted(by_name_a)} vs {sorted(by_name_b)}"
        ]
    for name in sorted(by_name_a):
        left = strip_wall_clock(by_name_a[name])
        right = strip_wall_clock(by_name_b[name])
        if set(left) != set(right):
            problems.append(
                f"{name}: field sets differ: "
                f"{sorted(set(left) ^ set(right))}"
            )
            continue
        for key in sorted(left):
            if left[key] != right[key]:
                problems.append(
                    f"{name}.{key}: {left[key]!r} != {right[key]!r}"
                )
    return problems
