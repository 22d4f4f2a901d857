"""The per-run campaign unit and the determinism tools around it.

Fresh-range campaign runs are fully independent simulators — every
scenario compiles its own :class:`~repro.range.CyberRange` from the same
model files — so :meth:`~repro.scenario.campaign.Campaign.run` can place
each run in-process or in a pool worker.  This module holds what such a
run executes, with no dependency on the campaign layer above it:

* :func:`run_one` — the pure, picklable per-run unit.  Given a *model
  reference* (a model directory path, or an in-process
  :class:`~repro.sgml.modelset.SgmlModelSet`), a scenario spec dict and a
  seed, it compiles a fresh range, runs the scenario and returns one
  per-run result dict.  Workers cache the parsed model set per directory
  (:data:`_MODEL_CACHE`), so a sweep pays one SCL parse per worker, not
  per scenario.  A per-run timeout is enforced with ``SIGALRM`` wherever
  the call runs, so a hung run becomes a structured failed result.  The
  run itself is :func:`run_on_range`, the step a reused-range sweep calls
  too.
* :func:`derive_seed` — deterministic per-scenario seeds,
  ``seed_root + stable_hash(name)``.  The hash is SHA-256-based (never
  :func:`hash`, which is salted per process), so serial, sharded and
  cross-process runs of the same campaign all see identical seeds and —
  because the whole co-simulation is seed-deterministic — identical
  verdicts, branch paths and data-plane deltas.  A run is reproducible
  from its report alone: recompile the model with the recorded ``seed``
  and re-run the spec.
* :func:`differential` / :func:`strip_wall_clock` — the field-for-field
  comparison behind the determinism contract (pinned by
  ``tests/test_campaign_sharding.py`` and the CI ``campaign-smoke``
  differential): for the same campaign, ``workers=N`` and ``workers=1``
  produce per-run results that are identical field for field, wall-clock
  fields excluded.
* The env-gated fault-injection hooks (:data:`TEST_HOOKS_ENV`) the
  pool fault-path tests use.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from typing import TYPE_CHECKING, Callable, Optional, Union

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
    enforced with ``SIGALRM``, in a pool worker and in-process alike (both
    run on their main thread), and the previous ``SIGALRM`` handler is
    restored afterwards; on platforms without it the timeout is
    best-effort skipped.
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

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        return run_on_range(
            spec, compile_range, settle_s, duration_s,
            name=name, source=source, seed=seed, close=True,
        )
    finally:
        if timer_armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)


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
