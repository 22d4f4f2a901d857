#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

Usage, from anywhere inside a checkout::

    python3 perfbench/run.py --workload grid20_steady --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that reports per-layer metrics.
``--all`` runs every workload, each in its own process (so each reports
its own peak RSS), and prints one table.  Metric names and units come
from ``BENCHMARK.json``; ``perfbench/README.md`` defines them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries provenance.  The program is built from ``src/`` of the same
checkout; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The load comes from one process with at most two threads (client and,
#: in ``serve_sessions``, the service); keep BLAS from adding a pool.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=workloads)
    target.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _provenance(workload: str, seed: int, trace: bool) -> dict:
    from perfbench.common import git_sha

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 wanted: list[dict]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src")]
    from perfbench import campaign, grid, serve
    from perfbench.common import WorkDir

    module = {
        "grid20_steady": grid,
        "grid5_storm": grid,
        "campaign_mix": campaign,
        "serve_sessions": serve,
    }[workload]
    with WorkDir(ROOT) as work:
        result = module.run(workload, seed, seconds, trace, work)
    units = {metric["name"]: metric["unit"] for metric in wanted}
    if set(result.metrics) != set(units):
        print(
            "error: metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(units) - set(result.metrics))}, extra "
            f"{sorted(set(result.metrics) - set(units))}",
            file=sys.stderr,
        )
        return 3
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": _provenance(workload, seed, trace)}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in a child process; a table of the results."""
    key = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[key]]
    results = {}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines:
            print(f"{name}: exit {child.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        print(lines[-2])
    width = max(len(n) for n in names)
    header = "".join(f"{w:>16}" for w in results)
    print(f"{'metric':<{width}}{header}")
    for field in ("correct", "attempted", "failed"):
        row = "".join(f"{str(r[field]):>16}" for r in results.values())
        print(f"{field:<{width}}{row}")
    for metric in names:
        row = "".join(
            f"{r['metrics'][metric]['value']:>16.6g}" for r in results.values()
        )
        print(f"{metric:<{width}}{row}")
    if not all(r["correct"] for r in results.values()):
        status = 1
    return status


def main(argv=None) -> int:
    # Import the benchmark as the ``perfbench`` package, not as loose
    # modules from this script's directory.
    sys.path[0] = str(ROOT)
    spec = _spec()
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args, spec)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), wanted)


if __name__ == "__main__":
    sys.exit(main())
