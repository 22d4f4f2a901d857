"""Ablation — cyber↔physical coupling cost (DESIGN.md §5).

The paper (§II) lists three coupling options: simulator API, database, and
publish-subscribe, and deems all sufficient.  Our build uses the database
option (as the paper's artifact does).  This bench quantifies what the
database layer costs per 100 ms tick versus solving the power flow alone,
and versus a full tick with command draining — evidence for the paper's
"all of these options are regarded sufficient in practice".
"""

from conftest import print_report

from repro.powersim import run_power_flow
from repro.powersim.timeseries import TimeSeriesRunner
from repro.pointdb import PointRegistry
from repro.range import PowerCoupling
from repro.scl.merge import merge_ssd
from repro.sgml import generate_power_network

_timings: dict[str, float] = {}


def _epic_net(epic_model):
    return generate_power_network(merge_ssd(epic_model.ssds))


def test_ablation_solver_only(benchmark, epic_model):
    net = _epic_net(epic_model)
    benchmark(run_power_flow, net)
    _timings["solve only"] = benchmark.stats.stats.mean * 1000


def test_ablation_full_tick_with_database(benchmark, epic_model):
    net = _epic_net(epic_model)
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    tick = [0]

    def one_tick():
        tick[0] += 1
        coupling.tick(tick[0] * 0.1)

    benchmark(one_tick)
    _timings["tick + db publish"] = benchmark.stats.stats.mean * 1000


def test_ablation_tick_with_commands(benchmark, epic_model):
    net = _epic_net(epic_model)
    db = PointRegistry()
    coupling = PowerCoupling(net, TimeSeriesRunner(net), db)
    command = db.resolve("cmd/CB_T1/close")
    tick = [0]

    def tick_with_command():
        tick[0] += 1
        # A breaker command every tick (worst-case cyber activity).
        db.write_command(command, tick[0] % 2 == 0, writer="bench")
        coupling.tick(tick[0] * 0.1)

    benchmark(tick_with_command)
    _timings["tick + command"] = benchmark.stats.stats.mean * 1000

    rows = ["coupling variant                per-tick cost"]
    for label, cost in _timings.items():
        rows.append(f"{label:<30} {cost:9.3f} ms")
    if "solve only" in _timings and "tick + db publish" in _timings:
        overhead = _timings["tick + db publish"] - _timings["solve only"]
        budget = 100.0
        rows.append(
            f"database-layer overhead ≈ {overhead:.3f} ms of the "
            f"{budget:.0f} ms tick budget ({overhead / budget * 100:.1f}%)"
        )
    print_report("Ablation / coupling mechanism cost", rows)
