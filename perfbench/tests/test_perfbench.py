"""Tests of the benchmark itself: accounting, output checks, workload shape.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads

REFERENCES = Path(__file__).resolve().parent.parent / "references"


class FakeClock:
    """Advances by a fixed tick per read, so span times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_times_sum_to_root_wall_time_on_a_nested_tree() -> None:
    stack = tracing.SpanStack(clock=FakeClock())
    with stack.root("run"):
        stack.enter("engine", "run")
        stack.enter("simulator", "_on_tick")
        stack.enter("sched", "schedule")
        stack.enter("placement", "try_place")
        stack.exit()
        stack.enter("simulator", "_start_job")
        stack.enter("controlplane", "start")
        stack.exit()
        stack.exit()
        stack.exit()
        stack.exit()
        stack.enter("metrics", "summarize")
        stack.exit()
        stack.exit()

    layers = ("engine", "simulator", "sched", "placement", "controlplane", "metrics")
    total = sum(stack.layer_self(layer, "run") for layer in layers)
    total += stack.layer_self(tracing.ROOT, "run")
    assert total == stack.root_s["run"]
    # Each leaf span lasts exactly one tick; parents keep only their gaps.
    assert stack.layer_self("placement", "run") == 1.0
    assert stack.layer_self("controlplane", "run") == 1.0
    assert stack.layer_self("metrics", "run") == 1.0
    # schedule has three gaps between its children and its own ends;
    # the _start_job glue has two around its control-plane child.
    assert stack.layer_self("sched", "run") == 3.0
    assert stack.layer_self("simulator", "run") == 2.0 + 2.0
    assert stack.calls[("run", "simulator")] == 2


def test_wrapped_calls_account_exclusively_with_the_real_clock() -> None:
    stack = tracing.SpanStack()

    def leaf() -> int:
        return sum(range(2000))

    wrapped_leaf = tracing._span_wrapper(stack, "placement", "leaf", leaf)

    def middle() -> int:
        return wrapped_leaf() + wrapped_leaf() + sum(range(500))

    wrapped_middle = tracing._span_wrapper(stack, "sched", "middle", middle)
    with stack.root("run"):
        for _ in range(50):
            wrapped_middle()

    total = sum(seconds for (phase, _layer), seconds in stack.self_s.items() if phase == "run")
    assert total == pytest.approx(stack.root_s["run"], rel=1e-9, abs=1e-12)
    assert stack.calls[("run", "placement")] == 100
    merged = tracing.merge_spans([stack, stack])
    assert len(merged["start_s"]) == 2 * len(stack.start)
    assert set(merged["op"].tolist()) == {0, 1}


def test_install_and_remove_restore_every_entry_point() -> None:
    from repro.controlplane.controller import ClusterController
    from repro.sim.simulator import ClusterSimulator

    before = dict(ClusterController.__dict__), dict(ClusterSimulator.__dict__)
    installation = tracing.install(tracing.SpanStack())
    assert ClusterController.__dict__["start"] is not before[0]["start"]
    installation.remove()
    assert dict(ClusterController.__dict__) == before[0]
    assert dict(ClusterSimulator.__dict__) == before[1]


F10_OUTPUT = """\
== F10: Simulator scalability vs cluster size ==
gpus  jobs  events  sim_wall_s  events_per_s  sim_days_per_wall_s  placement_attempts  nodes_per_attempt  sched_pass_wall_s
----  ----  ------  ----------  ------------  -------------------  ------------------  -----------------  -----------------
32    47    240     0.023       10383.834     86.532               32                  1.062              0.004
64    105   446     0.017       26438.226     116.087              82                  1.049              0.008

== F10 series ==
gpus  events_per_s  sim_wall_s
----  ------------  ----------
32    10383.834     0.023
64    26438.226     0.017

The incremental cluster index keeps nodes-examined-per-attempt roughly flat.

[F10 regenerated in 0.7s at scale 0.1; cells 0 cached / 4 run; jobs 1]

== F11: Gang time-slicing ==
policy  sim_wall_s  wait_h
------  ----------  ------
gang    0.5         1.25

[F11 regenerated in 0.2s at scale 0.1; cells 2 cached / 0 run; jobs 1]
"""


def test_normalization_strips_only_footers_and_f10_timing_columns() -> None:
    normalized = workloads.normalize_suite_output(F10_OUTPUT)
    lines = normalized.splitlines()
    assert not any("regenerated in" in line for line in lines)
    assert "32  47  240  32  1.062" in lines
    assert "64  105  446  82  1.049" in lines
    assert "gpus  jobs  events  placement_attempts  nodes_per_attempt" in lines
    assert "32" in lines and "64" in lines  # the series keeps only gpus
    for column in workloads.F10_TIMING_COLUMNS:
        assert all(column not in line for line in lines[: lines.index("== F11: Gang time-slicing ==")])
    # Everything outside F10 survives byte for byte, timing-named or not.
    assert "policy  sim_wall_s  wait_h" in lines
    assert "gang    0.5         1.25" in lines
    assert "The incremental cluster index keeps nodes-examined-per-attempt roughly flat." in lines


def test_normalization_hides_timing_but_not_results() -> None:
    slower = F10_OUTPUT.replace("0.023", "0.031").replace("10383.834", "7700.125")
    assert workloads.suite_digest(slower) == workloads.suite_digest(F10_OUTPUT)
    changed = F10_OUTPUT.replace("1.062", "1.063")
    assert workloads.suite_digest(changed) != workloads.suite_digest(F10_OUTPUT)
    changed = F10_OUTPUT.replace("gang    0.5", "gang    0.6")
    assert workloads.suite_digest(changed) != workloads.suite_digest(F10_OUTPUT)


def _references(name: str) -> dict:
    return json.loads((REFERENCES / f"{name}.json").read_text())


def _costs(name: str) -> dict[int, int]:
    return {
        int(key): workloads.cost(entry["work"])
        for key, entry in _references(name)["instances"].items()
    }


@pytest.mark.parametrize("name", sorted(workloads.POOLS))
def test_every_pool_instance_has_a_reference(name: str) -> None:
    ordinary, held_out = workloads.POOLS[name]
    document = _references(name)
    assert document["parameters"] == workloads.PARAMETERS[name]
    assert sorted(map(int, document["instances"])) == list(range(ordinary + held_out))


@pytest.mark.parametrize("name", sorted(workloads.POOLS))
def test_held_out_seed_visits_only_its_own_slice(name: str) -> None:
    ordinary, held_out = workloads.POOLS[name]
    costs = _costs(name)
    held = workloads.instances(name, workloads.HELD_OUT_SEED, costs)
    assert sorted(held) == list(range(ordinary, ordinary + held_out))
    for seed in (0, 1, 12345):
        assert sorted(workloads.instances(name, seed, costs)) == list(range(ordinary))
    assert workloads.instances(name, 3, costs) == workloads.instances(name, 3, costs)
    assert workloads.instances(name, 3, costs) != workloads.instances(name, 4, costs)


def test_suite_warm_replays_a_middle_stratum_instance() -> None:
    costs = _costs("suite")
    ordinary = workloads.POOLS["suite"][0]
    ranked = sorted(range(ordinary), key=lambda instance: (costs[instance], instance))
    middle = set(np.array_split(ranked, workloads.STRATA["suite"])[1].tolist())
    for seed in range(20):
        assert workloads.instances("suite-warm", seed, costs)[0] in middle


def test_every_round_of_visits_covers_each_cost_stratum_once() -> None:
    costs = _costs("campus-congested")
    strata = workloads.STRATA["campus-congested"]
    ranked = sorted(costs, key=lambda instance: (costs[instance], instance))
    ranked = [i for i in ranked if i < workloads.POOLS["campus-congested"][0]]
    size = len(ranked) // strata
    stratum_of = {instance: rank // size for rank, instance in enumerate(ranked)}
    order = workloads.instances("campus-congested", 11, costs)
    for start in range(0, 10 * strata, strata):
        assert sorted(stratum_of[i] for i in order[start : start + strata]) == list(range(strata))


def _campus_run(instance: int, traced: bool = False):
    config = workloads.campus_config()
    installation = tracing.install(tracing.SpanStack()) if traced else None
    try:
        prepared = workloads.campus_setup(config, instance)
        result = prepared.simulator.run()
    finally:
        if installation is not None:
            installation.remove()
    return prepared.simulator, result


@pytest.mark.parametrize("instance", [0, 1, 2, 2048])
def test_campus_congested_stays_the_stress_workload(instance: int) -> None:
    simulator, result = _campus_run(instance)
    work = workloads.work_counters(simulator)
    assert work["blocked_hits"] > 0
    assert work["reservations"] > 0
    reference = _references("campus-congested")["instances"][str(instance)]
    assert workloads.simulation_digest(result, simulator) == reference["digest"]
    assert work == reference["work"]


def test_tracing_never_perturbs_the_simulation() -> None:
    untraced = workloads.simulation_digest(*reversed(_campus_run(5)))
    traced = workloads.simulation_digest(*reversed(_campus_run(5, traced=True)))
    assert traced == untraced


def test_fleet_window_stays_the_bypass_workload() -> None:
    prepared = workloads.fleet_setup(workloads.fleet_config(), 0)
    result = prepared.simulator.run()
    work = workloads.work_counters(prepared.simulator)
    assert work["blocked_hits"] == 0
    assert work["placement_attempts"] > 0
    reference = _references("fleet-window")["instances"]["0"]
    assert workloads.simulation_digest(result, prepared.simulator) == reference["digest"]


def test_recorded_pools_keep_their_shape() -> None:
    """Across its whole pool, held-out slice included, each workload stays
    on its side: fleet windows never block, congested episodes do (a rare
    light draw may not, so at most 1% of them are allowed to)."""
    fleet = [entry["work"] for entry in _references("fleet-window")["instances"].values()]
    assert all(work["blocked_hits"] == 0 for work in fleet)
    campus = [entry["work"] for entry in _references("campus-congested")["instances"].values()]
    stressed = [work for work in campus if work["blocked_hits"] > 0 and work["reservations"] > 0]
    assert len(stressed) >= 0.99 * len(campus)


def test_reported_metrics_match_the_benchmark_declaration() -> None:
    import run

    declared = json.loads((REFERENCES.parent.parent / "BENCHMARK.json").read_text())
    per_layer = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    reported = tracing.layer_metrics(tracing.Installation(tracing.SpanStack()))
    reported["trace.overhead"] = 1.0
    assert {name: run._unit(name) for name in reported} == per_layer
    end_to_end = {entry["name"] for entry in declared["end_to_end"]}
    assert end_to_end == {"setup_s", "run_s", "jobs_per_s", "peak_rss_mb"}
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
