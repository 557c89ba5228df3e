"""Workflow DAGs end-to-end: schema, compiler, synthesis, placement, sim.

Covers the layers the workflow tentpole threads together:

* :class:`~repro.schema.workflow.WorkflowSpec` — construction-time
  validation (duplicates, dangling references, cycles), topological order,
  critical-path bound, fingerprints, and the ``task.yaml``-subset parser;
* property tests: every random DAG topologically sorts consistently with
  its edges, and every cycle is rejected;
* :class:`~repro.compiler.workflow.WorkflowCompiler` — per-stage
  instructions in dependency order plus artifact placement hints;
* :mod:`~repro.workload.pipelines` — the pipeline trace synthesizer;
* :mod:`~repro.execlayer.transfer` — fabric-priced artifact movement;
* :class:`~repro.sched.placement.transfer_aware.TransferAwarePlacement`;
* the simulator's dependency-aware lifecycle: hold/release, upstream
  failure cascade, transfer charging, and the makespan ≥ critical-path
  invariant under the unit execution model.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import uniform_cluster
from repro.controlplane import Cause, LifecycleState
from repro.errors import (
    CompileError,
    ConfigError,
    SchemaError,
    SimulationError,
)
from repro.execlayer import (
    UnitExecutionModel,
    artifact_fetch_seconds,
    transfer_seconds,
)
from repro.schema import (
    ArtifactSpec,
    StageSpec,
    TaskSpec,
    WorkflowSpec,
    ensure_valid_workflow,
    parse_workflow_text,
    validate_spec,
    validate_workflow,
    workflow_from_dict,
)
from repro.compiler import WorkflowCompiler, placement_hint
from repro.sched import make_scheduler
from repro.sched.placement import make_placement
from repro.sched.placement.transfer_aware import TransferAwarePlacement
from repro.sim import ClusterSimulator, SimConfig
from repro.sim.metrics import workflow_rollup
from repro.workload import (
    FailureCategory,
    FailurePlan,
    PipelineSynthesizer,
    PipelineTraceConfig,
    Trace,
    pipeline_trace,
)
from tests.conftest import make_job


def _task(name: str) -> TaskSpec:
    return TaskSpec(name=name, entrypoint="python run.py")


def _wf(edges: dict[str, tuple[str, ...]], name: str = "wf") -> WorkflowSpec:
    return WorkflowSpec(
        name=name,
        stages=tuple(
            StageSpec(task=_task(stage), depends_on=deps)
            for stage, deps in edges.items()
        ),
    )


# --------------------------------------------------------------------------
# Schema layer
# --------------------------------------------------------------------------


class TestWorkflowSpec:
    def test_chain_topological_order(self):
        wf = _wf({"a": (), "b": ("a",), "c": ("b",)})
        assert wf.topological_order() == ("a", "b", "c")

    def test_declaration_order_tiebreak(self):
        wf = _wf({"z": (), "a": (), "m": ("z", "a")})
        assert wf.topological_order() == ("z", "a", "m")

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate stage names"):
            WorkflowSpec(
                name="wf",
                stages=(StageSpec(task=_task("a")), StageSpec(task=_task("a"))),
            )

    def test_dangling_dependency_rejected(self):
        with pytest.raises(SchemaError, match="unknown stage"):
            _wf({"a": ("ghost",)})

    def test_self_dependency_rejected(self):
        with pytest.raises(SchemaError, match="depends on itself"):
            StageSpec(task=_task("a"), depends_on=("a",))

    def test_cycle_rejected(self):
        with pytest.raises(SchemaError, match="cycle"):
            _wf({"a": ("b",), "b": ("a",)})

    def test_empty_workflow_rejected(self):
        with pytest.raises(SchemaError, match="no stages"):
            WorkflowSpec(name="wf", stages=())

    def test_artifact_edges_become_dependencies(self):
        wf = WorkflowSpec(
            name="wf",
            stages=(
                StageSpec(task=_task("produce")),
                StageSpec(task=_task("consume"), consumes=("data",)),
            ),
            artifacts=(ArtifactSpec(name="data", producer="produce", size_bytes=10),),
        )
        assert wf.dependencies_of("consume") == ("produce",)
        assert wf.inbound_bytes("consume") == 10
        assert wf.outbound_bytes("produce") == 10

    def test_undeclared_artifact_rejected(self):
        with pytest.raises(SchemaError, match="undeclared artifact"):
            WorkflowSpec(
                name="wf",
                stages=(StageSpec(task=_task("a"), consumes=("ghost",)),),
            )

    def test_consuming_own_artifact_rejected(self):
        with pytest.raises(SchemaError, match="its own artifact"):
            WorkflowSpec(
                name="wf",
                stages=(StageSpec(task=_task("a"), consumes=("data",)),),
                artifacts=(ArtifactSpec(name="data", producer="a", size_bytes=1),),
            )

    def test_artifact_cycle_rejected(self):
        # a --data--> b --back--> a is a cycle even with no depends_on.
        with pytest.raises(SchemaError, match="cycle"):
            WorkflowSpec(
                name="wf",
                stages=(
                    StageSpec(task=_task("a"), consumes=("back",)),
                    StageSpec(task=_task("b"), consumes=("data",)),
                ),
                artifacts=(
                    ArtifactSpec(name="data", producer="a", size_bytes=1),
                    ArtifactSpec(name="back", producer="b", size_bytes=1),
                ),
            )

    def test_critical_path_is_longest_chain(self):
        wf = _wf({"a": (), "b": (), "long": ("a",), "join": ("long", "b")})
        durations = {"a": 10.0, "b": 5.0, "long": 100.0, "join": 1.0}
        assert wf.critical_path_seconds(durations.__getitem__) == 111.0

    def test_fingerprint_stable_and_content_sensitive(self):
        wf1 = _wf({"a": (), "b": ("a",)})
        wf2 = _wf({"a": (), "b": ("a",)})
        wf3 = _wf({"a": (), "b": ()})
        assert wf1.fingerprint() == wf2.fingerprint()
        assert wf1.fingerprint() != wf3.fingerprint()


class TestWorkflowParser:
    YAML = """
workflow: nightly-rag
stages:
  - name: ingest
    entrypoint: python ingest.py
  - name: embed
    entrypoint: python embed.py
    consumes:
      - corpus
  - name: evaluate
    entrypoint: python eval.py
    depends_on:
      - embed
artifacts:
  - name: corpus
    producer: ingest
    size_bytes: 1073741824
"""

    def test_parse_yaml_subset(self):
        wf = parse_workflow_text(self.YAML)
        assert wf.name == "nightly-rag"
        assert wf.topological_order() == ("ingest", "embed", "evaluate")
        assert wf.dependencies_of("embed") == ("ingest",)
        assert wf.inbound_bytes("embed") == 1 << 30

    def test_parse_json(self):
        import json

        wf = parse_workflow_text(
            json.dumps(
                {
                    "workflow": "w",
                    "stages": [
                        {"name": "a", "entrypoint": "run"},
                        {"name": "b", "entrypoint": "run", "depends_on": ["a"]},
                    ],
                }
            )
        )
        assert wf.topological_order() == ("a", "b")

    def test_missing_name_rejected(self):
        with pytest.raises(SchemaError, match="workflow"):
            workflow_from_dict({"stages": [{"name": "a", "entrypoint": "run"}]})

    def test_empty_stages_rejected(self):
        with pytest.raises(SchemaError, match="non-empty"):
            workflow_from_dict({"workflow": "w", "stages": []})

    def test_unknown_stage_key_rejected(self):
        with pytest.raises(SchemaError):
            workflow_from_dict(
                {
                    "workflow": "w",
                    "stages": [{"name": "a", "entrypoint": "run", "bogus": 1}],
                }
            )


class TestWorkflowValidation:
    def test_valid_workflow_no_issues(self):
        assert validate_workflow(_wf({"a": (), "b": ("a",)})) == []

    def test_duplicate_file_paths_reported(self):
        # The TaskSpec constructor rejects duplicates; the validator must
        # catch them on specs arriving through other construction paths.
        from repro.schema import FileSpec

        spec = TaskSpec.__new__(TaskSpec)
        object.__setattr__(spec, "name", "t")
        object.__setattr__(spec, "entrypoint", "run")
        dup = FileSpec(path="train.py", size_bytes=1, sha256="0" * 64)
        object.__setattr__(spec, "code_files", (dup, dup))
        object.__setattr__(spec, "datasets", ())
        object.__setattr__(spec, "model", "")
        issues = validate_spec(spec)
        assert any(
            issue.severity == "error" and "duplicate file paths" in issue.message
            for issue in issues
        )

    def test_stage_issues_carry_stage_prefix(self):
        wf = WorkflowSpec(
            name="wf",
            stages=(
                StageSpec(
                    task=TaskSpec(name="s", entrypoint="run", model="not-a-model")
                ),
            ),
        )
        issues = validate_workflow(wf)
        assert issues and issues[0].field.startswith("stages[s].")
        with pytest.raises(SchemaError, match="failed validation"):
            ensure_valid_workflow(wf)


# --------------------------------------------------------------------------
# Property tests: toposort and cycle rejection (satellite 2)
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_dags_sort_consistently_with_their_edges(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    names = [f"s{i}" for i in range(n)]
    edges = {}
    for i, name in enumerate(names):
        upstream = data.draw(
            st.lists(st.sampled_from(names[:i]), unique=True, max_size=i)
            if i
            else st.just([])
        )
        edges[name] = tuple(upstream)
    wf = _wf(edges)
    order = wf.topological_order()
    assert sorted(order) == sorted(names)
    position = {name: index for index, name in enumerate(order)}
    for name, upstream in edges.items():
        for dep in upstream:
            assert position[dep] < position[name]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=5),
)
def test_every_cycle_is_rejected(cycle_len, offset):
    names = [f"s{(i + offset) % cycle_len}" for i in range(cycle_len)]
    edges = {name: (names[(i + 1) % cycle_len],) for i, name in enumerate(names)}
    with pytest.raises(SchemaError, match="cycle"):
        _wf(edges)


# --------------------------------------------------------------------------
# Workflow compiler
# --------------------------------------------------------------------------


class TestWorkflowCompiler:
    def _workflow(self) -> WorkflowSpec:
        return WorkflowSpec(
            name="pipeline",
            stages=(
                StageSpec(task=_task("prep")),
                StageSpec(task=_task("train"), consumes=("dataset",)),
                StageSpec(
                    task=_task("eval"), depends_on=("train",), consumes=("dataset",)
                ),
            ),
            artifacts=(
                ArtifactSpec(name="dataset", producer="prep", size_bytes=2 << 30),
            ),
        )

    def test_stages_compile_in_topological_order(self):
        result = WorkflowCompiler().compile(self._workflow(), {})
        assert result.order == ("prep", "train", "eval")
        assert [s.stage for s in result.stages] == ["prep", "train", "eval"]
        assert result.stage_result("eval").depends_on == ("train", "prep")
        assert result.stage_result("train").fetch_bytes == 2 << 30
        assert result.fingerprint == self._workflow().fingerprint()

    def test_hints_cover_every_consumer_edge(self):
        result = WorkflowCompiler().compile(self._workflow(), {})
        assert {(h.producer, h.consumer) for h in result.hints} == {
            ("prep", "train"),
            ("prep", "eval"),
        }
        assert all(h.placement == "colocate" for h in result.hints)

    def test_placement_hint_thresholds(self):
        assert placement_hint(2 << 30) == "colocate"
        assert placement_hint(128 << 20) == "rack-local"
        assert placement_hint(1 << 20) == "any"

    def test_unknown_workspace_rejected(self):
        with pytest.raises(CompileError, match="unknown stages"):
            WorkflowCompiler().compile(self._workflow(), {"ghost": {}})

    def test_unknown_stage_lookup_raises(self):
        result = WorkflowCompiler().compile(self._workflow(), {})
        with pytest.raises(CompileError, match="no compiled stage"):
            result.stage_result("ghost")


# --------------------------------------------------------------------------
# Pipeline trace synthesis
# --------------------------------------------------------------------------


class TestPipelineSynthesizer:
    def test_deterministic_per_seed(self):
        a = pipeline_trace(days=0.5, workflows_per_day=20, seed=7)
        b = pipeline_trace(days=0.5, workflows_per_day=20, seed=7)
        assert a.frozen_rows() == b.frozen_rows()
        c = pipeline_trace(days=0.5, workflows_per_day=20, seed=8)
        assert a.frozen_rows() != c.frozen_rows()

    def test_dependencies_stay_inside_the_workflow(self):
        trace = pipeline_trace(days=1.0, workflows_per_day=30, seed=3)
        by_id = {job.job_id: job for job in trace}
        assert any(job.depends_on for job in trace)
        for job in trace:
            assert job.workflow_id is not None
            for upstream_id in job.depends_on:
                upstream = by_id[upstream_id]
                assert upstream.workflow_id == job.workflow_id
                assert upstream.submit_time == job.submit_time

    def test_artifacts_exactly_on_stages_with_dependents(self):
        trace = pipeline_trace(days=1.0, workflows_per_day=30, seed=3)
        consumed = {up for job in trace for up in job.depends_on}
        for job in trace:
            if job.job_id in consumed:
                assert job.artifact_bytes > 0, job.job_id
            else:
                assert job.artifact_bytes == 0.0, job.job_id

    def test_template_mix_validation(self):
        with pytest.raises(ConfigError, match="unknown workflow templates"):
            PipelineTraceConfig(template_mix={"mystery": 1.0})
        with pytest.raises(ConfigError, match="sum to 1"):
            PipelineTraceConfig(template_mix={"chain": 0.5})

    def test_single_template_shapes(self):
        for template, min_stages in (
            ("chain", 3),
            ("fan-out", 3),
            ("fan-in", 3),
            ("rag", 5),
        ):
            config = PipelineTraceConfig(
                days=1.0, workflows_per_day=10.0, template_mix={template: 1.0}
            )
            trace = PipelineSynthesizer(config, seed=1).generate()
            workflows: dict[str, int] = {}
            for job in trace:
                workflows[job.workflow_id] = workflows.get(job.workflow_id, 0) + 1
                assert job.name.startswith(f"{template}:")
            assert workflows
            assert all(count >= min_stages for count in workflows.values())


# --------------------------------------------------------------------------
# Transfer pricing
# --------------------------------------------------------------------------


class TestTransferPricing:
    def test_same_node_is_free_and_cross_node_priced(self):
        cluster = uniform_cluster(4, gpus_per_node=2)
        nodes = sorted(cluster.nodes)
        topo = cluster.topology
        assert transfer_seconds(10e9, (nodes[0],), (nodes[0],), topo) == 0.0
        cross = transfer_seconds(10e9, (nodes[0],), (nodes[3],), topo)
        assert cross == pytest.approx(10e9 * 8 / 1e9 / 100.0)
        # The artifact travels once over the widest pair: a same-node
        # destination anywhere in the set makes the whole fetch free.
        assert transfer_seconds(10e9, (nodes[0],), (nodes[3], nodes[0]), topo) == 0.0

    def test_zero_size_and_missing_endpoints_are_free(self):
        cluster = uniform_cluster(2, gpus_per_node=2)
        nodes = sorted(cluster.nodes)
        topo = cluster.topology
        assert transfer_seconds(0.0, (nodes[0],), (nodes[1],), topo) == 0.0
        assert transfer_seconds(10e9, (), (nodes[1],), topo) == 0.0

    def test_artifact_fetch_sums_per_upstream(self):
        cluster = uniform_cluster(4, gpus_per_node=2)
        nodes = sorted(cluster.nodes)
        up1 = make_job(job_id="u1", artifact_bytes=10e9)
        up1.last_nodes = (nodes[0],)
        up2 = make_job(job_id="u2", artifact_bytes=20e9)
        up2.last_nodes = (nodes[1],)
        control = make_job(job_id="u3")  # pure control edge, no artifact
        consumer = make_job(job_id="c", depends_on=("u1", "u2", "u3"))
        jobs = {j.job_id: j for j in (up1, up2, control, consumer)}
        total = artifact_fetch_seconds(consumer, (nodes[3],), jobs, cluster.topology)
        assert total == pytest.approx((10e9 + 20e9) * 8 / 1e9 / 100.0)


# --------------------------------------------------------------------------
# Transfer-aware placement
# --------------------------------------------------------------------------


class TestTransferAwarePlacement:
    def test_colocates_with_the_artifact(self):
        cluster = uniform_cluster(4, gpus_per_node=2)
        nodes = sorted(cluster.nodes)
        upstream = make_job(job_id="up", artifact_bytes=50e9)
        upstream.last_nodes = (nodes[2],)
        consumer = make_job(job_id="down", depends_on=("up",))
        policy = TransferAwarePlacement()
        policy.bind({j.job_id: j for j in (upstream, consumer)})
        placement = policy.place_job(cluster, consumer)
        assert placement == {nodes[2]: 1}

    def test_plain_jobs_match_best_fit(self):
        cluster = uniform_cluster(4, gpus_per_node=2)
        cluster.allocate("filler", {sorted(cluster.nodes)[1]: 1})
        job = make_job(job_id="plain")
        policy = TransferAwarePlacement()
        policy.bind({job.job_id: job})
        best_fit = make_placement("best-fit")
        assert policy.place_job(cluster, job) == best_fit.place(
            cluster, job.request
        )

    def test_defers_for_extreme_fetch_while_data_node_busy(self):
        cluster = uniform_cluster(2, gpus_per_node=2)
        nodes = sorted(cluster.nodes)
        # A titanic artifact sits on a full node: every available placement
        # pays > defer_threshold_s of transfer.
        upstream = make_job(job_id="up", artifact_bytes=50_000e9)
        upstream.last_nodes = (nodes[0],)
        cluster.allocate("occupant", {nodes[0]: 2})
        consumer = make_job(job_id="down", depends_on=("up",))
        policy = TransferAwarePlacement(defer_threshold_s=600.0, max_defers=2)
        policy.bind({j.job_id: j for j in (upstream, consumer)})
        assert policy.place_job(cluster, consumer) is None
        assert policy.place_job(cluster, consumer) is None
        # Patience exhausted: place anyway, eating the transfer.
        assert policy.place_job(cluster, consumer) == {nodes[1]: 1}

    def test_never_defers_when_data_nodes_idle(self):
        cluster = uniform_cluster(2, gpus_per_node=2)
        nodes = sorted(cluster.nodes)
        upstream = make_job(job_id="up", artifact_bytes=50_000e9)
        upstream.last_nodes = (nodes[0],)
        consumer = make_job(job_id="down", depends_on=("up",))
        policy = TransferAwarePlacement(defer_threshold_s=600.0, max_defers=2)
        policy.bind({j.job_id: j for j in (upstream, consumer)})
        # Data node idle: the fetch is huge but nothing is coming to free
        # capacity, so deferral would wait on an event that never fires.
        assert policy.place_job(cluster, consumer) == {nodes[0]: 1}


# --------------------------------------------------------------------------
# Simulator: dependency-aware lifecycle
# --------------------------------------------------------------------------


def _run(jobs, nodes=2, gpus_per_node=2, **config_kwargs):
    cluster = uniform_cluster(nodes, gpus_per_node=gpus_per_node)
    simulator = ClusterSimulator(
        cluster,
        make_scheduler("fifo"),
        Trace(jobs, name="t"),
        exec_model=UnitExecutionModel(),
        config=SimConfig(
            sample_interval_s=0.0, audit=True, **config_kwargs
        ),
    )
    return simulator, simulator.run()


class TestDependencyLifecycle:
    def test_downstream_waits_for_upstream(self):
        a = make_job(job_id="a", duration=100.0, workflow_id="w")
        b = make_job(
            job_id="b", duration=50.0, workflow_id="w", depends_on=("a",)
        )
        a.artifact_bytes = 1e9
        sim, result = _run([a, b])
        assert a.lifecycle is LifecycleState.FINISHED
        assert b.lifecycle is LifecycleState.FINISHED
        assert b.deps_released_at == pytest.approx(a.end_time)
        assert b.first_start_time >= a.end_time
        timeline = sim.controller.log.for_job("b")
        assert any(t.target is LifecycleState.PENDING_DEPS for t in timeline)

    def test_ready_dependency_admits_immediately(self):
        a = make_job(job_id="a", duration=10.0, workflow_id="w")
        b = make_job(
            job_id="b",
            duration=10.0,
            submit_time=5000.0,
            workflow_id="w",
            depends_on=("a",),
        )
        sim, result = _run([a, b])
        assert b.deps_released_at is None  # never held: upstream already done
        assert b.first_start_time == pytest.approx(5000.0)

    def test_upstream_failure_cascades(self):
        a = make_job(
            job_id="a",
            duration=100.0,
            workflow_id="w",
            failure_plan=FailurePlan(FailureCategory.USER_ERROR, 0.5),
        )
        b = make_job(job_id="b", duration=50.0, workflow_id="w", depends_on=("a",))
        c = make_job(job_id="c", duration=50.0, workflow_id="w", depends_on=("b",))
        sim, result = _run([a, b, c])
        assert a.lifecycle is LifecycleState.FAILED
        assert b.lifecycle is LifecycleState.KILLED
        assert c.lifecycle is LifecycleState.KILLED
        for held in ("b", "c"):
            final = sim.controller.log.for_job(held)[-1]
            assert final.cause is Cause.UPSTREAM_FAILED

    def test_unknown_dependency_rejected_at_construction(self):
        b = make_job(job_id="b", depends_on=("ghost",))
        with pytest.raises(SimulationError, match="unknown job"):
            ClusterSimulator(
                uniform_cluster(1),
                make_scheduler("fifo"),
                Trace([b], name="t"),
            )

    def test_fan_in_waits_for_all_upstreams(self):
        a = make_job(job_id="a", duration=100.0, workflow_id="w")
        b = make_job(job_id="b", duration=300.0, workflow_id="w")
        join = make_job(
            job_id="j", duration=10.0, workflow_id="w", depends_on=("a", "b")
        )
        sim, result = _run([a, b, join], nodes=2, gpus_per_node=2)
        assert join.deps_released_at == pytest.approx(
            max(a.end_time, b.end_time)
        )

    def test_workflow_metrics_and_critical_path_bound(self):
        trace = pipeline_trace(days=0.25, workflows_per_day=40, seed=5)
        cluster = uniform_cluster(6, gpus_per_node=8)
        simulator = ClusterSimulator(
            cluster,
            make_scheduler("backfill-easy"),
            trace,
            exec_model=UnitExecutionModel(),
            config=SimConfig(
                sample_interval_s=0.0, audit=True
            ),
        )
        result = simulator.run()
        workflow = result.metrics.workflow
        assert workflow is not None
        assert workflow.completed_workflows > 0
        # Satellite 3: simulated makespan respects the analytical bound
        # (also checked by the simulator's end-of-run audit).  Tolerance
        # matches that check: summing the same chain of stage
        # durations in a different order drifts by ~1e-12.
        assert workflow.min_slack_s >= -1e-6
        assert workflow.makespan_mean_s >= workflow.critical_path_mean_s - 1e-6
        assert workflow.transfer_seconds > 0.0
        row = result.summary()
        assert row["wf_makespan_mean_h"] >= row["wf_critical_path_h"]

    def test_non_workflow_runs_report_no_workflow_metrics(self):
        a = make_job(job_id="a", duration=10.0)
        sim, result = _run([a])
        assert result.metrics.workflow is None
        assert "wf_makespan_mean_h" not in result.summary()

    def test_run_report_carries_workflow_section(self):
        from repro.ops.dashboard import run_report

        trace = pipeline_trace(days=0.25, workflows_per_day=30, seed=2)
        cluster = uniform_cluster(4, gpus_per_node=8)
        simulator = ClusterSimulator(
            cluster,
            make_scheduler("fifo"),
            trace,
            exec_model=UnitExecutionModel(),
            config=SimConfig(sample_interval_s=0.0),
        )
        report = run_report(simulator.run())
        assert "workflows:" in report
        assert "critical path" in report
        assert "dependency hold" in report
        # Non-workflow runs must not grow the section.
        plain = _run([make_job(job_id="solo", duration=10.0)])[1]
        assert "workflows:" not in run_report(plain)


# --------------------------------------------------------------------------
# Sweep integration
# --------------------------------------------------------------------------


class TestSweepWorkflowCells:
    def _cell(self, **overrides):
        from repro.sweep import (
            ClusterSpec,
            SchedulerSpec,
            SimCell,
            TraceSpec,
            WorkflowTraceSpec,
        )

        kwargs = dict(
            trace=TraceSpec(days=1.0, synth_seed=0, load=0.2, load_gpus=32),
            scheduler=SchedulerSpec(name="fifo"),
            cluster=ClusterSpec(kind="uniform", nodes=4),
            exec_model={"unit": True},
            workflow=WorkflowTraceSpec(days=1.0, workflows_per_day=8.0),
            sim={"sample_interval_s": 0.0},
        )
        kwargs.update(overrides)
        return SimCell(**kwargs)

    def test_run_cell_merges_workflow_jobs(self):
        from repro.sweep import build_trace, run_cell

        cell = self._cell()
        rows = build_trace(cell.trace).frozen_rows()
        result = run_cell(cell, rows)
        assert result.summary["workflows"] > 0
        assert "wf_makespan_mean_h" in result.summary
        assert result.trace_jobs > len(rows)
        assert any(job_id.startswith("wf-") for job_id in result.jobs)

    def test_workflow_cells_reject_federation(self):
        from repro.federation.spec import FederationSpec, SiteSpec
        from repro.sweep import ClusterSpec, SchedulerSpec, build_trace, run_cell

        cell = self._cell(
            federation=FederationSpec(
                sites=(
                    SiteSpec(
                        name="s",
                        cluster=ClusterSpec(kind="uniform", nodes=2),
                        scheduler=SchedulerSpec(name="fifo"),
                    ),
                )
            )
        )
        rows = build_trace(cell.trace).frozen_rows()
        with pytest.raises(ConfigError, match="not supported in federated"):
            run_cell(cell, rows)

    def test_unit_exec_model_rejects_extra_parameters(self):
        from repro.sweep.build import build_exec_model

        assert isinstance(build_exec_model({"unit": True}), UnitExecutionModel)
        with pytest.raises(ConfigError, match="no other parameters"):
            build_exec_model({"unit": True, "seed": 3})

    def test_workflow_spec_is_plain_data(self):
        from repro.sweep import canonical_json

        cell = self._cell()
        encoded = canonical_json(cell)
        assert '"workflows_per_day":8.0' in encoded


class TestWorkflowRollup:
    def test_rollup_handles_dependency_cycles_with_nan(self):
        # A cyclic job group cannot come from the simulator (the lifecycle
        # holds it forever) but the rollup is a pure function and must not
        # loop or crash on one.
        a = make_job(job_id="a", workflow_id="w", depends_on=("b",))
        b = make_job(job_id="b", workflow_id="w", depends_on=("a",))
        metrics = workflow_rollup({"a": a, "b": b}.values(), 0.0)
        assert metrics is not None
        assert metrics.completed_workflows == 0

    def test_rollup_none_without_workflow_jobs(self):
        assert workflow_rollup([make_job(job_id="a")], 0.0) is None
