"""Tests for trace containers, serialisation, and model assignment."""

from __future__ import annotations

import csv
import json

import pytest

from repro.errors import ConfigError, TraceError
from repro.workload import (
    FailureCategory,
    FailurePlan,
    JobTier,
    LifecycleState,
    MODEL_CATALOG,
    Trace,
    assign_models,
    default_profile_for,
    get_model_profile,
    profile_of,
    synthesize,
)
from tests.conftest import make_job


def small_trace():
    jobs = [
        make_job("job-000002", submit_time=200.0, num_gpus=8, duration=7200.0),
        make_job("job-000000", submit_time=0.0, num_gpus=1, duration=600.0),
        make_job(
            "job-000001",
            submit_time=100.0,
            num_gpus=2,
            duration=1800.0,
            tier=JobTier.OPPORTUNISTIC,
            interactive=True,
            failure_plan=FailurePlan(FailureCategory.OOM, 0.5),
            gpu_type="a100-80",
            gpus_per_node=2,
            name="demo",
        ),
    ]
    return Trace(jobs, name="small")


#: Every float column of the trace formats; each must be a finite number.
FLOAT_COLUMNS = [
    "submit_time",
    "duration",
    "memory_gb_per_gpu",
    "walltime_estimate",
    "failure_at_fraction",
    "dataset_gb",
    "artifact_bytes",
]


def _both_formats_with(tmp_path, **changes):
    """``small_trace`` as CSV and JSONL, its first row's *changes* applied."""
    trace = small_trace()
    csv_path, jsonl_path = tmp_path / "trace.csv", tmp_path / "trace.jsonl"
    trace.to_csv(csv_path)
    trace.to_jsonl(jsonl_path)
    with csv_path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    rows[0].update(changes)
    with csv_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    lines = jsonl_path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), **changes})
    jsonl_path.write_text("\n".join(lines) + "\n")
    return [(csv_path, Trace.from_csv), (jsonl_path, Trace.from_jsonl)]


class TestTraceBasics:
    def test_sorted_by_submit_time(self):
        trace = small_trace()
        assert [job.job_id for job in trace] == ["job-000000", "job-000001", "job-000002"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TraceError, match="duplicate"):
            Trace([make_job("a"), make_job("a")])

    def test_span_and_gpu_seconds(self):
        trace = small_trace()
        assert trace.span_seconds == 200.0
        assert trace.total_gpu_seconds_requested == 600 + 2 * 1800 + 8 * 7200

    def test_filter_and_head(self):
        trace = small_trace()
        wide = trace.filter(lambda job: job.num_gpus >= 2)
        assert len(wide) == 2
        assert len(trace.head(1)) == 1

    def test_users_and_labs(self):
        trace = small_trace()
        assert trace.users() == ("user-00-00",)
        assert trace.labs() == ("lab-00",)

    def test_histograms(self):
        trace = small_trace()
        assert trace.gpu_demand_histogram() == {1: 1, 2: 1, 8: 1}
        hours = trace.gpu_hours_by_demand()
        assert hours[8] == pytest.approx(16.0)

    def test_summary_fields(self):
        summary = small_trace().summary()
        assert summary["jobs"] == 3.0
        assert summary["single_gpu_fraction"] == pytest.approx(1 / 3)

    def test_empty_trace_summary(self):
        assert Trace([]).summary() == {"jobs": 0.0}
        assert Trace([]).span_seconds == 0.0


class TestSerialisation:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_roundtrip_preserves_static_fields(self, tmp_path, fmt):
        trace = small_trace()
        path = tmp_path / f"trace.{fmt}"
        getattr(trace, f"to_{fmt}")(path)
        restored = getattr(Trace, f"from_{fmt}")(path)
        assert len(restored) == len(trace)
        for original, loaded in zip(trace, restored):
            assert loaded.job_id == original.job_id
            assert loaded.submit_time == original.submit_time
            assert loaded.duration == original.duration
            assert loaded.request == original.request
            assert loaded.tier == original.tier
            assert loaded.interactive == original.interactive
            assert loaded.failure_plan == original.failure_plan
            assert loaded.walltime_estimate == original.walltime_estimate
            assert loaded.name == original.name

    def test_jsonl_preserves_metadata(self, tmp_path):
        trace = small_trace()
        trace.metadata["origin"] = "unit-test"
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        restored = Trace.from_jsonl(path)
        assert restored.name == "small"
        assert restored.metadata == {"origin": "unit-test"}

    def test_runtime_state_not_serialised(self, tmp_path):
        trace = small_trace()
        trace.jobs[0].start(0.0, ("n1",))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        restored = Trace.from_csv(path)
        assert restored.jobs[0].lifecycle is LifecycleState.PENDING
        assert restored.jobs[0].attempts == 0

    def test_csv_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("job_id,user_id\n1,u\n")
        with pytest.raises(TraceError, match="missing columns"):
            Trace.from_csv(path)

    def test_csv_bad_row_reports_line(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        content = path.read_text().splitlines()
        content[1] = content[1].replace("600.0", "not-a-number")
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(TraceError, match=":2:"):
            Trace.from_csv(path)

    def test_infinite_gpu_count_is_a_trace_error(self, tmp_path):
        for path, read in _both_formats_with(tmp_path, num_gpus="inf"):
            with pytest.raises(TraceError, match=":2: bad trace"):
                read(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_non_finite_number_is_a_trace_error(self, tmp_path, column, value):
        changes = {column: value}
        if column == "failure_at_fraction":
            changes["failure_category"] = FailureCategory.OOM.value
        for path, read in _both_formats_with(tmp_path, **changes):
            with pytest.raises(TraceError, match=f":2: bad trace .*{column}"):
                read(path)

    def test_jsonl_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace": "x", "metadata": {}}\n{broken\n')
        with pytest.raises(TraceError, match=":2:"):
            Trace.from_jsonl(path)


class TestModelProfiles:
    def test_catalog_lookup(self):
        assert get_model_profile("resnet50").gradient_mb == pytest.approx(98.0)
        with pytest.raises(ConfigError, match="known models"):
            get_model_profile("resnet-9000")

    def test_comm_intensity_ordering(self):
        assert (
            get_model_profile("pointnet").comm_intensity
            < get_model_profile("resnet50").comm_intensity
            < get_model_profile("gpt2-xl").comm_intensity
        )

    def test_default_profile_by_width(self):
        assert default_profile_for(1).name == "resnet50"
        assert default_profile_for(8).name == "bert-base"
        assert default_profile_for(64).name == "bert-large"

    def test_assign_models_covers_all_jobs_and_is_deterministic(self):
        trace_a = synthesize("tacc-campus", days=1.0, seed=5, jobs_per_day=80)
        trace_b = synthesize("tacc-campus", days=1.0, seed=5, jobs_per_day=80)
        assign_models(trace_a, seed=9)
        assign_models(trace_b, seed=9)
        assert all(job.model_name in MODEL_CATALOG for job in trace_a)
        assert [j.model_name for j in trace_a] == [j.model_name for j in trace_b]

    def test_assign_models_respects_existing(self):
        trace = small_trace()
        trace.jobs[0].model_name = "gpt2-xl"
        assign_models(trace, seed=0)
        assert trace.jobs[0].model_name == "gpt2-xl"

    def test_profile_of_falls_back(self):
        job = make_job(num_gpus=16)
        assert profile_of(job).name == "bert-large"
        job.model_name = "dlrm"
        assert profile_of(job).name == "dlrm"

    def test_model_roundtrips_in_csv(self, tmp_path):
        trace = small_trace()
        assign_models(trace, seed=1)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        restored = Trace.from_csv(path)
        assert [j.model_name for j in restored] == [j.model_name for j in trace]
