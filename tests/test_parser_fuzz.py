"""Malformed inputs fail at the boundary with a ``repro.errors`` type.

Hypothesis takes a valid task, workflow and JSONL trace document, replaces
one field with an arbitrary JSON value (one CSV trace or public-trace cell
with an arbitrary string), and requires the reader to either
accept the result or raise :class:`~repro.errors.ReproError` — never a raw
``TypeError``/``ValueError``/``AttributeError`` from deep inside.  Task and
workflow documents are fed both as JSON and through ``dump_yaml_subset``.
The explicit cases below pin each input the schema once let escape.
"""

from __future__ import annotations

import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SchemaError, TraceError
from repro.schema import dump_yaml_subset, parse_task_text, parse_workflow_text
from repro.tcloud.cli import main as tcloud_main
from repro.workload import JobTier, Trace, load_public_trace
from tests.conftest import make_job

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)

TASK = {
    "name": "fuzz-task",
    "entrypoint": "python train.py",
    "model": "resnet50",
    "code_files": [{"path": "train.py", "size_bytes": 4096, "sha256": "a" * 64}],
    "environment": {
        "image": "pytorch/pytorch:2.1",
        "python_version": "3.10",
        "pip_packages": ["numpy==1.26.0"],
        "env_vars": {"NCCL_DEBUG": "INFO"},
    },
    "resources": {
        "num_gpus": 8,
        "gpus_per_node": 8,
        "gpu_type": "a100-80",
        "cpus_per_gpu": 4,
        "memory_gb_per_gpu": 32.0,
        "walltime_hours": 2.0,
        "partition": "ml",
        "rdma": True,
    },
    "qos": {"tier": "guaranteed", "preemptible": False},
}

WORKFLOW = {
    "workflow": "fuzz-flow",
    "stages": [
        {"name": "ingest", "entrypoint": "python ingest.py"},
        {
            "name": "train",
            "entrypoint": "python train.py",
            "resources": {"num_gpus": 2},
            "depends_on": ["ingest"],
            "consumes": ["corpus"],
        },
    ],
    "artifacts": [{"name": "corpus", "producer": "ingest", "size_bytes": 1024}],
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
    | st.sampled_from(["many", "x", "4", "1.5", "inf", "nan", "1e400", "true", "- a"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every field path (mapping keys and list indices) in a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = prefix + (key,)
        yield path
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


def _replaced(document, path, value):
    copy = json.loads(json.dumps(document))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


def _renderings(document):
    """The document as JSON and, when representable, as the YAML subset."""
    yield json.dumps(document)
    try:
        yield dump_yaml_subset(document)
    except SchemaError:
        pass  # empty containers / nested lists have no YAML-subset form


def _parses_or_raises_repro_error(parse, text):
    try:
        parse(text)
    except ReproError:
        pass


@FUZZ
@given(path=st.sampled_from(list(_paths(TASK))), value=json_values)
def test_task_field_fuzz(path, value):
    for text in _renderings(_replaced(TASK, path, value)):
        _parses_or_raises_repro_error(parse_task_text, text)


@FUZZ
@given(path=st.sampled_from(list(_paths(WORKFLOW))), value=json_values)
def test_workflow_field_fuzz(path, value):
    for text in _renderings(_replaced(WORKFLOW, path, value)):
        _parses_or_raises_repro_error(parse_workflow_text, text)


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory):
    """Header and one job row of a valid JSONL trace, parsed."""
    path = tmp_path_factory.mktemp("trace") / "valid.jsonl"
    job = make_job("job-1", num_gpus=2, tier=JobTier.OPPORTUNISTIC, gpus_per_node=2)
    Trace([job], name="valid", metadata={"source": "fuzz"}).to_jsonl(path)
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.jsonl"


def _reads_finite_or_raises_repro_error(read, path):
    """*read* rejects *path* with a ``ReproError`` or loads only finite numbers."""
    try:
        trace = read(path)
    except ReproError:
        return
    for job in trace:
        plan = job.failure_plan
        numbers = (
            job.submit_time,
            job.duration,
            job.request.memory_gb_per_gpu,
            job.walltime_estimate or 0.0,
            plan.at_fraction if plan else 0.0,
            job.dataset_gb,
            job.artifact_bytes,
        )
        assert all(math.isfinite(number) for number in numbers), job


def _read_trace(path, lines):
    path.write_text("\n".join(lines) + "\n")
    _reads_finite_or_raises_repro_error(Trace.from_jsonl, path)


@FUZZ
@given(line=st.integers(0, 1), data=st.data(), value=json_values)
def test_jsonl_field_fuzz(trace_lines, trace_file, line, data, value):
    records = [dict(record) for record in trace_lines]
    records[line][data.draw(st.sampled_from(sorted(records[line])))] = value
    _read_trace(trace_file, [json.dumps(record) for record in records])


@FUZZ
@given(value=json_values)
def test_jsonl_arbitrary_line(trace_lines, trace_file, value):
    header, row = trace_lines
    _read_trace(trace_file, [json.dumps(header), json.dumps(value), json.dumps(row)])


@pytest.fixture(scope="module")
def csv_row(tmp_path_factory):
    """One job row of a valid CSV trace, as the reader sees it."""
    path = tmp_path_factory.mktemp("trace") / "valid.csv"
    job = make_job("job-1", num_gpus=2, tier=JobTier.OPPORTUNISTIC, gpus_per_node=2)
    Trace([job], name="valid").to_csv(path)
    with path.open(newline="") as handle:
        return next(csv.DictReader(handle))


csv_cells = st.text(max_size=12) | json_values.map(json.dumps) | st.sampled_from(
    ["", "-inf", "NaN", "1e-400", "-1", "0", "oom", "user_error"]
)


@FUZZ
@given(data=st.data(), value=csv_cells)
def test_csv_field_fuzz(csv_row, trace_file, data, value):
    row = dict(csv_row)
    row[data.draw(st.sampled_from(sorted(row)))] = value
    path = trace_file.with_suffix(".csv")
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    _reads_finite_or_raises_repro_error(Trace.from_csv, path)


#: Two-row public traces: Philly-style with a duration column, Helios-style
#: with start/end times and a CPU count, so every numeric column is read.
PUBLIC_TRACES = {
    "philly": [
        {"jobid": "p1", "vc": "ml", "submitted_time": "2017-10-03 10:00:00",
         "duration": "3600", "gpus": "4", "status": "Pass"},
        {"jobid": "p2", "vc": "cv", "submitted_time": "2017-10-03 11:00:00",
         "duration": "60", "gpus": "16", "status": "Failed"},
    ],
    "helios": [
        {"job_id": "h1", "gpu_num": "8", "cpu_num": "64", "submit_time": "1000",
         "start_time": "1100", "end_time": "5000", "state": "COMPLETED"},
        {"job_id": "h2", "gpu_num": "2", "cpu_num": "16", "submit_time": "2000",
         "start_time": "2100", "end_time": "2500", "state": "FAILED"},
    ],
}


def _write_public_trace(path, rows):
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


@FUZZ
@given(data=st.data(), value=csv_cells)
@pytest.mark.parametrize("style", sorted(PUBLIC_TRACES))
def test_public_trace_field_fuzz(trace_file, style, data, value):
    rows = [dict(row) for row in PUBLIC_TRACES[style]]
    row = rows[data.draw(st.integers(0, 1))]
    row[data.draw(st.sampled_from(sorted(row)))] = value
    path = _write_public_trace(trace_file.with_name(f"{style}.csv"), rows)
    _reads_finite_or_raises_repro_error(load_public_trace, path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "style, column",
    [
        ("philly", "submitted_time"),
        ("philly", "duration"),
        ("philly", "gpus"),
        ("helios", "submit_time"),
        ("helios", "gpu_num"),
        ("helios", "cpu_num"),
        ("helios", "start_time"),
        ("helios", "end_time"),
    ],
)
def test_public_trace_non_finite_number_is_a_trace_error(tmp_path, style, column, value):
    rows = [dict(row) for row in PUBLIC_TRACES[style]]
    rows[0][column] = value
    path = _write_public_trace(tmp_path / f"{style}.csv", rows)
    with pytest.raises(TraceError, match=f":2: {column} must be a finite number"):
        load_public_trace(path)


def test_public_trace_overflowing_runtime_is_a_trace_error(tmp_path):
    rows = [dict(row) for row in PUBLIC_TRACES["helios"]]
    rows[0].update(start_time="-1.7e308", end_time="1.7e308")
    path = _write_public_trace(tmp_path / "helios.csv", rows)
    with pytest.raises(TraceError, match=":2: end_time - start_time must be a finite number"):
        load_public_trace(path)


@pytest.mark.parametrize(
    "record", [5, [1, 2], "trace", None], ids=["int", "list", "string", "null"]
)
def test_jsonl_non_object_line_is_a_trace_error(tmp_path, record):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(TraceError, match="expected a JSON object"):
        Trace.from_jsonl(path)


@pytest.mark.parametrize(
    "path, value",
    [
        (("resources", "num_gpus"), "many"),
        (("resources", "gpus_per_node"), "x"),
        (("resources", "walltime_hours"), "long"),
        (("code_files", 0, "size_bytes"), "huge"),
        (("environment",), 3),
        (("environment", "env_vars"), ["A=1"]),
        (("resources", "rdma"), "maybe"),
        (("qos", "preemptible"), "maybe"),
        (("resources", "num_gpus"), 1.5),
        (("resources", "num_gpus"), True),
        (("resources", "memory_gb_per_gpu"), "nan"),
        (("resources", "gpu_type"), ["a100-80"]),
        (("resources", "partition"), {"name": "ml"}),
        (("runtime",), ["docker"]),
    ],
)
def test_malformed_task_field_is_a_schema_error(path, value):
    for text in _renderings(_replaced(TASK, path, value)):
        with pytest.raises(SchemaError, match=path[-1]):
            parse_task_text(text)


def test_malformed_artifact_size_is_a_schema_error():
    document = _replaced(WORKFLOW, ("artifacts", 0, "size_bytes"), "big")
    for text in _renderings(document):
        with pytest.raises(SchemaError, match="size_bytes"):
            parse_workflow_text(text)


def test_tcloud_validate_reports_malformed_file(tmp_path, capsys):
    path = tmp_path / "task.yaml"
    path.write_text("name: bad\nentrypoint: x\nresources:\n  num_gpus: many\n")
    assert tcloud_main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tcloud: error:")
    assert "num_gpus" in err
    assert "Traceback" not in err
