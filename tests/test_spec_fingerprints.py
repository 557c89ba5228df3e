"""Every field of a fingerprinted spec reaches its cache key.

Spec encodings (``fingerprint`` / ``spec_json`` / ``cache_key``) key the
sweep cache and the compiler's warm caches.  A field the encoding skips
lets two different specs share one key, so the second run is served the
first run's results.  The table below gives each fingerprinted dataclass
a base instance and one alternative value per field; changing any one
field must change the encoding.  The table must name exactly the
dataclass's fields, and every fingerprinted dataclass in the package must
have a row, so a new field or a new spec fails here until it is covered.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.federation.spec import FederationSpec, SiteSpec
from repro.schema.taskspec import EnvironmentSpec, FileSpec, QosSpec, ResourceSpec, TaskSpec
from repro.schema.workflow import ArtifactSpec, StageSpec, WorkflowSpec
from repro.sweep.spec import (
    ClusterSpec,
    SchedulerSpec,
    ServingSpec,
    SimCell,
    TraceSpec,
    WorkflowTraceSpec,
)

ENCODERS = ("fingerprint", "spec_json", "cache_key")

PREP = TaskSpec(name="prep", entrypoint="python prep.py")
TRAIN = TaskSpec(name="train", entrypoint="python train.py")

#: class → (base instance, {field: a value that differs from the base's}).
SPECS = {
    EnvironmentSpec: (
        EnvironmentSpec(),
        {
            "image": "pytorch:2.1",
            "python_version": "3.11",
            "pip_packages": ("numpy==1.26",),
            "env_vars": {"SEED": "1"},
        },
    ),
    TaskSpec: (
        TRAIN,
        {
            "name": "eval",
            "entrypoint": "python eval.py",
            "code_files": (FileSpec.of_bytes("train.py", b"pass\n"),),
            "datasets": (FileSpec.of_bytes("data.bin", b"\0"),),
            "environment": EnvironmentSpec(env_vars={"SEED": "1"}),
            "resources": ResourceSpec(rdma=True),
            "qos": QosSpec(tier="opportunistic"),
            "model": "resnet50",
            "runtime": "docker",
            "cluster": "campus",
        },
    ),
    WorkflowSpec: (
        WorkflowSpec(name="pipe", stages=(StageSpec(PREP), StageSpec(TRAIN, ("prep",)))),
        {
            "name": "pipe2",
            "stages": (StageSpec(PREP), StageSpec(TRAIN)),
            "artifacts": (ArtifactSpec("feats", "prep", 1024),),
        },
    ),
    SimCell: (
        SimCell(trace=TraceSpec(days=1.0, synth_seed=0), scheduler=SchedulerSpec("fifo")),
        {
            "trace": TraceSpec(days=1.0, synth_seed=1),
            "scheduler": SchedulerSpec("fifo", placement="best-fit"),
            "cluster": ClusterSpec(kind="uniform", nodes=4),
            "sim": {"sample_interval_s": 600.0},
            "exec_model": {"seed": 1},
            "failures": {"seed": 1},
            "storage": {"seed": 1},
            "serving": ServingSpec(services=(), days=1.0),
            "workflow": WorkflowTraceSpec(days=1.0, workflows_per_day=2.0),
            "federation": FederationSpec(sites=(SiteSpec("a", ClusterSpec()),)),
            "preemptible_override": True,
            "probes": ("fragmentation",),
        },
    ),
}


def encoding(spec: object) -> tuple[str, ...]:
    return tuple(getattr(spec, name)() for name in ENCODERS if hasattr(spec, name))


def test_every_fingerprinted_spec_has_a_row(repro_modules):
    found = {
        value
        for module in repro_modules
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
        and any(hasattr(value, name) for name in ENCODERS)
    }
    assert found == set(SPECS)


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda cls: cls.__name__)
def test_table_names_every_field(cls):
    _, alternatives = SPECS[cls]
    assert set(alternatives) == {field.name for field in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "cls, field",
    [(cls, field) for cls, (_, alternatives) in SPECS.items() for field in alternatives],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_every_field_changes_the_encoding(cls, field):
    base, alternatives = SPECS[cls]
    changed = dataclasses.replace(base, **{field: alternatives[field]})
    assert encoding(changed) != encoding(base)
