"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.cluster import (
    ClusterSpec,
    FabricSpec,
    NodeGroup,
    NodeSpec,
    build_cluster,
    build_tacc_cluster,
    uniform_cluster,
)
from repro.workload import Job, ResourceRequest


@pytest.fixture(scope="session")
def repro_modules():
    """Every module of the package, imported (``__main__`` entry points skipped)."""
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_cluster():
    """4 × 8-GPU V100 nodes in 2 racks — enough to exercise placement."""
    return uniform_cluster(4, gpus_per_node=8, nodes_per_rack=2)


@pytest.fixture
def hetero_cluster():
    """2 racks of A100 and 2 of RTX3090, small enough to reason about."""
    return build_cluster(
        ClusterSpec(
            name="hetero",
            groups=(
                NodeGroup(2, NodeSpec("a100-80", 8, 64, 512), nodes_per_rack=2),
                NodeGroup(2, NodeSpec("rtx3090", 4, 32, 256), nodes_per_rack=2),
            ),
            fabric=FabricSpec(),
        )
    )


@pytest.fixture
def tacc_cluster():
    return build_tacc_cluster()


def make_job(
    job_id="job-000000",
    num_gpus=1,
    duration=3600.0,
    submit_time=0.0,
    user="user-00-00",
    lab="lab-00",
    **kwargs,
):
    """Concise job construction for tests."""
    request_kwargs = {}
    for key in ("gpus_per_node", "gpu_type", "cpus_per_gpu", "memory_gb_per_gpu"):
        if key in kwargs:
            request_kwargs[key] = kwargs.pop(key)
    return Job(
        job_id=job_id,
        user_id=user,
        lab_id=lab,
        request=ResourceRequest(num_gpus=num_gpus, **request_kwargs),
        submit_time=submit_time,
        duration=duration,
        **kwargs,
    )


@pytest.fixture
def job_factory():
    return make_job
