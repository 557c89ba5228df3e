"""Tests for multi-cluster federation routing."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, NodeGroup, NodeSpec, build_cluster
from repro.errors import ConfigError, SchemaError, SimulationError
from repro.federation.routing import ROUTING_POLICIES
from repro.schema import FileSpec, ResourceSpec, TaskSpec
from repro.tcloud import (
    ClusterProfile,
    FederatedClient,
    TaccFrontend,
    TcloudConfig,
    reset_sessions,
)


@pytest.fixture(autouse=True)
def isolated_sessions():
    reset_sessions()
    yield
    reset_sessions()


def small_frontend(gpu_type="v100", nodes=2):
    cluster = build_cluster(
        ClusterSpec(
            name=f"site-{gpu_type}",
            groups=(NodeGroup(nodes, NodeSpec(gpu_type, 8, 96, 768), nodes_per_rack=nodes),),
        )
    )
    return TaccFrontend(cluster=cluster)


def federation(policy="least-queued"):
    config = TcloudConfig()
    config.add(ClusterProfile(name="site-a", endpoint="sim://site-a"))
    config.add(ClusterProfile(name="site-b", endpoint="sim://site-b"))
    frontends = {
        "site-a": small_frontend("v100"),
        "site-b": small_frontend("a100-80"),
    }
    return FederatedClient(config, policy=policy, frontends=frontends)


def spec(name="fed-task", gpus=8, gpu_type=None):
    return TaskSpec(
        name=name,
        entrypoint="python t.py",
        code_files=(FileSpec.of_bytes("t.py", b"pass"),),
        resources=ResourceSpec(num_gpus=gpus, gpu_type=gpu_type, walltime_hours=2.0),
        model="resnet50",
    )


class TestRouting:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="routing policy"):
            federation(policy="clairvoyant")

    @pytest.mark.parametrize(
        "profiles", [[], ["site-a", "site-a"]], ids=["empty", "duplicate"]
    )
    def test_profile_list_is_taken_as_given(self, profiles):
        # Neither list may quietly become "every profile" or one site.
        config = TcloudConfig()
        config.add(ClusterProfile(name="site-a", endpoint="sim://site-a"))
        config.add(ClusterProfile(name="site-b", endpoint="sim://site-b"))
        frontends = {"site-a": small_frontend("v100"), "site-b": small_frontend("a100-80")}
        with pytest.raises(ConfigError, match="profile"):
            FederatedClient(config, profiles=profiles, frontends=frontends)

    def test_feasibility_filter(self):
        fed = federation()
        decision = fed.route(spec(gpu_type="a100-80"))
        assert decision.profile == "site-b"
        assert decision.excluded == ("site-a",)

    def test_infeasible_everywhere_raises(self):
        fed = federation()
        with pytest.raises(SchemaError, match="infeasible on every"):
            fed.route(spec(gpu_type="t4"))

    def test_least_queued_prefers_idle_site(self):
        fed = federation(policy="least-queued")
        # Clog site-a's queue.
        for index in range(4):
            fed.clients["site-a"].submit(spec(f"clog-{index}"), duration_hint_s=50_000.0)
        decision = fed.route(spec())
        assert decision.profile == "site-b"
        assert "queue pressure" in decision.reason

    def test_most_free_prefers_empty_site(self):
        fed = federation(policy="most-free")
        fed.clients["site-b"].submit(spec("hog"), duration_hint_s=50_000.0)
        decision = fed.route(spec())
        assert decision.profile == "site-a"
        assert "free GPUs" in decision.reason

    def test_first_feasible_follows_profile_order(self):
        fed = federation(policy="first-feasible")
        assert fed.route(spec()).profile == "site-a"


class TestRoutingEdgeCases:
    def twin_federation(self, policy):
        """Two byte-identical sites: every score ties, order must decide."""
        config = TcloudConfig()
        config.add(ClusterProfile(name="site-a", endpoint="sim://site-a"))
        config.add(ClusterProfile(name="site-b", endpoint="sim://site-b"))
        frontends = {
            "site-a": small_frontend("v100"),
            "site-b": small_frontend("v100"),
        }
        return FederatedClient(config, policy=policy, frontends=frontends)

    @pytest.mark.parametrize("policy", sorted(ROUTING_POLICIES))
    def test_ties_break_by_profile_order_deterministically(self, policy):
        fed = self.twin_federation(policy)
        decisions = [fed.route(spec()).profile for _ in range(5)]
        assert decisions == ["site-a"] * 5

    def test_route_does_not_submit(self):
        fed = federation()
        before = {name: len(client.queue()) for name, client in fed.clients.items()}
        fed.route(spec())
        after = {name: len(client.queue()) for name, client in fed.clients.items()}
        assert before == after

    def test_repeated_route_is_stable(self):
        fed = federation()
        first = fed.route(spec())
        second = fed.route(spec())
        assert (first.profile, first.considered, first.excluded) == (
            second.profile,
            second.considered,
            second.excluded,
        )


class TestProxying:
    def test_submit_and_proxy_verbs(self):
        fed = federation()
        federated_id, decision = fed.submit(spec(), duration_hint_s=600.0)
        assert federated_id.startswith(decision.profile + "/")
        status = fed.status(federated_id)
        assert status.state in ("queued", "running")
        fed.advance_all(300.0)
        final = fed.wait(federated_id)
        assert final.state == "completed"
        logs = fed.logs(federated_id)
        assert logs

    def test_proxying_after_forwarding(self):
        # Infeasible on site-a (no A100s) → forwarded to site-b; every
        # proxy verb must resolve through the federated id afterwards.
        fed = federation()
        federated_id, decision = fed.submit(
            spec(gpu_type="a100-80"), duration_hint_s=600.0
        )
        assert decision.profile == "site-b"
        assert fed.status(federated_id).state in ("queued", "running")
        final = fed.wait(federated_id)
        assert final.state == "completed"
        assert fed.logs(federated_id)
        assert fed.history(federated_id)

    def test_kill_proxies(self):
        fed = federation()
        federated_id, _decision = fed.submit(spec(), duration_hint_s=50_000.0)
        assert fed.kill(federated_id).state == "killed"

    def test_unknown_job(self):
        fed = federation()
        with pytest.raises(SimulationError, match="unknown federated"):
            fed.status("site-a/job-999999")

    def test_cluster_info_covers_all_sites(self):
        info = federation().cluster_info()
        assert set(info) == {"site-a", "site-b"}

    def test_load_spreads_across_sites(self):
        fed = federation()
        destinations = set()
        for index in range(4):
            _id, decision = fed.submit(
                spec(f"spread-{index}"), duration_hint_s=50_000.0
            )
            destinations.add(decision.profile)
        assert destinations == {"site-a", "site-b"}
