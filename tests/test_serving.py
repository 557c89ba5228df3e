"""Unit and integration tests of the inference-serving subsystem."""

from __future__ import annotations

import math

import pytest

from repro.cluster import build_tacc_cluster
from repro.errors import ConfigError, ValidationError
from repro.sched import QuotaConfig, TieredQuotaScheduler
from repro.serving import (
    AutoscalerConfig,
    RateCurve,
    ReplicaRole,
    ServiceJob,
    ServiceLoadConfig,
    ServiceSpec,
    ServingFleet,
    SloAutoscaler,
    erlang_c,
    latency_quantile,
    min_replicas_for_slo,
    slo_attainment,
    synthesize_rate_curve,
)
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import assign_models, synthesize
from repro.workload.job import JobTier


def make_spec(**overrides) -> ServiceSpec:
    defaults = dict(
        service_id="svc-test",
        user_id="u-1",
        lab_id="lab-1",
        model_name="bert-base",
        slo_p99_s=1.0,
        base_replicas=2,
        max_replicas=8,
    )
    defaults.update(overrides)
    return ServiceSpec(**defaults)


class TestLatencyModel:
    def test_erlang_c_bounds_and_monotonicity(self):
        assert erlang_c(1, 1.2) == 1.0  # saturated: everything queues
        previous = 1.0
        for servers in range(1, 8):
            value = erlang_c(servers, 0.8)
            assert 0.0 <= value <= previous  # more servers, less queueing
            previous = value

    def test_latency_quantile_saturation(self):
        assert latency_quantile(10.0, 2.0, 0) == math.inf
        assert latency_quantile(10.0, 2.0, 4) == math.inf  # rate > c*mu
        finite = latency_quantile(10.0, 2.0, 6)
        assert finite > 1 / 2.0  # response includes the service time

    def test_latency_quantile_improves_with_capacity(self):
        tight = latency_quantile(10.0, 3.0, 4)
        loose = latency_quantile(10.0, 3.0, 8)
        assert loose < tight

    def test_slo_attainment_range_and_limits(self):
        assert slo_attainment(10.0, 2.0, 0, slo_s=1.0) == 0.0
        assert slo_attainment(10.0, 2.0, 4, slo_s=1.0) == 0.0  # saturated
        assert slo_attainment(10.0, 2.0, 6, slo_s=0.1) == 0.0  # slo < service time
        value = slo_attainment(10.0, 2.0, 8, slo_s=2.0)
        assert 0.0 < value <= 1.0
        # Idle fleet: effectively every request makes the SLO.
        assert slo_attainment(0.1, 2.0, 8, slo_s=2.0) == pytest.approx(1.0, abs=1e-6)

    def test_min_replicas_is_minimal_and_sufficient(self):
        rate, mu, slo = 20.0, 3.0, 1.5
        needed = min_replicas_for_slo(rate, mu, slo)
        assert needed is not None
        assert latency_quantile(rate, mu, needed) <= slo
        assert latency_quantile(rate, mu, needed - 1) > slo

    def test_min_replicas_unattainable(self):
        # SLO below the service time can never be met at any fleet size.
        assert min_replicas_for_slo(5.0, 2.0, slo_s=0.1) is None


class TestDemand:
    def test_curve_is_deterministic_per_seed(self):
        config = ServiceLoadConfig(peak_rps=50.0)
        a = synthesize_rate_curve(config, days=2.0, seed=3)
        b = synthesize_rate_curve(config, days=2.0, seed=3)
        c = synthesize_rate_curve(config, days=2.0, seed=4)
        assert a.points == b.points
        assert a.points != c.points

    def test_peak_anchoring_and_totals(self):
        config = ServiceLoadConfig(peak_rps=80.0, noise_sigma=0.0)
        curve = synthesize_rate_curve(config, days=7.0, seed=0)
        assert curve.peak_rps() == pytest.approx(80.0)
        # 7 days at tens of req/s = millions of requests.
        assert curve.total_requests() > 1e6
        assert curve.rate_at(-1.0) == 0.0
        assert curve.rate_at(curve.horizon_s) == 0.0
        assert curve.rate_at(0.0) == curve.points[0][1]

    def test_weekends_are_lighter(self):
        config = ServiceLoadConfig(peak_rps=60.0, noise_sigma=0.0, start_weekday=0)
        curve = synthesize_rate_curve(config, days=7.0, seed=0)
        monday_noon = curve.rate_at(12 * 3600.0)
        saturday_noon = curve.rate_at(5 * 86400.0 + 12 * 3600.0)
        assert saturday_noon == pytest.approx(monday_noon * config.weekend_factor)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceLoadConfig(peak_rps=0.0)
        with pytest.raises(ConfigError):
            ServiceLoadConfig(peak_rps=10.0, diurnal_profile=(1.0,) * 23)
        with pytest.raises(ConfigError):
            RateCurve(points=((1.0, 5.0),), horizon_s=10.0)  # must start at 0
        with pytest.raises(ConfigError):
            RateCurve(points=((0.0, 5.0), (0.0, 6.0)), horizon_s=10.0)


class TestServiceSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            make_spec(slo_p99_s=0.0)
        with pytest.raises(ValidationError):
            make_spec(max_replicas=1, base_replicas=2)
        with pytest.raises(Exception):
            make_spec(model_name="no-such-model")

    def test_replica_jobs_carry_roles_and_tiers(self):
        service = ServiceJob(spec=make_spec())
        baseline = service.next_replica_job(ReplicaRole.BASELINE, now=0.0, horizon_s=86400.0)
        surge = service.next_replica_job(ReplicaRole.SURGE, now=10.0, horizon_s=86400.0)
        assert baseline.tier is JobTier.GUARANTEED and not baseline.preemptible
        assert surge.tier is JobTier.OPPORTUNISTIC and surge.preemptible
        assert baseline.service_id == surge.service_id == "svc-test"
        assert baseline.job_id != surge.job_id
        # Replicas outlive the horizon; the fleet retires them explicitly.
        assert baseline.duration > 86400.0

    def test_reference_rate_uses_requested_gpu(self):
        v100 = make_spec(gpu_type="v100").reference_rate_rps()
        a100 = make_spec(gpu_type="a100-80").reference_rate_rps()
        assert a100 > v100


class TestAutoscaler:
    def test_disabled_pins_baseline(self):
        scaler = SloAutoscaler(AutoscalerConfig(enabled=False))
        service = ServiceJob(spec=make_spec())
        assert scaler.target_replicas(service, 1e9) == service.spec.base_replicas

    def test_scale_up_is_immediate(self):
        scaler = SloAutoscaler(AutoscalerConfig(scale_down_hold_epochs=2))
        service = ServiceJob(spec=make_spec())
        delta = scaler.decide(service, rate_rps=200.0)
        assert delta > 0

    def test_scale_down_waits_for_hysteresis(self):
        scaler = SloAutoscaler(AutoscalerConfig(scale_down_hold_epochs=2))
        service = ServiceJob(spec=make_spec(base_replicas=1, max_replicas=8))
        # Grow the live fleet, then drop the rate: the first below-target
        # epoch must hold, the second may shed.
        for _ in range(scaler.decide(service, rate_rps=300.0)):
            job = service.next_replica_job(ReplicaRole.SURGE, 0.0, 86400.0)
            assert job.job_id in service.replicas
        assert len(service.live_replicas()) > 1
        assert scaler.decide(service, rate_rps=1.0) == 0  # hold epoch 1
        assert scaler.decide(service, rate_rps=1.0) < 0  # hold epoch 2: shed

    def test_zero_rate_sheds_immediately(self):
        scaler = SloAutoscaler(AutoscalerConfig(scale_down_hold_epochs=5))
        service = ServiceJob(spec=make_spec(base_replicas=1))
        for _ in range(4):
            service.next_replica_job(ReplicaRole.SURGE, 0.0, 86400.0)
        assert scaler.decide(service, rate_rps=0.0) < 0

    def test_target_clamped_to_spec_bounds(self):
        scaler = SloAutoscaler(AutoscalerConfig())
        service = ServiceJob(spec=make_spec(base_replicas=2, max_replicas=4))
        assert scaler.target_replicas(service, 0.001) == 2
        assert scaler.target_replicas(service, 1e9) == 4


def run_fleet(days=1.0, autoscaled=True, peak_rps=60.0, seed=11, trace_days=1.0):
    cluster = build_tacc_cluster()
    trace = synthesize("tacc-campus", days=trace_days, seed=seed, jobs_per_day=60)
    assign_models(trace, seed=seed)
    fleet = ServingFleet(
        [
            (
                make_spec(service_id="svc-a", lab_id="lab-serve"),
                ServiceLoadConfig(peak_rps=peak_rps),
            )
        ],
        days=days,
        autoscaler=AutoscalerConfig(enabled=autoscaled),
        seed=seed,
    )
    quotas = dict(QuotaConfig.equal_shares(trace.labs(), 176, fraction=0.5).quotas)
    quotas["lab-serve"] = 2
    simulator = ClusterSimulator(
        cluster,
        TieredQuotaScheduler(QuotaConfig(quotas=quotas)),
        trace,
        config=SimConfig(sample_interval_s=0.0, audit=True),
        serving=fleet,
    )
    return simulator.run(), trace


class TestFleetEndToEnd:
    def test_serving_metrics_populated(self):
        result, trace = run_fleet()
        serving = result.metrics.serving
        assert serving is not None
        assert serving.services == 1
        assert serving.offered_requests > 1e5
        assert serving.served_requests <= serving.offered_requests + 1e-6
        assert 0.0 <= serving.slo_attainment <= 1.0
        assert serving.slo_attainment > 0.9
        assert serving.baseline_gpu_hours > 0.0
        assert serving.replica_launches >= 2

    def test_replicas_excluded_from_training_population(self):
        result, trace = run_fleet()
        assert result.metrics.jobs_total == len(trace)
        replicas = [j for j in result.jobs.values() if j.service_id is not None]
        assert replicas, "fleet launched no replicas"
        assert all(j.lifecycle.terminal for j in replicas)

    def test_all_replicas_retired_at_horizon(self):
        result, _ = run_fleet(days=0.5, trace_days=0.5)
        replicas = [j for j in result.jobs.values() if j.service_id is not None]
        horizon = 0.5 * 86400.0
        for job in replicas:
            assert job.lifecycle.terminal
            if job.end_time is not None:
                assert job.end_time <= horizon + 1e-6

    def test_fixed_fleet_never_harvests(self):
        result, _ = run_fleet(autoscaled=False, peak_rps=300.0)
        serving = result.metrics.serving
        assert serving.harvested_gpu_hours == 0.0
        assert serving.scale_up_events <= 1  # the baseline launch only

    def test_autoscaled_beats_fixed_under_overload(self):
        auto, _ = run_fleet(autoscaled=True, peak_rps=400.0)
        fixed, _ = run_fleet(autoscaled=False, peak_rps=400.0)
        assert (
            auto.metrics.serving.slo_attainment
            > fixed.metrics.serving.slo_attainment
        )
        assert auto.metrics.serving.harvested_gpu_hours > 0.0

    def test_runs_are_deterministic(self):
        a, _ = run_fleet(seed=5)
        b, _ = run_fleet(seed=5)
        assert a.metrics.serving == b.metrics.serving
        assert a.summary() == b.summary()

    def test_duplicate_service_ids_rejected(self):
        workload = [
            (make_spec(service_id="dup"), ServiceLoadConfig(peak_rps=10.0)),
            (make_spec(service_id="dup"), ServiceLoadConfig(peak_rps=10.0)),
        ]
        with pytest.raises(ConfigError):
            ServingFleet(workload, days=1.0)

    def test_summary_gains_serving_columns_only_with_fleet(self):
        with_serving, trace = run_fleet()
        assert "slo_attainment" in with_serving.summary()
        from repro.sched import make_scheduler
        from repro.sim import simulate

        cluster = build_tacc_cluster()
        plain = simulate(cluster, make_scheduler("fifo"), trace.__class__(
            [], name="empty"
        ))
        assert "slo_attainment" not in plain.summary()
