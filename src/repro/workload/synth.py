"""Synthetic trace generation calibrated to campus ML cluster workloads.

The paper's evaluation replays two years of production traces that are not
public, so this module synthesizes statistically equivalent ones.  What the
scheduling experiments depend on — and what the generator therefore models
explicitly — is:

* **arrival process**: non-homogeneous Poisson with a diurnal profile
  (campus users submit mid-morning, mid-afternoon, and a student-driven
  late-evening bump) and a weekend trough;
* **GPU demand**: power-of-two mass heavily skewed to single-GPU jobs by
  *count*, while multi-GPU jobs dominate GPU-*hours*;
* **duration**: log-normal per demand class with a heavy tail (median in
  minutes, p99 in days), wider jobs running longer;
* **user structure**: labs with Zipf-skewed user activity, driving the
  fairness and quota experiments;
* **tiers**: a guaranteed/opportunistic mix matching the cluster's
  two-tier quota design;
* **intrinsic failures**: a fraction of jobs scripted to fail (user error
  early, OOM mid-run), matching published failure analyses.

Each named preset (:func:`tacc_campus`, :func:`philly_like`,
:func:`helios_like`) is one parameterisation; all generation is driven by a
single :class:`numpy.random.Generator` so a seed fully determines a trace.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Generic, TypeVar

import numpy as np

from ..config import require_fraction, require_positive
from ..errors import ConfigError
from .job import FailureCategory, FailurePlan, Job, JobTier, ResourceRequest
from .trace import Trace

_T = TypeVar("_T")

#: Hour-of-day submission weights observed on campus: quiet overnight,
#: morning and afternoon work peaks, and an evening bump from students.
CAMPUS_DIURNAL = (
    0.25, 0.18, 0.14, 0.10, 0.08, 0.10,  # 00-05
    0.20, 0.35, 0.60, 0.90, 1.20, 1.30,  # 06-11
    1.10, 1.15, 1.35, 1.40, 1.30, 1.20,  # 12-17
    1.00, 0.95, 1.05, 1.10, 0.80, 0.45,  # 18-23
)


@dataclass(frozen=True)
class DurationModel:
    """Log-normal duration per GPU-demand class.

    ``median_minutes`` maps a demand threshold to the class median: a job
    with ``n`` GPUs uses the entry with the largest key ``<= n``.  ``sigma``
    is the log-space standard deviation (the tail weight).  :meth:`sample`
    memoizes each demand's log-median and clips to ``[min_seconds, max_seconds]``.
    """

    median_minutes: dict[int, float] = field(
        default_factory=lambda: {1: 13.0, 2: 22.0, 4: 38.0, 8: 80.0, 16: 160.0, 32: 280.0}
    )
    sigma: float = 1.65
    min_seconds: float = 20.0
    max_seconds: float = 7.0 * 86400.0

    def __post_init__(self) -> None:
        if not self.median_minutes:
            raise ConfigError("DurationModel needs at least one median entry")
        if 1 not in self.median_minutes:
            raise ConfigError("DurationModel.median_minutes must cover demand 1")
        require_positive("DurationModel.sigma", self.sigma)
        if self.max_seconds <= self.min_seconds:
            raise ConfigError("DurationModel: max_seconds must exceed min_seconds")

    def median_for(self, num_gpus: int) -> float:
        keys = [k for k in self.median_minutes if k <= num_gpus]
        return self.median_minutes[max(keys)]

    @cached_property
    def _log_median_s(self) -> dict[int, float]:
        return {}  # demand -> np.log(median_for(demand) * 60.0), filled by sample()

    def sample(self, num_gpus: int, rng: np.random.Generator) -> float:
        log_median = self._log_median_s.get(num_gpus)
        if log_median is None:
            log_median = self._log_median_s[num_gpus] = np.log(self.median_for(num_gpus) * 60.0)
        value = float(rng.lognormal(log_median, self.sigma))
        return float(min(max(value, self.min_seconds), self.max_seconds))


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Full parameterisation of a synthetic trace."""

    days: float = 7.0
    jobs_per_day: float = 500.0
    diurnal_profile: tuple[float, ...] = CAMPUS_DIURNAL
    weekend_factor: float = 0.45
    start_weekday: int = 0  # 0 = Monday, so days 5,6 of each week are weekend
    #: Optional per-day volume multipliers, cycled over the trace — models
    #: semester seasonality such as the pre-deadline surge (see
    #: :func:`deadline_cycle`).  Empty = flat.
    daily_seasonality: tuple[float, ...] = ()

    gpu_demand_pmf: dict[int, float] = field(
        default_factory=lambda: {1: 0.55, 2: 0.15, 4: 0.12, 8: 0.10, 16: 0.05, 32: 0.02, 64: 0.01}
    )
    duration: DurationModel = DurationModel()
    gpus_per_node_cap: int = 8

    num_labs: int = 12
    mean_users_per_lab: float = 4.0
    user_activity_zipf: float = 1.3

    guaranteed_fraction: float = 0.55
    interactive_fraction: float = 0.15
    interactive_max_minutes: float = 90.0

    gpu_type_preferences: dict[str, float] = field(
        default_factory=lambda: {"": 0.70, "a100-80": 0.10, "v100": 0.10, "rtx3090": 0.10}
    )

    walltime_overestimate_mean: float = 2.5
    walltime_overestimate_sigma: float = 0.6

    failure_fraction: float = 0.12
    failure_user_error_share: float = 0.62
    #: Fraction of non-interactive multi-GPU jobs submitted as elastic
    #: (resizable down to a quarter of their request, preemptible).
    elastic_fraction: float = 0.0
    #: Dataset size distribution (log-normal, GB) mounted by training jobs.
    dataset_gb_median: float = 12.0
    dataset_gb_sigma: float = 1.4
    name: str = "synthetic"

    def __post_init__(self) -> None:
        require_positive("days", self.days)
        require_positive("jobs_per_day", self.jobs_per_day)
        if len(self.diurnal_profile) != 24:
            raise ConfigError("diurnal_profile must have 24 hourly weights")
        if any(w < 0 for w in self.diurnal_profile) or not any(self.diurnal_profile):
            raise ConfigError("diurnal_profile weights must be non-negative, not all zero")
        require_fraction("weekend_factor", self.weekend_factor)
        if not 0 <= self.start_weekday <= 6:
            raise ConfigError("start_weekday must be in [0, 6]")
        if any(m < 0 for m in self.daily_seasonality):
            raise ConfigError("daily_seasonality multipliers must be non-negative")
        if not self.gpu_demand_pmf:
            raise ConfigError("gpu_demand_pmf must be non-empty")
        if any(d <= 0 for d in self.gpu_demand_pmf):
            raise ConfigError("gpu demands must be positive")
        total = sum(self.gpu_demand_pmf.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"gpu_demand_pmf must sum to 1, sums to {total}")
        require_positive("num_labs", self.num_labs)
        require_positive("mean_users_per_lab", self.mean_users_per_lab)
        require_positive("user_activity_zipf", self.user_activity_zipf)
        require_fraction("guaranteed_fraction", self.guaranteed_fraction)
        require_fraction("interactive_fraction", self.interactive_fraction)
        require_fraction("failure_fraction", self.failure_fraction)
        require_fraction("failure_user_error_share", self.failure_user_error_share)
        require_fraction("elastic_fraction", self.elastic_fraction)
        require_positive("dataset_gb_median", self.dataset_gb_median)
        require_positive("dataset_gb_sigma", self.dataset_gb_sigma)
        type_total = sum(self.gpu_type_preferences.values())
        if abs(type_total - 1.0) > 1e-6:
            raise ConfigError("gpu_type_preferences must sum to 1")


def hourly_rates(config: SyntheticTraceConfig) -> np.ndarray:
    """Expected submissions for every hour of the trace.

    Shared by the scalar and the vectorized (fleet) synthesizers.
    """
    hours = int(np.ceil(config.days * 24))
    profile = np.asarray(config.diurnal_profile, dtype=float)
    profile = profile / profile.mean()  # normalise so daily total is jobs_per_day
    hour_index = np.arange(hours)
    day = hour_index // 24
    weekday = (config.start_weekday + day) % 7
    day_factor = np.where(weekday >= 5, config.weekend_factor, 1.0)
    if config.daily_seasonality:
        season = np.asarray(config.daily_seasonality, dtype=float)
        day_factor = day_factor * season[day % len(season)]
    return config.jobs_per_day / 24.0 * profile[hour_index % 24] * day_factor


class Categorical(Generic[_T]):
    """``rng.choice(values, p=probs)`` on the same stream, without per-draw overhead.

    numpy draws one ``rng.random()`` and takes ``searchsorted(side="right")``
    in ``cumsum(p) / cumsum(p)[-1]``; this builds that table once and bisects it.
    """

    def __init__(self, pmf: dict[_T, float]) -> None:
        self.values = tuple(pmf)
        cumsum = np.asarray(list(pmf.values()), dtype=float).cumsum()
        self.cdf = (cumsum / cumsum[-1]).tolist()

    def draw(self, rng: np.random.Generator) -> _T:
        return self.values[bisect_right(self.cdf, rng.random())]


#: Equally likely per-job options; ``rng.choice`` of a 4-value list is
#: ``values[rng.integers(4)]`` on the same stream.
_INTERACTIVE_GPUS = (1, 1, 1, 2)
_CPUS_PER_GPU = (2, 4, 4, 8)
_MEMORY_GB_PER_GPU = (16.0, 32.0, 32.0, 64.0)
_INTERACTIVE_LOG_MEDIAN_S = np.log(12 * 60.0)  # sessions: ~12 min, clipped to [1 min, max]


def _draw_shape(
    rng: np.random.Generator, cfg: SyntheticTraceConfig, demand: Categorical[int]
) -> tuple[bool, int, float]:
    """One job's ``(interactive, num_gpus, duration)``, shared by generation and calibration."""
    if rng.random() < cfg.interactive_fraction:
        num_gpus = _INTERACTIVE_GPUS[rng.integers(4)]
        duration = float(rng.lognormal(_INTERACTIVE_LOG_MEDIAN_S, 0.9))
        return True, num_gpus, float(min(max(duration, 60.0), cfg.interactive_max_minutes * 60.0))
    num_gpus = demand.draw(rng)
    return False, num_gpus, cfg.duration.sample(num_gpus, rng)


@dataclass(frozen=True)
class _UserPool:
    users: tuple[str, ...]
    labs: tuple[str, ...]  # lab of each user, aligned with `users`
    weights: np.ndarray  # activity probability of each user


class TraceSynthesizer:
    """Generates a :class:`Trace` from a :class:`SyntheticTraceConfig`.

    >>> trace = TraceSynthesizer(tacc_campus(days=1), seed=0).generate()
    >>> len(trace) > 0
    True
    """

    def __init__(self, config: SyntheticTraceConfig, seed: int | np.random.Generator = 0):
        self.config = config
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._pool = self._build_user_pool()

    def _build_user_pool(self) -> _UserPool:
        cfg = self.config
        users: list[str] = []
        labs: list[str] = []
        for lab_index in range(cfg.num_labs):
            lab = f"lab-{lab_index:02d}"
            count = max(1, int(self.rng.poisson(cfg.mean_users_per_lab)))
            for user_index in range(count):
                users.append(f"user-{lab_index:02d}-{user_index:02d}")
                labs.append(lab)
        ranks = np.arange(1, len(users) + 1, dtype=float)
        weights = ranks ** (-cfg.user_activity_zipf)
        order = self.rng.permutation(len(users))  # decouple rank from lab order
        weights = weights[np.argsort(order)]
        weights /= weights.sum()
        return _UserPool(tuple(users), tuple(labs), weights)

    # -- arrival process -----------------------------------------------------

    def _sample_arrivals(self) -> np.ndarray:
        """Non-homogeneous Poisson arrivals over the trace horizon."""
        rates = hourly_rates(self.config)
        times: list[float] = []
        for hour, rate in enumerate(rates):
            count = int(self.rng.poisson(rate))
            if count:
                times.extend(hour * 3600.0 + self.rng.uniform(0.0, 3600.0, size=count))
        arrivals = np.sort(np.asarray(times))
        horizon = self.config.days * 86400.0
        return arrivals[arrivals < horizon]

    # -- per-job fields ------------------------------------------------------

    def _sample_failure_plan(self) -> FailurePlan | None:
        cfg = self.config
        if self.rng.random() >= cfg.failure_fraction:
            return None
        if self.rng.random() < cfg.failure_user_error_share:
            # User errors (bad path, syntax, bad config) surface early.
            return FailurePlan(FailureCategory.USER_ERROR, float(self.rng.beta(1.2, 20.0)) or 0.01)
        # OOM and similar runtime failures strike anywhere mid-run.
        return FailurePlan(FailureCategory.OOM, float(self.rng.uniform(0.05, 0.95)))

    def generate(self) -> Trace:
        cfg = self.config
        rng = self.rng
        demand, gpu_type = Categorical(cfg.gpu_demand_pmf), Categorical(cfg.gpu_type_preferences)
        log_dataset_gb = np.log(cfg.dataset_gb_median)
        log_walltime_factor = np.log(cfg.walltime_overestimate_mean)
        arrivals = self._sample_arrivals()
        jobs: list[Job] = []
        user_indices = rng.choice(len(self._pool.users), size=len(arrivals), p=self._pool.weights)
        for index, (submit_time, user_index) in enumerate(zip(arrivals, user_indices)):
            interactive, num_gpus, duration = _draw_shape(rng, cfg, demand)
            tier = (
                JobTier.GUARANTEED
                if rng.random() < cfg.guaranteed_fraction
                else JobTier.OPPORTUNISTIC
            )
            elastic_min = preemptible = None
            if not interactive and num_gpus >= 4 and rng.random() < cfg.elastic_fraction:
                elastic_min = max(1, num_gpus // 4)
                preemptible = True
            dataset_gb = 0.0
            if not interactive:
                dataset_gb = float(rng.lognormal(log_dataset_gb, cfg.dataset_gb_sigma))
            request = ResourceRequest(
                num_gpus=num_gpus,
                gpus_per_node=min(num_gpus, cfg.gpus_per_node_cap)
                if num_gpus > cfg.gpus_per_node_cap
                else None,
                gpu_type=gpu_type.draw(rng) or None,
                cpus_per_gpu=_CPUS_PER_GPU[rng.integers(4)],
                memory_gb_per_gpu=_MEMORY_GB_PER_GPU[rng.integers(4)],
            )
            walltime_factor = rng.lognormal(log_walltime_factor, cfg.walltime_overestimate_sigma)
            jobs.append(
                Job(
                    job_id=f"job-{index:06d}",
                    user_id=self._pool.users[user_index],
                    lab_id=self._pool.labs[user_index],
                    request=request,
                    submit_time=float(submit_time),
                    duration=duration,
                    tier=tier,
                    walltime_estimate=duration * max(1.0, float(walltime_factor)),
                    interactive=interactive,
                    preemptible=preemptible,
                    failure_plan=self._sample_failure_plan(),
                    elastic_min_gpus=elastic_min,
                    dataset_gb=dataset_gb,
                    name=f"{'notebook' if interactive else 'train'}-{index}",
                )
            )
        return Trace(jobs, name=cfg.name, metadata={"config": cfg.name, "days": cfg.days})


def expected_gpu_seconds_per_job(
    config: SyntheticTraceConfig, samples: int = 4000, seed: int = 12345
) -> float:
    """Monte-Carlo estimate of mean GPU-seconds demanded per job.

    Used by :func:`calibrate_jobs_per_day` to set offered load relative to
    cluster capacity.  Each sample draws one job's shape exactly as
    :meth:`TraceSynthesizer.generate` does, from ``default_rng(seed)``;
    each sample costs microseconds.  The estimate is seed-dependent and
    biased against the clipped-lognormal closed form (ROADMAP item 2).
    """
    rng = np.random.default_rng(seed)
    demand = Categorical(config.gpu_demand_pmf)
    total = 0.0
    for _ in range(samples):
        _, gpus, duration = _draw_shape(rng, config, demand)
        total += gpus * duration
    return total / samples


def calibrate_jobs_per_day(
    config: SyntheticTraceConfig,
    total_gpus: int,
    target_load: float,
    seed: int = 12345,
) -> float:
    """Jobs/day so offered load ≈ ``target_load`` × cluster GPU capacity.

    ``target_load`` is offered GPU-seconds divided by capacity GPU-seconds;
    values near 1.0 saturate the cluster, which is where scheduling policy
    differences show.
    """
    require_positive("total_gpus", total_gpus)
    require_positive("target_load", target_load)
    per_job = expected_gpu_seconds_per_job(config, seed=seed)
    capacity_per_day = total_gpus * 86400.0
    return target_load * capacity_per_day / per_job


def with_load(
    config: SyntheticTraceConfig,
    total_gpus: int,
    target_load: float,
    seed: int = 12345,
) -> SyntheticTraceConfig:
    """Copy of *config* with ``jobs_per_day`` calibrated to the target load."""
    return replace(
        config,
        jobs_per_day=calibrate_jobs_per_day(config, total_gpus, target_load, seed=seed),
    )


def deadline_cycle(
    cycle_days: int = 28, surge_days: int = 5, surge_factor: float = 2.2
) -> tuple[float, ...]:
    """A seasonality cycle with a pre-deadline surge.

    Campus workloads spike in the days before conference deadlines: the
    last ``surge_days`` of every ``cycle_days`` run at ``surge_factor``×
    volume, the rest slightly below 1 so the cycle's mean stays 1.0 (the
    calibrated load is then the *average*, with surges exceeding it).
    """
    if not 0 < surge_days < cycle_days:
        raise ConfigError("surge_days must be in (0, cycle_days)")
    if surge_factor <= 1.0:
        raise ConfigError("surge_factor must exceed 1")
    quiet_days = cycle_days - surge_days
    quiet_factor = (cycle_days - surge_days * surge_factor) / quiet_days
    if quiet_factor <= 0:
        raise ConfigError("surge too large: quiet days would have negative volume")
    return tuple([quiet_factor] * quiet_days + [surge_factor] * surge_days)


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------


def tacc_campus(days: float = 7.0, jobs_per_day: float = 500.0, **overrides) -> SyntheticTraceConfig:
    """The default campus-cluster workload: mixed labs, two tiers, diurnal."""
    return replace(
        SyntheticTraceConfig(days=days, jobs_per_day=jobs_per_day, name="tacc-campus"),
        **overrides,
    )


def philly_like(days: float = 7.0, jobs_per_day: float = 700.0, **overrides) -> SyntheticTraceConfig:
    """A Philly-trace-flavoured mix: more single-GPU jobs, longer tail."""
    base = SyntheticTraceConfig(
        days=days,
        jobs_per_day=jobs_per_day,
        gpu_demand_pmf={1: 0.70, 2: 0.09, 4: 0.09, 8: 0.07, 16: 0.03, 32: 0.02},
        duration=DurationModel(
            median_minutes={1: 10.0, 2: 20.0, 4: 60.0, 8: 180.0, 16: 420.0},
            sigma=2.1,
        ),
        guaranteed_fraction=0.8,
        interactive_fraction=0.08,
        name="philly-like",
    )
    return replace(base, **overrides)


def helios_like(days: float = 7.0, jobs_per_day: float = 900.0, **overrides) -> SyntheticTraceConfig:
    """A Helios-flavoured mix: bursty short jobs, strong diurnality."""
    base = SyntheticTraceConfig(
        days=days,
        jobs_per_day=jobs_per_day,
        gpu_demand_pmf={1: 0.48, 2: 0.20, 4: 0.14, 8: 0.12, 16: 0.04, 32: 0.02},
        duration=DurationModel(
            median_minutes={1: 6.0, 2: 12.0, 4: 30.0, 8: 75.0, 16: 200.0},
            sigma=1.7,
        ),
        weekend_factor=0.35,
        interactive_fraction=0.22,
        name="helios-like",
    )
    return replace(base, **overrides)


def synthesize(
    preset: str = "tacc-campus",
    days: float = 7.0,
    seed: int = 0,
    **overrides,
) -> Trace:
    """One-call trace synthesis by preset name."""
    factories = {
        "tacc-campus": tacc_campus,
        "philly-like": philly_like,
        "helios-like": helios_like,
    }
    try:
        factory = factories[preset]
    except KeyError:
        raise ConfigError(
            f"unknown preset {preset!r}; known presets: {sorted(factories)}"
        ) from None
    config = factory(days=days, **overrides)
    return TraceSynthesizer(config, seed=seed).generate()
