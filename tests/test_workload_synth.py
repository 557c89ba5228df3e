"""Tests for the synthetic trace generator: shapes, presets, calibration."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workload import (
    DurationModel,
    JobTier,
    SyntheticTraceConfig,
    TraceSynthesizer,
    calibrate_jobs_per_day,
    expected_gpu_seconds_per_job,
    helios_like,
    philly_like,
    synthesize,
    tacc_campus,
    with_load,
)
from repro.workload.fleet import fleet_trace
from repro.workload.models import _DEFAULT_MIXES, assign_models
from repro.workload.pipelines import pipeline_trace
from repro.workload.synth import Categorical
from repro.workload.trace import Trace
from tests.conftest import make_job


class TestDurationModel:
    def test_median_class_selection(self):
        model = DurationModel(median_minutes={1: 10.0, 8: 100.0}, sigma=1.0)
        assert model.median_for(1) == 10.0
        assert model.median_for(7) == 10.0
        assert model.median_for(8) == 100.0
        assert model.median_for(64) == 100.0

    def test_sample_within_bounds(self, rng):
        model = DurationModel()
        samples = [model.sample(1, rng) for _ in range(500)]
        assert all(model.min_seconds <= s <= model.max_seconds for s in samples)

    def test_sample_median_near_configured(self, rng):
        model = DurationModel(median_minutes={1: 30.0}, sigma=1.0)
        samples = [model.sample(1, rng) for _ in range(4000)]
        assert np.median(samples) == pytest.approx(30 * 60.0, rel=0.15)

    def test_must_cover_demand_one(self):
        with pytest.raises(ConfigError, match="demand 1"):
            DurationModel(median_minutes={2: 10.0})

    def test_bounds_sane(self):
        with pytest.raises(ConfigError):
            DurationModel(min_seconds=100.0, max_seconds=50.0)


class TestConfigValidation:
    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            SyntheticTraceConfig(gpu_demand_pmf={1: 0.5, 2: 0.4})

    def test_diurnal_profile_length(self):
        with pytest.raises(ConfigError, match="24"):
            SyntheticTraceConfig(diurnal_profile=(1.0,) * 23)

    def test_type_preferences_sum(self):
        with pytest.raises(ConfigError):
            SyntheticTraceConfig(gpu_type_preferences={"": 0.5})

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SyntheticTraceConfig(guaranteed_fraction=1.5)


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = synthesize("tacc-campus", days=1.0, seed=42, jobs_per_day=120)
        b = synthesize("tacc-campus", days=1.0, seed=42, jobs_per_day=120)
        assert len(a) == len(b)
        assert all(
            (x.job_id, x.submit_time, x.duration, x.num_gpus, x.user_id)
            == (y.job_id, y.submit_time, y.duration, y.num_gpus, y.user_id)
            for x, y in zip(a, b)
        )

    def test_different_seeds_differ(self):
        a = synthesize("tacc-campus", days=1.0, seed=1, jobs_per_day=120)
        b = synthesize("tacc-campus", days=1.0, seed=2, jobs_per_day=120)
        assert [j.submit_time for j in a] != [j.submit_time for j in b]

    def test_volume_tracks_jobs_per_day(self):
        trace = synthesize("tacc-campus", days=4.0, seed=0, jobs_per_day=300)
        assert len(trace) == pytest.approx(4 * 300, rel=0.2)

    def test_submits_within_horizon(self):
        trace = synthesize("tacc-campus", days=2.0, seed=0, jobs_per_day=100)
        assert all(0 <= job.submit_time < 2 * 86400.0 for job in trace)

    def test_demand_distribution_matches_pmf(self):
        config = tacc_campus(days=7.0, jobs_per_day=600, interactive_fraction=0.0)
        trace = TraceSynthesizer(config, seed=3).generate()
        histogram = trace.gpu_demand_histogram()
        share_1 = histogram.get(1, 0) / len(trace)
        assert share_1 == pytest.approx(config.gpu_demand_pmf[1], abs=0.05)

    def test_tier_mix(self):
        config = tacc_campus(days=3.0, jobs_per_day=400, guaranteed_fraction=0.7)
        trace = TraceSynthesizer(config, seed=4).generate()
        guaranteed = sum(1 for j in trace if j.tier is JobTier.GUARANTEED)
        assert guaranteed / len(trace) == pytest.approx(0.7, abs=0.06)

    def test_interactive_jobs_short_and_narrow(self):
        config = tacc_campus(days=2.0, jobs_per_day=400, interactive_fraction=0.4)
        trace = TraceSynthesizer(config, seed=5).generate()
        interactive = [j for j in trace if j.interactive]
        assert interactive
        assert all(j.duration <= config.interactive_max_minutes * 60.0 for j in interactive)
        assert all(j.num_gpus <= 2 for j in interactive)

    def test_walltime_estimates_overestimate(self):
        trace = synthesize("tacc-campus", days=2.0, seed=6, jobs_per_day=300)
        ratios = [j.walltime_estimate / j.duration for j in trace]
        assert min(ratios) >= 1.0
        assert np.median(ratios) > 1.5

    def test_failure_fraction(self):
        config = tacc_campus(days=3.0, jobs_per_day=500, failure_fraction=0.2)
        trace = TraceSynthesizer(config, seed=7).generate()
        failed = sum(1 for j in trace if j.failure_plan is not None)
        assert failed / len(trace) == pytest.approx(0.2, abs=0.04)

    def test_diurnal_shape(self):
        trace = synthesize("tacc-campus", days=14.0, seed=8, jobs_per_day=800)
        by_hour = {h: 0 for h in range(24)}
        for job in trace:
            by_hour[int(job.submit_time % 86400 // 3600)] += 1
        night = sum(by_hour[h] for h in (2, 3, 4, 5)) / 4
        afternoon = sum(by_hour[h] for h in (14, 15, 16, 17)) / 4
        assert afternoon > 3 * night

    def test_weekend_trough(self):
        config = tacc_campus(days=14.0, jobs_per_day=800, weekend_factor=0.3)
        trace = TraceSynthesizer(config, seed=9).generate()
        weekday = sum(1 for j in trace if (j.submit_time // 86400) % 7 < 5) / 10
        weekend = sum(1 for j in trace if (j.submit_time // 86400) % 7 >= 5) / 4
        assert weekend / weekday == pytest.approx(0.3, abs=0.1)

    def test_wide_jobs_carry_per_node_cap(self):
        trace = synthesize("tacc-campus", days=7.0, seed=10, jobs_per_day=400)
        wide = [j for j in trace if j.num_gpus > 8]
        assert wide
        assert all(j.request.gpus_per_node == 8 for j in wide)


class TestPresets:
    def test_all_presets_generate(self):
        for preset in ("tacc-campus", "philly-like", "helios-like"):
            trace = synthesize(preset, days=1.0, seed=0)
            assert len(trace) > 0
            assert trace.name == preset

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="known presets"):
            synthesize("borg-like", days=1.0)

    def test_philly_has_more_single_gpu(self):
        campus = tacc_campus()
        philly = philly_like()
        assert philly.gpu_demand_pmf[1] > campus.gpu_demand_pmf[1]

    def test_helios_more_interactive(self):
        assert helios_like().interactive_fraction > tacc_campus().interactive_fraction

    def test_overrides_apply(self):
        config = tacc_campus(days=3.0, weekend_factor=0.9)
        assert config.weekend_factor == 0.9
        assert config.days == 3.0


class TestLoadCalibration:
    def test_expected_gpu_seconds_positive_and_stable(self):
        config = tacc_campus()
        a = expected_gpu_seconds_per_job(config, seed=1)
        b = expected_gpu_seconds_per_job(config, seed=1)
        assert a == b > 0

    def test_calibration_hits_target_load(self):
        config = tacc_campus(days=7.0)
        calibrated = with_load(config, total_gpus=176, target_load=0.8, seed=0)
        trace = TraceSynthesizer(calibrated, seed=11).generate()
        offered = trace.total_gpu_seconds_requested
        capacity = 176 * 7 * 86400.0
        assert offered / capacity == pytest.approx(0.8, rel=0.35)

    def test_calibration_scales_linearly(self):
        config = tacc_campus()
        low = calibrate_jobs_per_day(config, 176, 0.5)
        high = calibrate_jobs_per_day(config, 176, 1.0)
        assert high == pytest.approx(2 * low, rel=1e-6)

    def test_invalid_targets(self):
        with pytest.raises(ConfigError):
            calibrate_jobs_per_day(tacc_campus(), 176, 0.0)


def _untemper(word: int) -> int:
    """The MT19937 state word that the generator's tempering maps to *word*."""
    word ^= word >> 18
    word ^= (word << 15) & 0xEFC60000
    shifted = word
    for _ in range(5):
        shifted = word ^ ((shifted << 7) & 0x9D2C5680)
    word = shifted
    for _ in range(3):
        shifted = word ^ (shifted >> 11)
    return shifted


def _generator_yielding(*uniforms: float) -> np.random.Generator:
    """An MT19937 generator whose next ``random()`` calls return *uniforms*.

    ``random()`` builds a double from two 32-bit outputs (27 and 26 high
    bits), so only multiples of 2**-53 in [0, 1) can be scripted.
    """
    words = []
    for uniform in uniforms:
        units = int(uniform * 2**53)
        assert units / 2**53 == uniform, uniform
        words += [(units >> 26) << 5, (units & (2**26 - 1)) << 6]
    return _generator_emitting(*words)


def _generator_emitting(*words: int) -> np.random.Generator:
    """An MT19937 generator whose next 32-bit outputs are *words*."""
    key = np.zeros(624, dtype=np.uint32)
    key[: len(words)] = [_untemper(word) for word in words]
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bits)


#: ``cumsum`` of ten 0.1s ends at 0.9999999999999999, so numpy's
#: normalisation moves every boundary; the rest are the presets' own pmfs.
STREAM_PMFS = [
    dict(enumerate([0.1] * 10)),
    {1: 0.25, 2: 0.0, 4: 0.25, 8: 0.5},
    tacc_campus().gpu_demand_pmf,
    philly_like().gpu_demand_pmf,
    helios_like().gpu_demand_pmf,
    tacc_campus().gpu_type_preferences,
]
STREAM_SEEDS = [0, 1, 7, 12345]
STREAM_DRAWS = 10_000


#: GPU demands per default model mix (at most 2, at most 8, wider), and all mixed.
MIX_DEMANDS = {
    "small": (1, 2),
    "medium": (4, 8),
    "large": (16, 32, 64),
    "mixed": (1, 2, 4, 8, 16, 32, 64),
}


def _model_trace(demands, count: int, seed: int) -> Trace:
    """*count* unassigned jobs whose GPU demands are drawn from *demands*."""
    widths = np.random.default_rng(seed + 1000).choice(demands, size=count)
    return Trace([
        make_job(f"job-{i:06d}", num_gpus=int(width), submit_time=float(i),
                 gpus_per_node=min(int(width), 8))
        for i, width in enumerate(widths)
    ])


def _choice_per_job(trace: Trace, rng: np.random.Generator) -> list[str]:
    """The per-job ``rng.choice(mix)`` loop that ``assign_models`` replaced."""
    names = []
    for job in trace:
        if job.model_name:
            names.append(job.model_name)
            continue
        if job.num_gpus <= 2:
            mix = _DEFAULT_MIXES[0]
        elif job.num_gpus <= 8:
            mix = _DEFAULT_MIXES[1]
        else:
            mix = _DEFAULT_MIXES[2]
        names.append(str(rng.choice(mix)))
    return names


class TestStreamContract:
    """numpy equivalences the scalar synthesizer and ``assign_models`` rely on.

    Both draw through cheap primitives that consume the same bits in the
    same order as the numpy calls they replace.  A numpy release that
    breaks one of these fails here by name, not as drift in every golden.
    """

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_uniform_is_random(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert all(a.uniform() == b.random() for _ in range(STREAM_DRAWS))

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("pmf", STREAM_PMFS)
    def test_choice_with_p_is_random_then_bisect_right(self, pmf, seed):
        values, table = list(pmf), Categorical(pmf)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(STREAM_DRAWS):
            assert values[a.choice(len(values), p=list(pmf.values()))] == table.draw(b)
        assert a.random() == b.random()

    @pytest.mark.parametrize("pmf", STREAM_PMFS)
    def test_choice_with_p_agrees_on_every_cdf_boundary(self, pmf):
        table = Categorical(pmf)
        raw = np.cumsum(list(pmf.values()))
        near = [np.nextafter(x, 0.0) for x in raw] + [np.nextafter(x, 1.0) for x in raw]
        edges = {0.0, 1.0 - 2**-53, *raw, *table.cdf, *near}
        uniforms = sorted(u for u in map(float, edges) if 0 <= u < 1 and u * 2**53 % 1 == 0)
        scripted = _generator_yielding(*uniforms)
        assert [scripted.random() for _ in uniforms] == uniforms
        ours = _generator_yielding(*uniforms)
        theirs = _generator_yielding(*uniforms)
        values = list(pmf)
        for _ in uniforms:
            assert values[theirs.choice(len(values), p=list(pmf.values()))] == table.draw(ours)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_choice_of_four_is_integers_four(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        options = (2, 4, 4, 8)
        assert all(
            a.choice(list(options)) == options[b.integers(4)] for _ in range(STREAM_DRAWS)
        )

    #: ``expected_gpu_seconds_per_job(preset(), seed=seed)`` from the
    #: per-draw numpy implementation; the table-driven one must match to the bit.
    CALIBRATIONS = {
        ("tacc", 0): 101206.56449632173,
        ("tacc", 777): 98545.89160720224,
        ("tacc", 12345): 98182.01157102529,
        ("philly", 0): 165711.23815479391,
        ("philly", 777): 132459.30937143866,
        ("philly", 12345): 135386.06579015058,
        ("helios", 0): 58805.31646340092,
        ("helios", 777): 66854.51430327377,
        ("helios", 12345): 67868.6946875268,
    }

    @pytest.mark.parametrize("preset, seed", sorted(CALIBRATIONS))
    def test_calibration_values_unchanged(self, preset, seed):
        factory = {"tacc": tacc_campus, "philly": philly_like, "helios": helios_like}[preset]
        value = expected_gpu_seconds_per_job(factory(), seed=seed)
        assert value == self.CALIBRATIONS[preset, seed]

    #: sha256 of the canonical JSON of ``frozen_rows()`` for 2-day seed-0
    #: traces, recorded from the per-draw numpy implementation.
    TRACE_DIGESTS = {
        "tacc-campus": "cfb3c8fb9c418fa021ff7f4743875a91a601e76bcafd9f2c73ae979b27d0e25a",
        "philly-like": "13d6be89b77a8d2793e0286762764d31137f4521f4b93136f886cf9663a7d230",
        "helios-like": "b6f16983735bdbc016a0be02ee71b59b3837f074383fb6e65bb9790a25eec78b",
        "pipelines": "e5344a98e9e5a6d74fd72d8cb2da71cd12da90008a3051457e077ee3f682b552",
    }

    @pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
    def test_trace_rows_unchanged(self, name):
        if name == "pipelines":
            trace = pipeline_trace(days=2, workflows_per_day=40, seed=0)
        else:
            trace = synthesize(name, days=2, seed=0)
        rows = json.dumps(list(trace.frozen_rows()), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(rows.encode()).hexdigest() == self.TRACE_DIGESTS[name]

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("mix", sorted(MIX_DEMANDS))
    def test_assign_models_is_choice_per_job(self, mix, seed):
        trace = _model_trace(MIX_DEMANDS[mix], STREAM_DRAWS, seed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        a.integers(2**20), b.integers(2**20)  # leave PCG64 a cached half-word
        expected = _choice_per_job(trace, a)
        assign_models(trace, seed=b)
        assert [job.model_name for job in trace] == expected
        assert a.bit_generator.state == b.bit_generator.state

    def test_assign_models_rejects_as_choice_does(self):
        # Lemire's method maps word w to (w * 5) >> 32 for the 5-model mix and
        # rejects a low half (w * 5) % 2**32 below 2**32 % 5 == 1: word 0 is
        # rejected, and 0xCCCCCCCD (low half 1) is accepted as pick 4.
        words = (0, 0xCCCCCCCD)
        trace = Trace([make_job(num_gpus=4)])
        a, b = _generator_emitting(*words), _generator_emitting(*words)
        assert _choice_per_job(trace, a) == [_DEFAULT_MIXES[1][4]]
        assign_models(trace, seed=b)
        assert trace[0].model_name == _DEFAULT_MIXES[1][4]
        positions = {rng.bit_generator.state["state"]["pos"] for rng in (a, b)}
        assert positions == {len(words)}

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_assign_models_skips_assigned_jobs_without_a_draw(self, seed):
        trace = _model_trace(MIX_DEMANDS["mixed"], 1000, seed)
        for job in trace.jobs[::3]:
            job.model_name = "gpt2-xl"
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _choice_per_job(trace, a)
        assign_models(trace, seed=b)
        assert [job.model_name for job in trace] == expected
        assert all(job.model_name == "gpt2-xl" for job in trace.jobs[::3])
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("assigned", [True, False], ids=["all-assigned", "empty"])
    def test_assign_models_without_work_draws_nothing(self, assigned):
        trace = Trace([make_job(num_gpus=4, model_name="dlrm")] if assigned else [])
        rng = np.random.default_rng(0)
        rng.integers(2**20)
        before = rng.bit_generator.state
        assign_models(trace, seed=rng)
        assert rng.bit_generator.state == before

    #: sha256 of the compact JSON list of model names after ``assign_models(seed=0)``,
    #: recorded from the per-job ``rng.choice`` implementation.
    MODEL_DIGESTS = {
        "fleet": "f81625cf718938946060b2d9f85613869f35aad1ed2d4d95c549197f2c6e42ad",
        "tacc-campus": "b6485a020c838c42a2291dd6752dd97a30258cfc9f88cbfe58f5985592da4e00",
    }

    @pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
    def test_model_names_unchanged(self, name):
        if name == "fleet":
            trace = fleet_trace(tacc_campus(days=1), seed=0)
        else:
            trace = synthesize(name, days=2, seed=0)
        assign_models(trace, seed=0)
        names = json.dumps([job.model_name for job in trace], separators=(",", ":"))
        assert hashlib.sha256(names.encode()).hexdigest() == self.MODEL_DIGESTS[name]
