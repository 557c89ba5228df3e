"""Tests for the experiment registry — every table/figure regenerates.

Each experiment runs at a tiny scale here; assertions check the *shape* of
the output (the full-scale numbers live in EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS, fresh_trace_copy, run_experiment
from repro.experiments.common import campus_trace

SCALE = 0.15
SEED = 3


@pytest.fixture(scope="module")
def results():
    """Run every experiment once at tiny scale (shared across tests)."""
    return {
        experiment_id: spec.run(seed=SEED, scale=SCALE)
        for experiment_id, spec in EXPERIMENTS.items()
    }


class TestRegistry:
    def test_expected_ids_present(self):
        expected = {
            "T1", "T2", "T3", "T4", "T5",
            "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11",
            "S1", "S2",
            "A1", "A2", "A3", "A4", "A5",
            "F-FED", "W-DAG",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="known"):
            run_experiment("F99")

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            EXPERIMENTS["T1"].run(scale=0.0)

    def test_kinds_well_formed(self):
        for spec in EXPERIMENTS.values():
            assert spec.kind in ("table", "figure")
            assert spec.description


class TestResultShapes:
    def test_all_render_without_error(self, results):
        for experiment_id, result in results.items():
            text = result.render()
            assert experiment_id in text

    def test_tables_have_rows(self, results):
        for experiment_id in ("T1", "T2", "T3", "T4", "T5", "A1", "A2", "A3", "A4", "A5"):
            assert results[experiment_id].rows, experiment_id

    def test_figures_have_series_or_rows(self, results):
        for experiment_id in ("F1", "F3", "F4", "F5", "F9", "F10"):
            assert results[experiment_id].series, experiment_id

    def test_csv_export(self, results, tmp_path):
        for experiment_id, result in results.items():
            result.export_csv(tmp_path / f"{experiment_id}.csv")
            assert (tmp_path / f"{experiment_id}.csv").stat().st_size > 0


class TestHeadlineShapes:
    """The qualitative claims each experiment exists to demonstrate."""

    def test_t1_composition_totals(self, results):
        total_row = results["T1"].rows[-1]
        assert total_row["total_gpus"] == 176

    def test_f2_single_gpu_dominates_jobs_not_hours(self, results):
        rows = {row["gpus"]: row for row in results["F2"].rows}
        assert rows[1]["job_share"] > 0.4
        assert rows[1]["gpu_hour_share"] < rows[1]["job_share"]

    def test_f3_wider_jobs_run_longer(self, results):
        series = results["F3"].series
        # Compare medians: value at probability >= 0.5.
        def median_of(points):
            return next(x for x, p in points if p >= 0.5)

        assert median_of(series["gpus_1"]) < median_of(series["gpus_8+"])

    def test_t2_fifo_worst_wait(self, results):
        rows = {row["scheduler"]: row for row in results["T2"].rows}
        assert rows["fifo"]["avg_wait_h"] >= rows["backfill-easy"]["avg_wait_h"]
        assert rows["fifo"]["avg_wait_h"] >= rows["sjf"]["avg_wait_h"]

    def test_f6_backfill_never_hurts_jct(self, results):
        rows = {row["policy"]: row for row in results["F6"].rows}
        assert rows["easy"]["avg_jct_h"] <= rows["no-backfill"]["avg_jct_h"] * 1.05

    def test_f7_guaranteed_tier_protected(self, results):
        rows = {row["tier"]: row for row in results["F7"].rows}
        guaranteed = rows["guaranteed"]
        opportunistic = rows["opportunistic"]
        assert guaranteed["wait_p50_h"] <= opportunistic["wait_p50_h"] + 0.5

    def test_f9_ina_flattens_cross_rack(self, results):
        rows = results["F9"].rows
        by_key = {(row["method"], row["shape"]): row["rel_throughput"] for row in rows}
        ring_penalty = (
            by_key[("ring", "2n-same-rack")] - by_key[("ring", "2n-cross-rack")]
        )
        ina_penalty = by_key[("ina", "2n-same-rack")] - by_key[("ina", "2n-cross-rack")]
        assert ina_penalty < ring_penalty
        assert ina_penalty == pytest.approx(0.0, abs=1e-9)

    def test_t4_delta_cache_saves_10x(self, results):
        rows = {row["submission"]: row for row in results["T4"].rows}
        assert rows["edit-one-file"]["dedup_factor"] > 10
        assert rows["identical-resubmit"]["uploaded_mb"] == 0.0

    def test_f10_simulator_fast_enough(self, results):
        rows = results["F10"].rows
        assert all(row["sim_days_per_wall_s"] > 0.5 for row in rows)

    def test_t5_fair_share_beats_fifo_on_jain(self, results):
        rows = {
            row["scheduler"]: row for row in results["T5"].rows if "scheduler" in row
        }
        assert rows["fair-share"]["jain_users"] >= rows["fifo"]["jain_users"] - 0.1


class TestHelpers:
    def test_fresh_trace_copy_resets_state(self):
        trace = campus_trace(seed=0, scale=0.1, days=1.0, load=0.5)
        trace.jobs[0].start(trace.jobs[0].submit_time + 1, ("n",))
        copy = fresh_trace_copy(trace)
        assert copy.jobs[0].lifecycle.queued
        assert copy.jobs[0].job_id == trace.jobs[0].job_id
        assert len(copy) == len(trace)

    def test_campus_trace_scale_shrinks_horizon(self):
        short = campus_trace(seed=0, scale=0.2, days=10.0, load=0.5)
        assert short.span_seconds <= 2.2 * 86400.0
