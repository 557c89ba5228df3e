"""Unit tests for the sweep engine: specs, cache, runner, trace sharing."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError, SweepError
from repro.sweep import (
    CELL_FORMAT_VERSION,
    ClusterSpec,
    SchedulerSpec,
    SimCell,
    SweepCache,
    SweepRunner,
    TraceSpec,
    build_trace,
    canonical_json,
    cell_key,
    code_fingerprint,
)
from repro.workload.trace import Trace


def tiny_tspec(seed: int = 0, jobs_per_day: float = 30.0) -> TraceSpec:
    """One simulated day, ~30 jobs, no load calibration — fast to run."""
    return TraceSpec(
        days=1.0,
        synth_seed=seed,
        load=None,
        overrides={"jobs_per_day": jobs_per_day},
    )


def tiny_cell(seed: int = 0, scheduler: str = "fifo", **kwargs) -> SimCell:
    return SimCell(
        trace=tiny_tspec(seed),
        scheduler=SchedulerSpec(name=scheduler),
        cluster=ClusterSpec(kind="uniform", nodes=2),
        **kwargs,
    )


class TestCanonicalJson:
    def test_keys_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_dataclasses_encode_by_field(self):
        text = canonical_json(SchedulerSpec(name="fifo"))
        assert text == '{"name":"fifo","params":{},"placement":null,"quotas":null}'

    def test_equal_specs_encode_identically(self):
        assert canonical_json(tiny_cell()) == canonical_json(tiny_cell())

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            canonical_json({"x": float("nan")})

    def test_inf_rejected(self):
        with pytest.raises(ConfigError):
            canonical_json({"x": float("inf")})

    def test_non_plain_data_rejected(self):
        with pytest.raises(ConfigError):
            canonical_json({"x": object()})


class TestCellKey:
    def test_deterministic(self):
        assert cell_key(tiny_cell()) == cell_key(tiny_cell())

    def test_spec_sensitive(self):
        assert cell_key(tiny_cell(seed=0)) != cell_key(tiny_cell(seed=1))
        assert cell_key(tiny_cell()) != cell_key(tiny_cell(scheduler="sjf"))

    def test_fingerprint_sensitive(self):
        cell = tiny_cell()
        assert cell_key(cell, fingerprint="aaa") != cell_key(cell, fingerprint="bbb")

    def test_default_fingerprint_is_current_code(self):
        cell = tiny_cell()
        assert cell_key(cell) == cell_key(cell, fingerprint=code_fingerprint())


class TestCache:
    def test_cold_then_warm_roundtrip(self, tmp_path):
        cell = tiny_cell()
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        cold = runner.run_one(cell)
        assert not cold.cached
        warm = SweepRunner(jobs=1, cache_dir=tmp_path).run_one(cell)
        assert warm.cached
        assert warm.summary == cold.summary
        assert warm.wall_s == cold.wall_s  # timings replay from the cache too
        assert warm.events_processed == cold.events_processed

    def test_miss_on_empty_cache(self, tmp_path):
        assert SweepCache(tmp_path).get(cell_key(tiny_cell())) is None

    def test_poisoned_fingerprint_ignored(self, tmp_path):
        cell = tiny_cell()
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        result = runner.run_one(cell)
        key = cell_key(cell)
        cache = SweepCache(tmp_path)
        poison = {
            "fingerprint": "not-the-current-code",
            "version": CELL_FORMAT_VERSION,
            "result": result,
        }
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.write_bytes(pickle.dumps(poison))
        assert cache.get(key) is None
        # and the runner transparently re-runs instead of serving poison
        rerun = SweepRunner(jobs=1, cache_dir=tmp_path)
        fresh = rerun.run_one(cell)
        assert not fresh.cached
        assert fresh.summary == result.summary

    def test_version_mismatch_ignored(self, tmp_path):
        cell = tiny_cell()
        SweepRunner(jobs=1, cache_dir=tmp_path).run_one(cell)
        key = cell_key(cell)
        path = tmp_path / key[:2] / f"{key}.pkl"
        envelope = pickle.loads(path.read_bytes())
        envelope["version"] = CELL_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(envelope))
        assert SweepCache(tmp_path).get(key) is None

    def test_corrupt_bytes_are_a_miss(self, tmp_path):
        cell = tiny_cell()
        SweepRunner(jobs=1, cache_dir=tmp_path).run_one(cell)
        key = cell_key(cell)
        (tmp_path / key[:2] / f"{key}.pkl").write_bytes(b"\x00garbage")
        assert SweepCache(tmp_path).get(key) is None

    def test_prune_drops_stale_keeps_current(self, tmp_path):
        cell = tiny_cell()
        SweepRunner(jobs=1, cache_dir=tmp_path).run_one(cell)
        cache = SweepCache(tmp_path)
        stale = tmp_path / "zz" / "zz0000.pkl"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"\x00junk")
        assert cache.prune() == 1
        assert not stale.exists()
        assert cache.get(cell_key(cell)) is not None

    def test_prune_all(self, tmp_path):
        SweepRunner(jobs=1, cache_dir=tmp_path).run_one(tiny_cell())
        cache = SweepCache(tmp_path)
        count = len(cache.entries())  # cell result + cached trace rows
        assert count >= 2
        assert cache.prune(all_entries=True) == count
        assert cache.entries() == []


class TestRunner:
    def test_trace_memo_synthesizes_once(self):
        runner = SweepRunner(jobs=1, no_cache=True)
        cells = {
            "fifo": tiny_cell(scheduler="fifo"),
            "sjf": tiny_cell(scheduler="sjf"),
        }
        runner.run_cells(cells)
        assert runner.stats.traces_synthesized == 1
        assert runner.stats.trace_memo_hits == 1

    def test_results_preserve_input_order(self):
        runner = SweepRunner(jobs=1, no_cache=True)
        cells = {
            "z-last": tiny_cell(scheduler="sjf"),
            "a-first": tiny_cell(scheduler="fifo"),
        }
        results = runner.run_cells(cells)
        assert list(results) == ["z-last", "a-first"]

    def test_cache_hits_skip_execution(self, tmp_path):
        cell = tiny_cell()
        SweepRunner(jobs=1, cache_dir=tmp_path).run_one(cell)
        warm = SweepRunner(jobs=1, cache_dir=tmp_path)
        warm.run_one(cell)
        assert warm.stats.cache_hits == 1
        assert warm.stats.cache_misses == 0
        assert warm.stats.traces_synthesized == 0

    def test_failures_batch_into_one_sweep_error(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=tmp_path)
        cells = {
            "good": tiny_cell(),
            "bad": tiny_cell(scheduler="no-such-scheduler"),
        }
        with pytest.raises(SweepError, match="no-such-scheduler"):
            runner.run_cells(cells)
        # the succeeded sibling was still cached before the raise
        warm = SweepRunner(jobs=1, cache_dir=tmp_path).run_one(cells["good"])
        assert warm.cached

    def test_parallel_matches_serial(self):
        cells = {
            "fifo": tiny_cell(scheduler="fifo"),
            "sjf": tiny_cell(scheduler="sjf"),
            "srtf": tiny_cell(scheduler="srtf"),
        }
        serial = SweepRunner(jobs=1, no_cache=True).run_cells(cells)
        pooled_runner = SweepRunner(jobs=2, no_cache=True)
        try:
            pooled = pooled_runner.run_cells(cells)
        finally:
            pooled_runner.close()
        assert list(pooled) == list(serial)
        for name in cells:
            assert pooled[name].summary == serial[name].summary
            assert pooled[name].events_processed == serial[name].events_processed
            # every perf counter is a deterministic work count
            assert pooled[name].perf == serial[name].perf

    def test_execution_context_installs_and_restores(self):
        from repro import sweep

        default = sweep.active_runner()
        with sweep.execution(jobs=1, no_cache=True) as runner:
            assert sweep.active_runner() is runner
            result = sweep.run_one(tiny_cell())
            assert result.summary["completed"] > 0
            assert runner.stats.cells == 1
        assert sweep.active_runner() is default


class TestTraceSharing:
    def test_frozen_rows_roundtrip(self):
        trace = build_trace(tiny_tspec())
        copy = Trace.from_rows(
            trace.frozen_rows(), name=trace.name, metadata=dict(trace.metadata)
        )
        assert len(copy.jobs) == len(trace.jobs)
        for original, clone in zip(trace.jobs, copy.jobs):
            assert clone.job_id == original.job_id
            assert clone.submit_time == original.submit_time
            assert clone.duration == original.duration
            assert clone.request.num_gpus == original.request.num_gpus
            assert clone is not original

    def test_frozen_rows_snapshot_is_stable(self):
        trace = build_trace(tiny_tspec())
        assert trace.frozen_rows() is trace.frozen_rows()

    def test_fresh_trace_copy_isolates_state(self):
        from repro.experiments.common import fresh_trace_copy

        trace = build_trace(tiny_tspec())
        copy = fresh_trace_copy(trace)
        copy.jobs[0].remaining_work = 0.0
        assert trace.jobs[0].remaining_work != 0.0


class TestFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_is_hex_sha256(self):
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)
