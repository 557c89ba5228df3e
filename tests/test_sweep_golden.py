"""Golden byte-identity of the sweep engine's execution modes.

The determinism contract of ``python -m repro.experiments`` is that the
*rendered output* does not depend on how cells were executed: serial,
fanned out over a worker pool, or replayed from the content-addressed
cache must all produce identical bytes.  The only permitted variance is
the timing footer (``[ID regenerated in …]``), which is stripped before
comparison.

The subset below keeps the test fast while still covering multi-cell
experiments, cross-experiment cache sharing (T2 reuses F5's cells), a
preemptive quota run, and an ablation with checkpoint costs.

A warm replay is stricter still: it must equal the cold run that filled
the cache byte for byte, F10's host-timing columns included (a cell's
``wall_s`` travels with its cached result), and it must neither run nor
synthesize anything.
"""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import sweep
from repro.experiments import EXPERIMENTS
from repro.sweep import CELL_FORMAT_VERSION, CellResult, SweepCache

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: F5+T2 share six scheduler cells; F6 adds backfill variants; A3 runs
#: the checkpoint-cost ablation with preemption.  All are timing-free
#: in their rendered rows (unlike F10), so cold runs compare bytewise.
GOLDEN_IDS = ["F5", "T2", "F6", "A3"]

FOOTER = re.compile(r"^\[[A-Z0-9]+ regenerated in .*\]$")


def run_experiments(*extra: str, cache_dir: Path | None = None) -> str:
    argv = [
        sys.executable,
        "-m",
        "repro.experiments",
        *GOLDEN_IDS,
        "--scale",
        "0.3",
        *extra,
    ]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    else:
        argv += ["--no-cache"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def strip_footers(output: str) -> str:
    return "\n".join(
        line for line in output.splitlines() if not FOOTER.match(line)
    )


@pytest.fixture(scope="module")
def cold_serial(tmp_path_factory):
    """One cold serial run whose cache later runs replay from."""
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    return run_experiments("--jobs", "1", cache_dir=cache_dir), cache_dir


class TestGoldenByteIdentity:
    def test_parallel_matches_serial(self, cold_serial):
        serial_out, _ = cold_serial
        parallel_out = run_experiments("--jobs", "4")  # cold, no cache
        assert strip_footers(parallel_out) == strip_footers(serial_out)

    def test_warm_cache_matches_cold(self, cold_serial):
        serial_out, cache_dir = cold_serial
        warm_out = run_experiments("--jobs", "1", cache_dir=cache_dir)
        assert strip_footers(warm_out) == strip_footers(serial_out)
        # every cell must have been served from the cache
        footers = [
            line
            for line in warm_out.splitlines()
            if FOOTER.match(line) and "cells" in line
        ]
        assert footers
        assert all("/ 0 run" in line for line in footers)

    def test_poisoned_cache_is_ignored_not_served(self, cold_serial):
        serial_out, cache_dir = cold_serial
        cache = SweepCache(cache_dir)
        entries = cache.entries()
        assert entries, "cold run should have populated the cache"
        # poison one *cell* entry (the cache also holds trace rows/meta):
        # valid pickle, wrong code fingerprint
        for victim in entries:
            envelope = pickle.loads(victim.read_bytes())
            if isinstance(envelope.get("result"), CellResult):
                break
        else:
            pytest.fail("no cell entry found in the cache")
        envelope["fingerprint"] = "0" * 64
        assert envelope["version"] == CELL_FORMAT_VERSION
        victim.write_bytes(pickle.dumps(envelope))
        poisoned_out = run_experiments("--jobs", "1", cache_dir=cache_dir)
        # identical output: the poisoned entry was re-run, not trusted
        assert strip_footers(poisoned_out) == strip_footers(serial_out)
        rerun = [
            line
            for line in poisoned_out.splitlines()
            if FOOTER.match(line) and "/ 1 run" in line
        ]
        assert rerun, "exactly the poisoned cell should have re-run"


class TestWarmReplay:
    def test_warm_replay_is_byte_identical_and_runs_nothing(self, tmp_path):
        def render_all():
            with sweep.execution(jobs=1, cache_dir=tmp_path) as runner:
                rendered = [
                    EXPERIMENTS[experiment_id].run(seed=0, scale=0.1).render()
                    for experiment_id in ("F10", "F5")
                ]
                return rendered, runner.stats.snapshot()

        cold, cold_stats = render_all()
        warm, warm_stats = render_all()
        assert cold_stats["cache_misses"] == cold_stats["cells"] > 1
        assert warm == cold
        assert warm_stats["cache_misses"] == 0
        assert warm_stats["cache_hits"] == warm_stats["cells"] == cold_stats["cells"]
        assert warm_stats["traces_synthesized"] == 0
