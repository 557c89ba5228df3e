"""simlint analyzer tests: every rule, suppressions, baseline, CLI, clean tree.

Each rule R1–R13 is exercised by a bad/good fixture pair under
``tests/data/simlint/`` analyzed under a *virtual* path inside the rule's
scope, so the fixtures live outside the real package tree (and the runner
explicitly skips them during real scans — verified below).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    LintCache,
    all_rules,
    analyze_paths,
    analyze_source,
    file_key,
    rule_by_id,
    run_lint,
)
from repro.analysis.__main__ import main as simlint_main
from repro.tcloud.cli import main as tcloud_main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "data" / "simlint"

#: rule id → (fixture stem, virtual path the fixture is analyzed under).
RULE_FIXTURES = {
    "R1": ("r1", "src/repro/sim/fixture.py"),
    "R2": ("r2", "src/repro/sim/fixture.py"),
    "R3": ("r3", "src/repro/sched/fixture.py"),
    "R4": ("r4", "src/repro/sim/events_fixture.py"),
    "R5": ("r5", "src/repro/experiments/fixture.py"),
    "R6": ("r6", "src/repro/sched/fixture.py"),
    "R7": ("r7", "src/repro/sim/fixture.py"),
    "R8": ("r8", "src/repro/sim/fixture.py"),
    "R9": ("r9", "src/repro/workload/fixture.py"),
    "R10": ("r10", "src/repro/workload/fixture.py"),
    "R12": ("r12", "src/repro/schema/fixture.py"),
    "R13": ("r13", "src/repro/sim/fixture.py"),
}


def fixture_source(name: str) -> str:
    return (FIXTURES / f"{name}.py").read_text()


class TestRegistry:
    def test_at_least_eight_rules_with_metadata(self):
        rules = all_rules()
        assert len(rules) >= 8
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert rule.id and rule.name and rule.rationale

    def test_rule_lookup(self):
        assert rule_by_id("R1").name == "unseeded-rng"
        with pytest.raises(KeyError):
            rule_by_id("R999")

    def test_every_rule_has_fixture_coverage(self):
        assert set(RULE_FIXTURES) == {rule.id for rule in all_rules()}


class TestRules:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_bad_fixture_fires_only_its_rule(self, rule_id):
        stem, path = RULE_FIXTURES[rule_id]
        findings = analyze_source(fixture_source(f"{stem}_bad"), path)
        assert findings, f"{stem}_bad.py produced no findings"
        assert {f.rule_id for f in findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_good_fixture_is_clean(self, rule_id):
        stem, path = RULE_FIXTURES[rule_id]
        assert analyze_source(fixture_source(f"{stem}_good"), path) == []

    def test_rules_are_path_scoped(self):
        # The same RNG violation is fine outside simulation code.
        source = fixture_source("r1_bad")
        assert analyze_source(source, "scripts/make_figures.py") == []

    def test_r1_allows_seeded_constructors(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert analyze_source(source, "src/repro/sim/x.py") == []

    def test_r1_resolves_import_aliases(self):
        source = "import numpy.random as nr\nx = nr.rand()\n"
        findings = analyze_source(source, "src/repro/sim/x.py")
        assert [f.rule_id for f in findings] == ["R1"]

    def test_r2_resolves_module_alias(self):
        source = "import time as _t\nx = _t.perf_counter()\n"
        findings = analyze_source(source, "src/repro/sim/x.py")
        assert [f.rule_id for f in findings] == ["R2"]

    def test_r3_exempts_the_control_plane(self):
        source = fixture_source("r3_bad")
        assert analyze_source(source, "src/repro/controlplane/controller.py") == []
        assert analyze_source(source, "src/repro/workload/job.py") == []

    def test_r4_flags_non_integer_rank(self):
        source = (
            "class Event:\n    pass\n\n"
            "class Tick(Event):\n    pass\n\n"
            'PRIORITY = {Tick: "high"}\n'
        )
        findings = analyze_source(source, "src/repro/sim/x.py")
        # The string rank is flagged AND leaves Tick effectively unranked.
        assert {f.rule_id for f in findings} == {"R4"}
        assert any("integer" in f.message for f in findings)

    def test_r6_sorted_wrapper_escapes(self):
        source = "ids = {1, 2, 3}\nordered = sorted(ids)\n"
        assert analyze_source(source, "src/repro/sched/x.py") == []

    def test_r6_scalar_min_is_not_flagged(self):
        source = "a = {1}\nx = min(2, 3)\n"
        assert analyze_source(source, "src/repro/sched/x.py") == []

    def test_r7_exempts_snapshot_module(self):
        source = fixture_source("r7_bad")
        assert analyze_source(source, "src/repro/controlplane/snapshot.py") == []

    def test_r8_reraise_is_fine(self):
        source = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert analyze_source(source, "src/repro/sim/x.py") == []


class TestTaintDataflow:
    """R9/R10 flow details beyond the fixture pair: chain text + sinks."""

    SIM = "src/repro/workload/x.py"

    def test_message_carries_the_full_source_to_sink_chain(self):
        findings = analyze_source(
            fixture_source("r9_bad"), RULE_FIXTURES["R9"][1]
        )
        [finding] = findings
        assert finding.message == (
            "nondeterministic order reaches result sink add_row(); "
            "taint path: set comprehension (line 5) -> "
            "assigned to 'pending' (line 5) -> "
            "order materialised by a list comprehension over it (line 6) -> "
            "assigned to 'ids' (line 6) -> "
            "reaches sink add_row() (line 7); "
            "iterate a sorted(...) view before the order is observable"
        )

    def test_wait_result_in_raised_message_is_a_sink(self):
        source = (
            "from concurrent.futures import wait\n"
            "def gather(futures):\n"
            "    done, pending = wait(futures)\n"
            "    names = [f.name for f in done]\n"
            "    raise RuntimeError(', '.join(names))\n"
        )
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["R9"]
        assert "raised exception message" in findings[0].message
        assert "wait() (line 3)" in findings[0].message

    def test_os_environ_is_an_unordered_source(self):
        source = (
            "import os\n"
            "def key(h):\n"
            "    tags = [v for v in os.environ]\n"
            "    return h.sha256(str(tags))\n"
        )
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["R9"]
        assert "os.environ" in findings[0].message

    def test_sorting_id_keyed_container_is_flagged(self):
        source = (
            "def order(jobs):\n"
            "    ranks = {}\n"
            "    for j in jobs:\n"
            "        ranks[id(j)] = j\n"
            "    return sorted(ranks)\n"
        )
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["R9"]
        assert "memory address" in findings[0].message

    def test_sum_over_set_is_r10(self):
        source = (
            "def cost(cells):\n"
            "    prices = {c.price for c in cells}\n"
            "    return sum(prices)\n"
        )
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["R10"]

    def test_sorted_before_the_sink_sanitises(self):
        source = (
            "def cost(cells):\n"
            "    prices = {c.price for c in cells}\n"
            "    return sum(sorted(prices))\n"
        )
        assert analyze_source(source, self.SIM) == []


class TestLintCache:
    """The incremental runner: invalidation, determinism, speedup."""

    def _tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "tree" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "clean.py").write_text("x = 1\n")
        (pkg / "clock.py").write_text("import time\nt = time.time()\n")
        return tmp_path / "tree"

    @staticmethod
    def _rendered(report) -> str:
        return json.dumps([f.as_dict() for f in report.findings], sort_keys=True)

    def test_file_key_is_sensitive_to_path_bytes_and_engine(self):
        base = file_key("a.py", b"x = 1\n", "e1")
        assert file_key("a.py", b"x = 2\n", "e1") != base
        assert file_key("b.py", b"x = 1\n", "e1") != base
        assert file_key("a.py", b"x = 1\n", "e2") != base

    def test_warm_run_hits_and_edit_invalidates_one_file(self, tmp_path):
        tree = self._tree(tmp_path)
        cache = LintCache(tmp_path / "cache")
        cold = run_lint([tree], cache=cache)
        assert (cold.stats.cache_hits, cold.stats.cache_misses) == (0, 2)
        warm = run_lint([tree], cache=cache)
        assert (warm.stats.cache_hits, warm.stats.cache_misses) == (2, 0)
        assert self._rendered(warm) == self._rendered(cold)
        (tree / "repro" / "sim" / "clean.py").write_text(
            "import random\nr = random.random()\n"
        )
        edited = run_lint([tree], cache=cache)
        assert (edited.stats.cache_hits, edited.stats.cache_misses) == (1, 1)
        assert {f.rule_id for f in edited.findings} == {"R1", "R2"}

    def test_suppressions_filter_cached_records_at_merge_time(self, tmp_path):
        tree = self._tree(tmp_path)
        (tree / "repro" / "sim" / "clock.py").write_text(
            "import time\nt = time.time()  # simlint: disable=R2\n"
        )
        cache = LintCache(tmp_path / "cache")
        assert run_lint([tree], cache=cache).findings == []
        warm = run_lint([tree], cache=cache)
        assert warm.findings == []
        assert warm.stats.cache_hits == 2

    def test_findings_identical_across_cache_state_and_jobs(self, tmp_path):
        tree = self._tree(tmp_path)
        cache = LintCache(tmp_path / "cache")
        cold_parallel = run_lint([tree], jobs=4, cache=cache)
        warm_serial = run_lint([tree], jobs=1, cache=cache)
        uncached = run_lint([tree], jobs=1, cache=None)
        assert warm_serial.stats.cache_hits == 2
        assert (
            self._rendered(cold_parallel)
            == self._rendered(warm_serial)
            == self._rendered(uncached)
        )

    def test_warm_run_is_at_most_a_quarter_of_cold(self, tmp_path):
        pkg = tmp_path / "tree" / "repro" / "sim"
        pkg.mkdir(parents=True)
        body = "\n\n".join(
            f"def f{i}(xs):\n"
            f"    ys = [x + {i} for x in xs]\n"
            f"    return len(ys)"
            for i in range(40)
        )
        for index in range(30):
            (pkg / f"mod{index}.py").write_text(body + "\n")
        cache = LintCache(tmp_path / "cache")
        cold = run_lint([tmp_path / "tree"], cache=cache)
        warm = run_lint([tmp_path / "tree"], cache=cache)
        assert cold.findings == warm.findings == []
        assert warm.stats.cache_hits == 30
        assert warm.stats.wall_seconds <= 0.25 * cold.stats.wall_seconds, (
            f"warm {warm.stats.wall_seconds:.3f}s vs "
            f"cold {cold.stats.wall_seconds:.3f}s"
        )


class TestIncrementalCli:
    """The new front-door flags: --stats, --changed, cache counters."""

    def _write_violation(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        target = pkg / "clock.py"
        target.write_text("import time\nt = time.time()\n")
        return target

    def test_stats_report_cache_hits_on_the_warm_run(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        argv = [
            str(tmp_path),
            "--no-baseline",
            "--stats",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert simlint_main(argv) == 1
        err = capsys.readouterr().err
        assert "simlint stats:" in err
        assert "0 hit / 1 miss" in err
        assert simlint_main(argv) == 1
        err = capsys.readouterr().err
        assert "1 hit / 0 miss" in err
        assert "(100.0% hit rate)" in err

    def test_json_format_reports_cache_counters(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert (
            simlint_main(
                [
                    str(tmp_path),
                    "--no-baseline",
                    "--format",
                    "json",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"hits": 0, "misses": 1}

    def test_changed_analyzes_only_the_git_diff(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        git = ["git", "-c", "user.email=ci@example.invalid", "-c", "user.name=ci"]
        subprocess.run(["git", "init", "-q"], check=True)
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        subprocess.run(["git", "add", "."], check=True)
        subprocess.run(git + ["commit", "-qm", "seed"], check=True)

        argv = [".", "--changed", "--no-baseline", "--no-cache"]
        assert simlint_main(argv) == 0
        assert "no changed python files" in capsys.readouterr().out

        (pkg / "clock.py").write_text("import time\nt = time.time()\n")
        assert simlint_main(argv) == 1
        out = capsys.readouterr().out
        assert "R2" in out and "clock.py" in out
        assert "1 file(s)" in out  # the committed-clean ok.py was skipped

    def test_tcloud_lint_mirrors_the_new_flags(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert (
            tcloud_main(
                [
                    "lint",
                    str(tmp_path),
                    "--no-baseline",
                    "--stats",
                    "--jobs",
                    "2",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "R2" in captured.out
        assert "simlint stats:" in captured.err


class TestSuppressions:
    SIM = "src/repro/sim/x.py"

    def test_inline_disable(self):
        source = "import time\nt = time.time()  # simlint: disable=R2\n"
        assert analyze_source(source, self.SIM) == []

    def test_disable_next_line(self):
        source = "import time\n# simlint: disable-next-line=R2\nt = time.time()\n"
        assert analyze_source(source, self.SIM) == []

    def test_disable_file(self):
        source = (
            "# simlint: disable-file=R2\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert analyze_source(source, self.SIM) == []

    def test_disable_all(self):
        source = "import time\nt = time.time()  # simlint: disable=all\n"
        assert analyze_source(source, self.SIM) == []

    def test_wrong_rule_does_not_suppress(self):
        source = "import time\nt = time.time()  # simlint: disable=R1\n"
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["R2"]

    def test_multiple_rules_in_one_directive(self):
        source = (
            "import time\n"
            "import random\n"
            "t = (time.time(), random.random())  # simlint: disable=R1, R2\n"
        )
        findings = analyze_source(source, self.SIM)
        # The import of 'random' on line 2 is still a finding; the call
        # line's combined directive suppresses both call findings.
        assert [(f.rule_id, f.line) for f in findings] == [("R1", 2)]

    def test_malformed_directive_is_a_finding(self):
        source = "x = 1  # simlint: disable\n"
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["S0"]

    def test_late_disable_file_is_a_finding(self):
        filler = "\n".join(f"x{i} = {i}" for i in range(25))
        source = filler + "\n# simlint: disable-file=R2\n"
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["S0"]
        assert "first" in findings[0].message

    def test_s0_is_not_suppressible(self):
        source = "# simlint: disable-file=all\nx = 1  # simlint: disable\n"
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["S0"]

    def test_directive_inside_string_is_inert(self):
        source = 'msg = "# simlint: disable"\n'
        assert analyze_source(source, self.SIM) == []


class TestBaseline:
    BAD = "import time\nt = time.time()\n"

    def test_roundtrip_absorbs_known_findings(self, tmp_path):
        findings = analyze_source(self.BAD, "src/repro/sim/x.py")
        baseline = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        new, baselined = Baseline.load(path).split(findings)
        assert new == []
        assert baselined == findings

    def test_baseline_keys_ignore_line_numbers(self):
        shifted = "\n\n\n" + self.BAD
        baseline = Baseline.from_findings(
            analyze_source(self.BAD, "src/repro/sim/x.py")
        )
        new, baselined = baseline.split(analyze_source(shifted, "src/repro/sim/x.py"))
        assert new == []
        assert len(baselined) == 1

    def test_multiplicity_is_respected(self):
        # Both call sites strip to exactly the baselined source line.
        doubled = (
            "import time\n"
            "def a():\n    t = time.time()\n    return t\n"
            "def b():\n    t = time.time()\n    return t\n"
        )
        one = analyze_source(self.BAD, "src/repro/sim/x.py")
        baseline = Baseline.from_findings(one)
        new, baselined = baseline.split(analyze_source(doubled, "src/repro/sim/x.py"))
        assert len(baselined) == 1
        assert len(new) == 1  # the second identical call is NOT grandfathered

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestCli:
    def _write_violation(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        target = pkg / "clock.py"
        target.write_text("import time\nt = time.time()\n")
        return target

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert simlint_main([str(tmp_path), "--no-baseline"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert simlint_main([str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "R2" in out and "clock.py" in out

    def test_missing_path_exits_two(self, tmp_path):
        assert simlint_main([str(tmp_path / "nope")]) == 2

    def test_write_then_enforce_baseline(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert simlint_main(
            [str(tmp_path), "--write-baseline", "--baseline", str(baseline)]
        ) == 0
        assert simlint_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert simlint_main([str(tmp_path), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"] and payload["new"][0]["rule"] == "R2"
        assert len(payload["rules"]) >= 8

    def test_list_rules(self, capsys):
        assert simlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_syntax_error_is_a_p0_finding(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert simlint_main([str(tmp_path), "--no-baseline"]) == 1
        assert "P0" in capsys.readouterr().out

    def test_tcloud_lint_delegates(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert tcloud_main(["lint", str(tmp_path), "--no-baseline"]) == 1
        assert "R2" in capsys.readouterr().out
        assert tcloud_main(["lint", "--list-rules"]) == 0


class TestRealTree:
    def test_fixture_directory_is_never_scanned(self):
        report = analyze_paths([FIXTURES])
        assert report.files_analyzed == 0

    def test_shipped_baseline_is_empty(self):
        baseline = Baseline.load(REPO / "simlint-baseline.json")
        assert baseline.counts == {}

    def test_source_tree_is_clean(self):
        report = analyze_paths([REPO / "src", REPO / "benchmarks"])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"simlint findings in tree:\n{rendered}"
        assert report.files_analyzed > 100
        assert len(report.rules_run) >= 8
