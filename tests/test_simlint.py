"""simlint analyzer tests: every rule, suppressions, CLI, clean tree.

Each rule is exercised by a bad/good fixture pair under
``tests/data/simlint/`` analyzed under a *virtual* path inside the rule's
scope, so the fixtures live outside the real package tree (and the runner
explicitly skips them during real scans — verified below).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_paths, analyze_source, rule_by_id
from repro.analysis.__main__ import main as simlint_main
from repro.tcloud.cli import main as tcloud_main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "data" / "simlint"

#: fixture label → (fixture stem, virtual path the fixture is analyzed
#: under).  The label is the rule id, or ``<id>-<aspect>`` for a rule's
#: further pairs.
RULE_FIXTURES = {
    "R1": ("r1", "src/repro/sim/fixture.py"),
    "R2": ("r2", "src/repro/sim/fixture.py"),
    "R3": ("r3", "src/repro/sched/fixture.py"),
    "R5": ("r5", "src/repro/experiments/fixture.py"),
    "R7": ("r7", "src/repro/sim/fixture.py"),
    "R8": ("r8", "src/repro/sim/fixture.py"),
    "R9": ("r9", "src/repro/workload/fixture.py"),
    # Order observed by scheduling code: the shapes the retired R6 banned.
    "R9-order": ("r9_order", "src/repro/sched/fixture.py"),
    "R10": ("r10", "src/repro/workload/fixture.py"),
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
        labelled = {label.partition("-")[0] for label in RULE_FIXTURES}
        assert labelled == {rule.id for rule in all_rules()}


class TestRules:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_bad_fixture_fires_only_its_rule(self, rule_id):
        stem, path = RULE_FIXTURES[rule_id]
        findings = analyze_source(fixture_source(f"{stem}_bad"), path)
        assert findings, f"{stem}_bad.py produced no findings"
        assert {f.rule_id for f in findings} == {rule_id.partition("-")[0]}

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


#: Function bodies whose arbitrary set order is observed (shape → body, sink).
ORDER_OBSERVED = {
    "early-return": ("for n in set(s):\n    return n\n", "escapes via return"),
    "min-key": ("x = min(set(s), key=f)\n", "wins a min(key=) tie"),
    "attribute": ("self.order = list(set(s))\n", "stored on attribute .order"),
    "loop-call": (
        "for x in set(s):\n    ctx.start_job(x)\n",
        "drives sink start_job()",
    ),
    "loop-call-via-list": (
        "out = list(set(s))\nfor x in out:\n    ctx.start_job(x)\n",
        "drives sink start_job()",
    ),
}

#: Function bodies that hold unordered data without observing its order.
ORDER_FREE = {
    "sorted-view": "ids = {1, 2, 3}\nordered = sorted(ids)\n",
    "scalar-min": "a = {1}\nx = min(2, 3)\n",
    "min-without-key": "x = min(set(s))\n",
    "sorted-loop-call": "for x in sorted(set(s)):\n    ctx.start_job(x)\n",
    "set-receiver": "seen = set()\nfor x in set(s):\n    seen.add(x)\n",
    "constant-return": "for x in set(s):\n    if x.bad:\n        return False\n",
    # sweep/runner.py's wait() loop: a call on the element itself.
    "loop-target-call": (
        "from concurrent.futures import FIRST_COMPLETED, wait\n"
        "outstanding = set(futures)\n"
        "while outstanding:\n"
        "    done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)\n"
        "    for future in done:\n"
        "        future.result()\n"
    ),
}


def _in_function(body: str) -> str:
    indented = "".join(f"    {line}\n" for line in body.splitlines())
    return f"def f(self, s, f, ctx, futures):\n{indented}"


class TestOrderSinks:
    """R9 covers every shape the retired R6 flagged, in all simulation code."""

    @pytest.mark.parametrize("package", ["sched", "execlayer"])
    @pytest.mark.parametrize("shape", sorted(ORDER_OBSERVED))
    def test_observed_order_is_r9(self, shape, package):
        body, phrase = ORDER_OBSERVED[shape]
        findings = analyze_source(_in_function(body), f"src/repro/{package}/x.py")
        assert [f.rule_id for f in findings] == ["R9"]
        assert phrase in findings[0].message

    @pytest.mark.parametrize("package", ["sched", "execlayer"])
    @pytest.mark.parametrize("shape", sorted(ORDER_FREE))
    def test_order_free_use_is_clean(self, shape, package):
        source = _in_function(ORDER_FREE[shape])
        assert analyze_source(source, f"src/repro/{package}/x.py") == []


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    """A small package tree with one R1 and one R2 finding, in two files."""
    pkg = tmp_path / "tree" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("x = 1\n")
    (pkg / "clock.py").write_text("import time\nt = time.time()\n")
    (pkg / "dice.py").write_text("import random\n")
    return tmp_path / "tree"


def _rendered(report) -> str:
    return json.dumps([f.as_dict() for f in report.findings], sort_keys=True)


class TestRunner:
    """The one serial runner: deterministic output, suppression filtering."""

    @pytest.mark.parametrize("shape", ["rerun", "reordered", "duplicated"])
    def test_findings_are_byte_identical(self, tree, shape):
        sim = tree / "repro" / "sim"
        reference = analyze_paths([tree])
        assert {f.rule_id for f in reference.findings} == {"R1", "R2"}
        paths = {
            "rerun": [tree],
            "reordered": sorted(sim.iterdir(), reverse=True),
            "duplicated": [tree, sim, sim / "clock.py", tree],
        }[shape]
        report = analyze_paths(paths)
        assert report.files_analyzed == 3
        assert _rendered(report) == _rendered(reference)

    def test_suppressions_filter_project_rule_findings(self, tree):
        sim = tree / "repro" / "sim"
        (sim / "clock.py").write_text("import time\nt = time.time()  # simlint: disable=R2\n")
        (sim / "dice.py").write_text("import random  # simlint: disable=R1\n")
        assert analyze_paths([tree]).findings == []


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

    # An unregistered id (typo, retired R4/R6/R11/R12, wrong case) fails loudly.
    @pytest.mark.parametrize("rule_id", ["R99", "R4", "R6", "R11", "R12", "r2"])
    def test_unknown_rule_id_is_a_finding(self, rule_id):
        source = f"import time\nt = time.time()  # simlint: disable={rule_id}\n"
        findings = analyze_source(source, self.SIM)
        assert [f.rule_id for f in findings] == ["R2", "S0"]
        assert findings[1].message == f"unknown simlint rule {rule_id!r}"

    def test_unknown_rule_id_is_not_suppressible(self):
        source = "# simlint: disable-file=all\nx = 1  # simlint: disable=R1, R99\n"
        findings = analyze_source(source, self.SIM)
        assert [(f.rule_id, f.line) for f in findings] == [("S0", 2)]


class TestCli:
    def _write_violation(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        target = pkg / "clock.py"
        target.write_text("import time\nt = time.time()\n")
        return target

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert simlint_main([str(tmp_path)]) == 0
        assert "simlint: 0 finding(s), 1 file(s), " in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert simlint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R2" in out and "clock.py" in out

    def test_missing_path_exits_two(self, tmp_path):
        assert simlint_main([str(tmp_path / "nope")]) == 2

    def test_json_format(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert simlint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"files_analyzed", "rules", "findings"}
        assert payload["findings"] and payload["findings"][0]["rule"] == "R2"
        assert set(payload["findings"][0]) == {"rule", "path", "line", "col", "message"}
        assert len(payload["rules"]) >= 8

    def test_list_rules(self, capsys):
        assert simlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_syntax_error_is_a_p0_finding(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert simlint_main([str(tmp_path)]) == 1
        assert "P0" in capsys.readouterr().out

    def test_non_utf8_file_is_a_p0_finding(self, tmp_path, capsys):
        (tmp_path / "latin1.py").write_bytes(b'x = "\xff"\n')
        assert simlint_main([str(tmp_path)]) == 1
        assert "latin1.py:1:6: P0 file is not valid UTF-8" in capsys.readouterr().out

    def test_stats_report_per_rule_times(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert simlint_main([str(tmp_path), "--stats"]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^simlint stats: 1 file\(s\), wall \d+\.\d{3}s$", err, re.M)
        timed = re.findall(r"^ +(R\d+)  check +\d+\.\dms$", err, re.M)
        assert {"R1", "R2"} <= set(timed)
        assert len(timed) == len(set(timed))

    def test_tcloud_lint_passes_stats_through(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert tcloud_main(["lint", str(tmp_path), "--stats"]) == 1
        captured = capsys.readouterr()
        assert "R2" in captured.out
        assert "simlint stats:" in captured.err

    def test_tcloud_lint_delegates(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        assert tcloud_main(["lint", str(tmp_path)]) == 1
        assert "R2" in capsys.readouterr().out
        assert tcloud_main(["lint", "--list-rules"]) == 0


class TestRealTree:
    def test_fixture_directory_is_never_scanned(self):
        report = analyze_paths([FIXTURES])
        assert report.files_analyzed == 0

    def test_source_tree_is_clean(self):
        report = analyze_paths([REPO / "src", REPO / "scripts"])
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"simlint findings in tree:\n{rendered}"
        assert report.files_analyzed > 100
        assert len(report.rules_run) >= 8
