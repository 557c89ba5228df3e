"""The repository benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-window --seed 0 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``fleet-window``: one-day windows of the fleet mix on 32,768 GPUs;
* ``campus-congested``: two-day overload episodes on a 256-GPU
  heterogeneous campus cluster;
* ``suite``: ``python -m repro.experiments --all`` cold, in-process;
* ``suite-warm``: the same ``--all`` replayed from the cache a cold run
  filled.

A run repeats one operation (a simulation, or one ``--all``) on pool
instances chosen by ``--seed`` until ``--seconds`` have passed, at least
three times, and reports medians over operations.  Every operation's
output digest is checked against ``perfbench/references/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the first instance also runs untraced, and the traced
operations report the per-layer metrics.  Full records and the traced
spans go to ``.perfbench-out/``.

``--record`` recomputes the reference digests of a workload's pool.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references"

WORKLOADS = ("fleet-window", "campus-congested", "suite", "suite-warm")
MIN_OPS = 3
IMPORT_PROBES = 5

_IMPORT_PROBE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import repro.experiments\n"
    "from repro.experiments.registry import EXPERIMENTS\n"
    "assert EXPERIMENTS\n"
    "print(repr(time.perf_counter() - started))\n"
)


@dataclass
class Op:
    """One operation: where it ran, what it cost, whether its output held."""

    instance: int
    run_s: float
    jobs: int
    units: int
    digest: str | None
    work: dict[str, int] = field(default_factory=dict)
    setup_s: float | None = None
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def jobs_per_s(self) -> float:
        return self.jobs / self.run_s if self.run_s else 0.0


class Bench:
    """A workload: optional one-off preparation, then repeatable operations."""

    def __init__(self, workload: str, references: dict[str, Any]) -> None:
        self.workload = workload
        self.references = references

    def prepare(self, instance: int) -> None:
        """Work done once per run, before any operation."""

    def close(self) -> None:
        """Release what :meth:`prepare` made."""

    def setup_s(self, ops: list[Op]) -> float:
        return _median(op.setup_s for op in ops if op.setup_s is not None)

    def op(self, instance: int, stack: Any = None) -> Op:
        raise NotImplementedError


def _median(values: Any) -> float:
    """Median, or 0.0 when every operation failed (the run is then incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _root(stack: Any, phase: str) -> Any:
    return stack.root(phase) if stack is not None else contextlib.nullcontext()


class SimulationBench(Bench):
    def __init__(self, workload: str, references: dict[str, Any]) -> None:
        super().__init__(workload, references)
        if workload == "fleet-window":
            self.config = workloads.fleet_config()
            self.setup: Callable[[Any, int], Any] = workloads.fleet_setup
        else:
            self.config = workloads.campus_config()
            self.setup = workloads.campus_setup

    def op(self, instance: int, stack: Any = None) -> Op:
        gc.collect()
        started = time.perf_counter()
        with _root(stack, "setup"):
            prepared = self.setup(self.config, instance)
        setup_s = time.perf_counter() - started
        gc.collect()
        started = time.perf_counter()
        with _root(stack, "run"):
            result = prepared.simulator.run()
        run_s = time.perf_counter() - started
        return Op(
            instance,
            run_s,
            prepared.jobs,
            1,
            workloads.simulation_digest(result, prepared.simulator),
            workloads.work_counters(prepared.simulator),
            setup_s=setup_s,
        )


class SuiteBench(Bench):
    """Cold ``--all`` into a fresh cache directory per operation."""

    def __init__(self, workload: str, references: dict[str, Any]) -> None:
        super().__init__(workload, references)
        self.import_s = [import_probe() for _ in range(IMPORT_PROBES)]
        self._dirs = 0

    def setup_s(self, ops: list[Op]) -> float:
        return statistics.median(self.import_s)

    def fresh_cache(self) -> Path:
        self._dirs += 1
        path = OUT / f"cache-{os.getpid()}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def op(self, instance: int, stack: Any = None) -> Op:
        cache = self.fresh_cache()
        try:
            return self.timed(instance, cache, stack)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def timed(self, instance: int, cache: Path, stack: Any) -> Op:
        gc.collect()
        started = time.perf_counter()
        with _root(stack, "run"):
            run = workloads.run_suite(instance, cache)
        run_s = time.perf_counter() - started
        return Op(
            instance, run_s, run.jobs, run.cells, workloads.suite_digest(run.text), run.work
        )


class SuiteWarmBench(SuiteBench):
    """``--all`` replayed from the cache one cold run filled."""

    def prepare(self, instance: int) -> None:
        self.instance = instance
        self.cache = self.fresh_cache()
        self.cold_error: str | None = None
        try:
            self.cold_digest = self.timed(instance, self.cache, None).digest
        except Exception:  # every warm operation then fails with this
            self.cold_error = traceback.format_exc()

    def op(self, instance: int, stack: Any = None) -> Op:
        if self.cold_error is not None:
            raise RuntimeError(f"the cold run that fills the cache failed:\n{self.cold_error}")
        return self.timed(self.instance, self.cache, stack)

    def close(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import the suite and its registry."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def make_bench(workload: str, references: dict[str, Any]) -> Bench:
    if workload in ("fleet-window", "campus-congested"):
        return SimulationBench(workload, references)
    if workload == "suite":
        return SuiteBench(workload, references)
    return SuiteWarmBench(workload, references)


def load_references(workload: str) -> dict[str, Any]:
    """The recorded digest and work counters of every pool instance."""
    path = REFERENCES / f"{workloads.REFERENCE_OF[workload]}.json"
    return json.loads(path.read_text())["instances"]


def checked(bench: Bench, instance: int, stack: Any = None) -> Op:
    """Run one operation; an exception or a digest mismatch marks it failed."""
    try:
        op = bench.op(instance, stack)
    except Exception:  # a failed operation is counted, not fatal
        return Op(instance, 0.0, 0, 1, None, error=traceback.format_exc())
    expected = bench.references.get(str(op.instance), {}).get("digest")
    if op.digest != expected:
        op.error = f"digest {op.digest} != reference {expected} for instance {op.instance}"
    warm = getattr(bench, "cold_digest", None)
    if warm is not None and op.digest != warm:
        op.error = f"warm digest {op.digest} != cold digest {warm}"
    return op


def loop(
    order: list[int], seconds: float, run_one: Callable[[int], Op]
) -> list[Op]:
    """Operations until *seconds* pass (at least :data:`MIN_OPS`), cycling
    through *order* if a run outlasts it."""
    ops: list[Op] = []
    walls: list[float] = []
    started = time.perf_counter()
    for instance in itertools.cycle(order):
        began = time.perf_counter()
        ops.append(run_one(instance))
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - started
        if len(ops) >= MIN_OPS and elapsed + statistics.median(walls) > seconds:
            break
    return ops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def median_metrics(ops: list[Op]) -> dict[str, float]:
    return {name: _median(op.layers[name] for op in ops) for name in ops[0].layers}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    references = load_references(workload)
    bench = make_bench(workload, references)
    costs = {int(key): workloads.cost(entry["work"]) for key, entry in references.items()}
    order = workloads.instances(workload, seed, costs)
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "trace": int(trace),
        "seconds": seconds,
        "parameters": workloads.PARAMETERS[workload],
        "machine": machine(),
    }
    bench.prepare(order[0])
    try:
        if not trace:
            ops = loop(order, seconds, lambda instance: checked(bench, instance))
            good = [op for op in ops if op.error is None]
            metrics = {
                "setup_s": (bench.setup_s(good), "s"),
                "run_s": (_median(op.run_s for op in good), "s"),
                "jobs_per_s": (_median(op.jobs_per_s for op in good), "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        else:
            ops, metrics = traced(bench, order, seconds)
    finally:
        bench.close()
    record["ops"] = [
        {
            "instance": op.instance,
            "setup_s": op.setup_s,
            "run_s": op.run_s,
            "jobs": op.jobs,
            "units": op.units,
            "digest": op.digest,
            "work": op.work,
            "error": op.error,
        }
        for op in ops
    ]
    failed = sum(op.units for op in ops if op.error is not None)
    record["result"] = {
        "correct": failed == 0,
        "attempted": sum(op.units for op in ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return record


def traced(bench: Bench, order: list[int], seconds: float) -> tuple[list[Op], dict[str, Any]]:
    """Per-layer metrics: one untraced operation, then traced ones.

    The first traced operation repeats the untraced one's instance, so its
    digest must match and the ratio of their run times is the tracing
    overhead.
    """
    untraced = checked(bench, order[0])
    stacks: list[Any] = []

    def run_traced(instance: int) -> Op:
        stack = tracing.SpanStack()
        installation = tracing.install(stack)
        try:
            op = checked(bench, instance, stack)
        finally:
            installation.remove()
        op.layers = tracing.layer_metrics(installation)
        stacks.append(stack)
        return op

    ops = [untraced] + loop(order, seconds, run_traced)
    first = ops[1]
    if untraced.error is None and first.digest != untraced.digest:
        first.error = f"traced digest {first.digest} != untraced digest {untraced.digest}"
    values = median_metrics([op for op in ops[1:] if op.error is None] or ops[1:])
    values["trace.overhead"] = first.run_s / untraced.run_s if untraced.run_s else 0.0
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / f"spans-{bench.workload}.npz", **tracing.merge_spans(stacks))
    units = {name: _unit(name) for name in values}
    return ops, {name: (value, units[name]) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_us_per_event") or name.endswith("_us_per_pass") or name.endswith(
        "_us_per_transition"
    ):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rate") or name.endswith("_per_attempt") or name == "trace.overhead":
        return "ratio"
    return "count"


def record_references(workload: str, first: int, last: int | None) -> None:
    """Recompute the digest and work of pool instances ``[first, last)``."""
    name = workloads.REFERENCE_OF[workload]
    ordinary, held_out = workloads.POOLS[name]
    last = ordinary + held_out if last is None else last
    path = REFERENCES / f"{name}.json"
    document = (
        json.loads(path.read_text())
        if path.is_file()
        else {"workload": name, "parameters": workloads.PARAMETERS[name], "instances": {}}
    )
    bench = make_bench(name, {})
    for instance in range(first, last):
        op = bench.op(instance)
        document["instances"][str(instance)] = {"digest": op.digest, "work": op.work}
        print(f"{name} {instance} {op.digest} {op.run_s:.4f} {json.dumps(op.work)}", flush=True)
    REFERENCES.mkdir(exist_ok=True)
    path.write_text(format_references(document))


def format_references(document: dict[str, Any]) -> str:
    """The reference file, one instance per line."""
    rows = sorted(document["instances"].items(), key=lambda item: int(item[0]))
    lines = [
        "{",
        f' "workload": {json.dumps(document["workload"])},',
        f' "parameters": {json.dumps(document["parameters"])},',
        ' "instances": {',
        ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry)}" for key, entry in rows),
        " }",
        "}",
    ]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        metavar="FIRST:LAST",
        help="recompute reference digests for pool instances FIRST..LAST-1 (either may be empty)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.record is not None:
        first, _, last = args.record.partition(":")
        record_references(args.workload, int(first or 0), int(last) if last else None)
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for op in record["ops"]:
        if op["error"]:
            print(f"perfbench: instance {op['instance']} failed: {op['error']}", file=sys.stderr)
    context = {key: record[key] for key in ("workload", "seed", "held_out_seed", "parameters", "machine")}
    print(json.dumps({"context": context, "operations": len(record["ops"])}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
