"""Regenerate EXPERIMENTS.md from full-scale experiment runs.

Usage: python scripts/generate_experiments_md.py [--scale 1.0] [--seed 0]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS

EXPECTED_SHAPES = {
    "T1": "24 nodes / 176 GPUs across four hardware generations, consumer cards ~36% of GPUs.",
    "F1": "Weekday submissions peak mid-afternoon at ~3-6x the overnight trough; weekends run at roughly half weekday volume.",
    "F2": "Single-GPU jobs are the majority of submissions (>50%) but a small minority of GPU-hours; jobs of >=8 GPUs dominate capacity.",
    "F3": "Log-normal durations: medians of minutes-to-hours rising with width, p99 in days.",
    "F4": "Utilization tracks the diurnal arrival pattern with queue-depth spikes on wide-job arrivals.",
    "F5": "FIFO's wait CDF is strictly dominated; SJF/backfill push most mass near zero wait.",
    "T2": "FIFO worst on wait by one to two orders of magnitude (a single week-long wide job at the head stalls the queue); SJF-style ordering and backfill collapse that; preemptive policies (Tiresias, tiered-quota) do best by revisiting decisions, with tiered-quota additionally protecting its guaranteed tier.",
    "F6": "Backfill cuts narrow-job median wait without inflating wide-job p99; EASY >= conservative on utilization.",
    "F7": "Guaranteed-tier median wait stays at/near zero under overload; opportunistic tier absorbs effectively all preemptions.",
    "F8": "Fragmentation-aware policies (best-fit/topology/buddy) keep wide-job waits below first-fit; worst-fit is the anti-baseline; buddy cells pay bounded alignment waste.",
    "F9": "Ring throughput degrades with spread (spine penalty); PS bottlenecks hardest; in-network aggregation erases the cross-rack penalty.",
    "T3": "User errors dominate job failures; hardware-attributed failures are rare because restarts absorb most node faults.",
    "T4": "One-line edits re-upload >100x less than a full workspace; identical resubmission uploads zero bytes.",
    "F10": "Event throughput stays ~flat as the cluster grows; multi-week campus traces simulate in seconds.",
    "F11": "Time-slicing bounds interactive wait under overload; shorter quanta trade preemption churn for latency.",
    "T5": "Fair-share and tiered-quota raise the lab-level Jain index over FIFO.",
    "S1": "Past the fixed fleet's saturation point its SLO attainment collapses while autoscaled harvesting holds near-full attainment on surge capacity; guaranteed training wait is unaffected in both arms.",
    "S2": "Co-locating an autoscaled serving fleet leaves guaranteed-tier training wait at/near zero (the F7 promise); displacement lands on the opportunistic tier, which shares idle capacity with serving surge.",
    "A1": "SJF quality erodes with estimate noise; backfill is scale-invariant and only mildly rank-sensitive; oracle bounds the gain.",
    "A2": "Elastic resizing admits queued work immediately under saturation: waits collapse vs rigid backfill at the cost of resize churn.",
    "A3": "Guaranteed latency is checkpoint-cost-insensitive; wasted (redone) GPU-hours grow with checkpoint loss.",
    "A4": "Staging time falls and hit rate rises with node-cache capacity; repeat experiments start instantly once cached.",
    "A5": "Prediction-driven SJF recovers most of the estimate-to-oracle gap with a crude per-user quantile predictor.",
    "F-FED": "Funneling a fleet-calibrated load onto one site collapses fleet goodput; any spreading policy recovers most of the idle remote capacity, with goodput-aware routing best and checkpoint-and-migrate rescuing queue-stuck jobs.",
    "W-DAG": "Transfer-aware placement beats transfer-oblivious baselines on mean workflow makespan at equal utilization by cutting artifact fetch time; all arms complete the same work and every makespan respects the critical-path lower bound.",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every table (T*) and figure (F*) of the reconstructed experiment index
(see DESIGN.md) regenerated by `python -m repro.experiments`.

* Regenerate any entry: `python -m repro.experiments <ID> --scale {scale} --seed {seed}`
* Regenerate this file: `python scripts/generate_experiments_md.py --scale {scale} --seed {seed}`

Because the paper's production traces are proprietary, workloads are
synthesized (DESIGN.md, *Substitutions*); "reproduction" therefore means
the **shape** of each result — who wins, by what rough factor, where the
crossovers sit — not absolute numbers.  The *expected shape* lines below
state the claim each experiment checks; the measured output follows.

Run at scale={scale}, seed={seed}.
"""


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="EXPERIMENTS.md")
    args = parser.parse_args()

    sections = [HEADER.format(scale=args.scale, seed=args.seed)]
    for experiment_id, spec in EXPERIMENTS.items():
        started = time.perf_counter()
        result = spec.run(seed=args.seed, scale=args.scale)
        elapsed = time.perf_counter() - started
        sections.append(f"\n## {experiment_id}: {spec.title}\n")
        sections.append(f"*{spec.description}*\n")
        sections.append(f"**Expected shape (paper):** {EXPECTED_SHAPES[experiment_id]}\n")
        sections.append(f"**Measured** (bench `{experiment_id}`, {elapsed:.1f}s):\n")
        sections.append("```\n" + result.render().rstrip() + "\n```\n")
        print(f"{experiment_id}: done in {elapsed:.1f}s")
    Path(args.output).write_text("\n".join(sections))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
