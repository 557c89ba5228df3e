"""Visualising schedules: ASCII Gantt charts of recorded runs.

Runs a small contended workload under three policies and renders each
run's transition log as a Gantt chart — the quickest way to *see*
head-of-line blocking, backfill holes, and time-slicing.

Run:  python examples/gantt_view.py
"""

from repro.cluster import uniform_cluster
from repro.execlayer import UnitExecutionModel
from repro.ops import render_gantt
from repro.sched import GangScheduler, make_scheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.workload import Job, ResourceRequest, Trace


def job(job_id, gpus, minutes, submit_min, estimate_min=None):
    return Job(
        job_id=job_id,
        user_id="user-demo",
        lab_id="lab-demo",
        request=ResourceRequest(num_gpus=gpus),
        submit_time=submit_min * 60.0,
        duration=minutes * 60.0,
        walltime_estimate=(estimate_min or minutes) * 60.0,
        preemptible=True,
    )


def workload():
    """A classic blocking scenario on one 8-GPU node."""
    return [
        job("long-6g", 6, minutes=120, submit_min=0),
        job("wide-8g", 8, minutes=30, submit_min=5),     # blocked behind long-6g
        job("tiny-2g-a", 2, minutes=20, submit_min=10),  # fits beside long-6g
        job("tiny-2g-b", 2, minutes=25, submit_min=12),
        job("mid-4g", 4, minutes=45, submit_min=20),
    ]


def run(policy_name, scheduler):
    simulator = ClusterSimulator(
        uniform_cluster(1, gpus_per_node=8),
        scheduler,
        Trace(workload()),
        exec_model=UnitExecutionModel(),
        config=SimConfig(sample_interval_s=0.0, checkpoint_loss_s=0.0),
    )
    result = simulator.run()
    print(f"--- {policy_name} (mean wait "
          f"{result.metrics.wait_mean_s / 60.0:.0f} min) ---")
    print(render_gantt(result.log, width=64))


def main() -> None:
    run("strict FIFO (head-of-line blocking)", make_scheduler("fifo"))
    run("EASY backfill (tiny jobs fill the hole)", make_scheduler("backfill-easy"))
    run("gang time-slicing, 15 min quantum", GangScheduler(quantum_s=900.0))


if __name__ == "__main__":
    main()
