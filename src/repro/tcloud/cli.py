"""The ``tcloud`` command-line interface.

Subcommands mirror the real tool's workflow against a simulated cluster:

* ``tcloud validate task.yaml`` — schema + semantic validation
* ``tcloud compile task.yaml`` — show the compiled instruction and what a
  (re)submission would upload
* ``tcloud submit task.yaml [--watch]`` — full submission path; ``--watch``
  advances simulated time until completion and prints aggregated logs
* ``tcloud info`` — cluster composition and queue state
* ``tcloud top [--advance H]`` — live operator dashboard
* ``tcloud profiles [--config PATH]`` — list configured cluster profiles
* ``tcloud lint [paths…]`` — simlint invariant analysis (same flags and
  exit codes as ``python -m repro.analysis``)
* ``tcloud experiment [ids…|--all]`` — regenerate study tables/figures
  (same flags and exit codes as ``python -m repro.experiments``,
  including the sweep engine's ``--jobs``/``--cache-dir``/``--no-cache``)
* ``tcloud fed [--sites N] [--policy P]`` — run a federated multi-site
  simulation and print the fleet/per-site goodput report
* ``tcloud demo`` — a scripted multi-job session exercising monitoring,
  preemption and log aggregation

Because each CLI invocation is a fresh process, the simulated cluster
lives for one invocation; the Python API (:class:`~repro.tcloud.client.
TcloudClient`) is the way to drive long-lived sessions.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from ..schema.parser import parse_task_file
from ..schema.taskspec import (
    EnvironmentSpec,
    FileSpec,
    QosSpec,
    ResourceSpec,
    TaskSpec,
)
from ..schema.validate import validate_spec
from ..tcloud.client import TcloudClient
from ..tcloud.config import TcloudConfig
from ..tcloud.frontend import synthesize_workspace


def _print(text: str = "") -> None:
    sys.stdout.write(text + "\n")


def cmd_validate(args: argparse.Namespace) -> int:
    spec = parse_task_file(args.task_file)
    client = TcloudClient(_config(args))
    issues = validate_spec(spec, client.frontend.cluster)
    if not issues:
        _print(f"task {spec.name!r}: OK (fingerprint {spec.fingerprint()[:12]})")
        return 0
    for issue in issues:
        _print(str(issue))
    return 1 if any(issue.severity == "error" for issue in issues) else 0


def cmd_compile(args: argparse.Namespace) -> int:
    spec = parse_task_file(args.task_file)
    client = TcloudClient(_config(args))
    result = client.frontend.compiler.compile(spec, synthesize_workspace(spec))
    instruction = result.instruction
    _print(f"task:        {instruction.task_name}")
    _print(f"runtime:     {instruction.runtime}")
    _print(f"nodes:       {instruction.nnodes}")
    upload = result.upload
    _print(
        f"upload:      {upload.uploaded_bytes}/{upload.total_bytes} bytes "
        f"({upload.hit_rate:.0%} chunk cache hit)"
    )
    _print("--- rank 0 script ---")
    _print(instruction.render_script(rank=0).rstrip())
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    spec = parse_task_file(args.task_file)
    client = TcloudClient(_config(args), profile=args.profile)
    job_id = client.submit(spec)
    status = client.status(job_id)
    _print(f"submitted {job_id} ({spec.name}) → state={status.state}")
    if args.watch:
        status = client.wait(job_id)
        _print(f"finished: {status.oneline()}")
        for node, lines in client.logs(job_id, tail=int(args.tail)).items():
            for line in lines:
                _print(line)
        _print("# lifecycle")
        for transition in client.history(job_id):
            _print(transition.oneline())
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    client = TcloudClient(_config(args), profile=args.profile)
    for key, value in client.cluster_info().items():
        _print(f"{key:12s} {value}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from ..ops.dashboard import live_dashboard

    client = TcloudClient(_config(args), profile=args.profile)
    frontend = client.frontend
    if args.advance:
        frontend.advance(float(args.advance) * 3600.0)
    _print(
        live_dashboard(
            frontend.cluster,
            frontend.sim.jobs,
            frontend.now,
            frontend.scheduler.queue_depth,
        ).rstrip()
    )
    return 0


def cmd_profiles(args: argparse.Namespace) -> int:
    config = _config(args)
    for name, profile in sorted(config.profiles.items()):
        marker = "*" if name == config.active else " "
        _print(f"{marker} {name:12s} {profile.endpoint}  user={profile.user} lab={profile.lab}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from ..analysis.__main__ import main as simlint_main

    return simlint_main(list(args.lint_args))


def cmd_experiment(args: argparse.Namespace) -> int:
    from ..experiments.__main__ import main as experiments_main

    return experiments_main(list(args.experiment_args))


#: Site sizes (nodes of 8 GPUs) cycled by ``tcloud fed --sites N`` — a
#: deliberately lopsided fleet so routing has real work to do.
_FED_SITE_NODES = (12, 8, 5, 10, 7, 6)


def cmd_fed(args: argparse.Namespace) -> int:
    from ..federation import FederationSpec, SiteSpec, build_federation
    from ..ops.dashboard import federation_report
    from ..sweep.build import build_trace
    from ..sweep.spec import ClusterSpec, SchedulerSpec, TraceSpec

    num_sites = int(args.sites)
    if num_sites < 1:
        _print("tcloud fed: --sites must be >= 1")
        return 2
    node_counts = [_FED_SITE_NODES[i % len(_FED_SITE_NODES)] for i in range(num_sites)]
    fleet_gpus = sum(count * 8 for count in node_counts)
    trace = build_trace(
        TraceSpec(
            days=float(args.days),
            synth_seed=int(args.seed),
            load=float(args.load),
            load_gpus=fleet_gpus,
        )
    )
    spec = FederationSpec(
        sites=tuple(
            SiteSpec(
                name=f"site-{chr(ord('a') + index)}",
                cluster=ClusterSpec(kind="het", nodes=count),
                seed=index,
            )
            for index, count in enumerate(node_counts)
        ),
        policy=args.policy,
    )
    federation = build_federation(
        spec, trace, default_scheduler=SchedulerSpec("backfill-easy")
    )
    result = federation.run()
    _print(federation_report(result).rstrip())
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    client = TcloudClient(_config(args))
    _print("# tcloud demo: three jobs on the simulated campus cluster")
    code = FileSpec.of_bytes("train.py", b"print('training')\n" * 200)
    specs = [
        TaskSpec(
            name=f"demo-{model}",
            entrypoint="python train.py",
            code_files=(code,),
            environment=EnvironmentSpec(pip_packages=("torch==2.1.0",)),
            resources=ResourceSpec(num_gpus=gpus, walltime_hours=2.0),
            qos=QosSpec(tier=tier),
            model=model,
        )
        for model, gpus, tier in [
            ("resnet50", 1, "guaranteed"),
            ("bert-base", 4, "guaranteed"),
            ("bert-large", 8, "opportunistic"),
        ]
    ]
    job_ids = [client.submit(spec, duration_hint_s=1800.0 * (i + 1)) for i, spec in enumerate(specs)]
    client.advance(900.0)
    _print("\n# status after 15 simulated minutes")
    for status in client.queue():
        _print(status.oneline())
    _print("\n# aggregated logs of the first job")
    for node, lines in client.logs(job_ids[0], tail=3).items():
        for line in lines:
            _print(line)
    _print("\n# lifecycle of the first job so far")
    for transition in client.history(job_ids[0]):
        _print(transition.oneline())
    for job_id in job_ids:
        client.wait(job_id)
    _print("\n# final states")
    for status in client.queue():
        _print(status.oneline())
    return 0


def _config(args: argparse.Namespace) -> TcloudConfig:
    if getattr(args, "config", None):
        return TcloudConfig.load(args.config)
    return TcloudConfig.default()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcloud", description="Submit and manage ML tasks on a (simulated) TACC cluster."
    )
    parser.add_argument("--config", help="path to a tcloud config JSON", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a task file")
    p_validate.add_argument("task_file")
    p_validate.set_defaults(func=cmd_validate)

    p_compile = sub.add_parser("compile", help="compile a task file and show the instruction")
    p_compile.add_argument("task_file")
    p_compile.set_defaults(func=cmd_compile)

    p_submit = sub.add_parser("submit", help="submit a task file")
    p_submit.add_argument("task_file")
    p_submit.add_argument("--profile", default=None)
    p_submit.add_argument("--watch", action="store_true", help="advance sim time until done")
    p_submit.add_argument("--tail", default=5, help="log lines per node with --watch")
    p_submit.set_defaults(func=cmd_submit)

    p_info = sub.add_parser("info", help="show cluster info")
    p_info.add_argument("--profile", default=None)
    p_info.set_defaults(func=cmd_info)

    p_top = sub.add_parser("top", help="live cluster dashboard")
    p_top.add_argument("--profile", default=None)
    p_top.add_argument("--advance", default=0.0, help="advance sim time by N hours first")
    p_top.set_defaults(func=cmd_top)

    p_profiles = sub.add_parser("profiles", help="list cluster profiles")
    p_profiles.set_defaults(func=cmd_profiles)

    p_lint = sub.add_parser(
        "lint", help="run the simlint invariant analyzer (python -m repro.analysis)"
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="paths and flags forwarded to the analyzer (see its --help)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_experiment = sub.add_parser(
        "experiment",
        help="regenerate study experiments (python -m repro.experiments)",
    )
    p_experiment.add_argument(
        "experiment_args",
        nargs=argparse.REMAINDER,
        help="IDs and flags forwarded to the experiment runner (see its --help)",
    )
    p_experiment.set_defaults(func=cmd_experiment)

    p_fed = sub.add_parser(
        "fed", help="run a federated multi-site simulation and report fleet goodput"
    )
    p_fed.add_argument("--sites", default=3, help="number of federated sites")
    p_fed.add_argument(
        "--policy",
        default="least-queued",
        help="routing policy (home | first-feasible | least-queued | most-free | goodput-aware)",
    )
    p_fed.add_argument("--days", default=3.0, help="trace horizon in days")
    p_fed.add_argument("--load", default=0.85, help="offered load vs fleet capacity")
    p_fed.add_argument("--seed", default=42, help="trace synthesis seed")
    p_fed.set_defaults(func=cmd_fed)

    p_demo = sub.add_parser("demo", help="run a scripted demo session")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse's REMAINDER does not capture leading options ("tcloud lint
    # --list-rules"), so the lint verb forwards its argv wholesale.
    if argv and argv[0] == "lint":
        from ..analysis.__main__ import main as simlint_main

        return simlint_main(argv[1:])
    if argv and argv[0] == "experiment":
        from ..experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # OSError: an input file (task, workflow or --config) that cannot be read.
        sys.stderr.write(f"tcloud: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
