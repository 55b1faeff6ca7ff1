"""Command-line interface: ``repro-manhattan`` (or ``python -m repro.cli``).

Subcommands:

* ``list`` — show all registered experiments;
* ``experiment <id> [--scale quick|full] [--seed N] [--csv PATH]
  [--engine scalar|batch|auto] [--jobs N] [--adaptive] [--ci-width W]
  [--min-trials N] [--max-trials N] [--checkpoint DIR] [--resume [DIR]]
  [--max-retries N]`` (alias: ``run``) — run one experiment and print its
  report; every flooding experiment takes all of these options (engine
  choice never changes results, only speed), ``connectivity`` and
  ``thm18_lower`` take ``--jobs`` alone, and the closed-form experiments
  none of them;
  ``--adaptive`` switches to sequential stopping (stop sampling a point
  once its CI is narrow enough — a bit-exact prefix of the fixed-budget
  tables), and ``--checkpoint``/``--resume`` persist and continue partial
  sweeps bit-exactly;
* ``all [--scale ...] [--seed N] [--engine ...] [--jobs N] [--adaptive ...]``
  — run the whole suite; each option reaches the experiments that take
  it, and one that cannot run with it (``--engine batch`` on
  ``thm10_growth``'s observer point) prints as a failed result noted
  ``not run: ...``;
* ``sweep --n N --parameter NAME --values V1 V2 ... [--trials T]
  [--adaptive ...] [--checkpoint DIR] [--resume [DIR]] [--max-retries N]
  [--csv PATH]`` — ad-hoc one-parameter sweeps over the canonical
  ``L = sqrt n`` configuration through the sweep scheduler, with the same
  adaptive and checkpoint/resume controls; ``repro sweep --resume DIR``
  continues a killed or budget-capped sweep exactly where it stopped, and
  ``--max-retries`` sets how often a crashed job is retried before it is
  quarantined as a poison job;
* ``flood --n N [--trials T] [--engine scalar|batch|auto] [--batch-size B]
  [--mobility NAME] [--mobility-options JSON] [--radius-factor C]
  [--speed-fraction F] ...`` — ad-hoc flooding runs with the canonical
  ``L = sqrt n`` scaling; ``--engine batch`` advances all trials in
  lock-step through the vectorized batch engine (same results, faster) —
  every registered mobility model is batch-native, transit family
  included; ``--mobility-options`` passes model options (e.g.
  ``'{"riders": 1990, "dwell": 2.0}'`` for ``--mobility timetable``);
  ``--kernels compiled|numpy|auto`` selects the compiled kernel tier for
  the hot loops (bit-exact by contract — tier changes speed, never
  results; ``sweep`` takes the same flag).

Performance is measured by the standalone ``perfbench/run.py`` harness,
not by this CLI.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.experiments.registry import all_ids, get_spec, run_all, run_experiment
from repro.mobility import MODEL_REGISTRY
from repro.simulation.config import standard_config
from repro.simulation.results import summarize
from repro.simulation.runner import run_flooding, run_trials
from repro.simulation.sweep import SweepPlan, StoppingRule, run_sweep
from repro.viz.csvout import write_csv

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _non_negative_int(value: str) -> int:
    """``--seed``: ``SeedSequence`` takes only non-negative integers."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return number


def _json_object(value: str) -> dict:
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise argparse.ArgumentTypeError(
            f"must be a JSON object, got {type(parsed).__name__}"
        )
    return parsed


def _source(value: str):
    """``--source``: an agent index, else a placement name; the config
    rejects anything that is neither."""
    try:
        return int(value)
    except ValueError:
        return value


def _standard_config(n, **options):
    """:func:`standard_config`, reporting a rejected option as a CLI error
    instead of a traceback."""
    try:
        return standard_config(n, **options)
    except ValueError as error:
        raise SystemExit(str(error))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-manhattan",
        description="Fast Flooding over Manhattan (PODC 2010) — reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    def add_engine_jobs(p, scope: str):
        p.add_argument(
            "--engine",
            choices=("scalar", "batch", "auto"),
            default=None,
            help=f"execution-engine override for {scope} (sweep-scheduler "
            "experiments only; results are engine-independent, only speed changes)",
        )
        p.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            help="worker processes for the sweep scheduler (default 1: in-process)",
        )

    def add_adaptive(p):
        p.add_argument(
            "--adaptive",
            action="store_true",
            help="sequential stopping: stop sampling a sweep point once its "
            "CI half-width is below --ci-width (results are a bit-exact "
            "prefix of the fixed-budget run)",
        )
        p.add_argument(
            "--ci-width",
            type=float,
            default=None,
            metavar="W",
            help="relative CI half-width target for --adaptive (default 0.1); "
            "implies --adaptive",
        )
        p.add_argument(
            "--min-trials",
            type=_positive_int,
            default=None,
            metavar="N",
            help="trials always run before adaptive stopping may fire "
            "(default min(2, fixed budget)); implies --adaptive",
        )
        p.add_argument(
            "--max-trials",
            type=_positive_int,
            default=None,
            metavar="N",
            help="adaptive trial cap per point (default: the point's fixed "
            "budget); implies --adaptive",
        )

    def add_kernels(p):
        p.add_argument(
            "--kernels",
            choices=("auto", "compiled", "numpy"),
            default="auto",
            help="compiled kernel tier for hot loops: 'numpy' (reference "
            "vectorized paths), 'compiled' (bundled C provider, bit-exact "
            "by contract, error if no provider is available), or 'auto' "
            "(compiled when a provider exists, else numpy; the default)",
        )

    def add_checkpoint(p):
        p.add_argument(
            "--checkpoint",
            default=None,
            metavar="DIR",
            help="persist partial sweep results to DIR (atomic, after every "
            "trial batch) so a killed run can be continued with --resume",
        )
        p.add_argument(
            "--resume",
            nargs="?",
            const=True,
            default=False,
            metavar="DIR",
            help="continue the checkpoint in DIR (or in --checkpoint) "
            "bit-exactly from where the previous run stopped",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="N",
            help="per-job crash retries (deterministic backoff) before a "
            "repeatedly-crashing job is quarantined as a poison job",
        )

    run_p = sub.add_parser("experiment", aliases=["run"], help="run one experiment")
    run_p.add_argument("experiment", choices=all_ids())
    run_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    run_p.add_argument("--seed", type=_non_negative_int, default=0)
    run_p.add_argument("--csv", help="also write the result table to this CSV path")
    add_engine_jobs(run_p, "the experiment")
    add_adaptive(run_p)
    add_checkpoint(run_p)

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    all_p.add_argument("--seed", type=_non_negative_int, default=0)
    add_engine_jobs(all_p, "every supporting experiment")
    add_adaptive(all_p)

    sweep_p = sub.add_parser(
        "sweep", help="ad-hoc one-parameter sweep through the sweep scheduler"
    )
    sweep_p.add_argument("--n", type=_positive_int, required=True)
    sweep_p.add_argument(
        "--parameter",
        required=True,
        help="FloodingConfig field to sweep (e.g. radius, speed, max_steps)",
    )
    sweep_p.add_argument(
        "--values",
        nargs="+",
        required=True,
        help="values to sweep over (parsed as int, then float, else string)",
    )
    sweep_p.add_argument("--trials", type=_positive_int, default=5)
    sweep_p.add_argument("--radius-factor", type=float, default=2.0)
    sweep_p.add_argument("--speed-fraction", type=float, default=0.25)
    sweep_p.add_argument("--max-steps", type=int, default=20_000)
    sweep_p.add_argument("--seed", type=_non_negative_int, default=0)
    add_kernels(sweep_p)
    sweep_p.add_argument(
        "--trial-budget",
        type=_positive_int,
        default=None,
        metavar="N",
        help="global trial ceiling across the sweep; minimum counts are "
        "always funded, the rest flows to the neediest unfinished points",
    )
    sweep_p.add_argument("--csv", help="also write the sweep table to this CSV path")
    add_engine_jobs(sweep_p, "the sweep")
    add_adaptive(sweep_p)
    add_checkpoint(sweep_p)

    flood_p = sub.add_parser("flood", help="ad-hoc flooding runs (L = sqrt n)")
    flood_p.add_argument("--n", type=int, required=True)
    flood_p.add_argument("--radius-factor", type=float, default=2.0)
    flood_p.add_argument("--speed-fraction", type=float, default=0.25)
    flood_p.add_argument(
        "--source",
        type=_source,
        default="uniform",
        help="source agent: 'uniform', 'central', 'suburb' or an agent index",
    )
    flood_p.add_argument("--seed", type=_non_negative_int, default=0)
    flood_p.add_argument("--max-steps", type=int, default=20_000)
    flood_p.add_argument(
        "--trials",
        type=_positive_int,
        default=1,
        help="independent trials to run (default 1)",
    )
    flood_p.add_argument(
        "--engine",
        choices=("scalar", "batch", "auto"),
        default="scalar",
        help="trial execution engine: 'scalar' (one trial at a time), "
        "'batch' (vectorized lock-step over all trials; same results for every "
        "registered protocol and mobility model), or 'auto' (batch when both "
        "the protocol and the mobility model have native batch implementations)",
    )
    flood_p.add_argument(
        "--protocol",
        default="flooding",
        help="broadcast protocol (any PROTOCOL_REGISTRY name; both engines "
        "support all of them)",
    )
    flood_p.add_argument(
        "--mobility",
        choices=sorted(MODEL_REGISTRY),
        default="mrwp",
        help="mobility model (any MODEL_REGISTRY name; every registered "
        "model runs natively vectorized under the batch engine, the "
        "transit family ferry/composite/timetable included)",
    )
    flood_p.add_argument(
        "--mobility-options",
        type=_json_object,
        default=None,
        metavar="JSON",
        help="mobility model options as a JSON object, e.g. "
        "'{\"riders\": 1990, \"dwell\": 2.0, \"capacity\": 8}' for "
        "--mobility timetable or '{\"ferries\": 5}' for --mobility "
        "composite (validated against the model's option vocabulary at "
        "config time)",
    )
    flood_p.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="trials per batch with --engine batch (0 = all in one batch)",
    )
    add_kernels(flood_p)

    report_p = sub.add_parser(
        "report", help="run experiments and write a markdown reproduction report"
    )
    # Default kept distinct from the curated EXPERIMENTS.md documentation.
    report_p.add_argument("--out", default="EXPERIMENTS_RUN.md")
    report_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    report_p.add_argument("--seed", type=_non_negative_int, default=0)
    report_p.add_argument(
        "--only", nargs="*", default=None, choices=all_ids(), metavar="ID",
        help="subset of experiment ids"
    )
    add_engine_jobs(report_p, "every supporting experiment")
    return parser


def _cmd_list() -> int:
    for experiment_id in all_ids():
        spec = get_spec(experiment_id)
        print(f"{experiment_id:20s} {spec.paper_ref:40s} {spec.description}")
    return 0


def _stopping_from_args(args) -> StoppingRule | None:
    """Build the stopping rule requested by --adaptive and friends."""
    requested = args.adaptive or any(
        value is not None for value in (args.ci_width, args.min_trials, args.max_trials)
    )
    if not requested:
        return None
    kwargs = {}
    if args.ci_width is not None:
        kwargs["ci_width"] = args.ci_width
    if args.min_trials is not None:
        kwargs["min_trials"] = args.min_trials
    if args.max_trials is not None:
        kwargs["max_trials"] = args.max_trials
    try:
        return StoppingRule(**kwargs)
    except ValueError as error:
        raise SystemExit(str(error))


def _checkpoint_from_args(args) -> tuple:
    """``(checkpoint_dir, resume)`` from --checkpoint / --resume [DIR]."""
    checkpoint = args.checkpoint
    resume = args.resume is not False
    if isinstance(args.resume, str):
        if checkpoint is not None and checkpoint != args.resume:
            raise SystemExit(
                f"--resume {args.resume!r} conflicts with --checkpoint "
                f"{checkpoint!r}; pass the directory once"
            )
        checkpoint = args.resume
    if resume and checkpoint is None:
        raise SystemExit("--resume needs a checkpoint directory (--resume DIR)")
    return checkpoint, resume


def _cmd_run(args) -> int:
    from repro.simulation.checkpoint import CheckpointError
    from repro.simulation.parallel import PoisonJobError

    checkpoint, resume = _checkpoint_from_args(args)
    try:
        result = run_experiment(
            args.experiment, scale=args.scale, seed=args.seed,
            engine=args.engine, jobs=args.jobs,
            stopping=_stopping_from_args(args),
            checkpoint=checkpoint, resume=resume,
            max_retries=args.max_retries,
        )
    except PoisonJobError as error:
        raise SystemExit(f"poison job quarantined: {error}")
    except (CheckpointError, ValueError) as error:
        # e.g. --engine on a closed-form experiment, or --resume on a
        # directory holding no checkpoint of this experiment's plan.
        raise SystemExit(str(error))
    print(result.to_text())
    if args.csv:
        write_csv(args.csv, result.headers, result.rows)
        print(f"[table written to {args.csv}]")
    return 0 if result.passed in (True, None) else 1


def _cmd_all(args) -> int:
    failures = 0
    for result in run_all(
        scale=args.scale, seed=args.seed, engine=args.engine, jobs=args.jobs,
        stopping=_stopping_from_args(args),
    ):
        print(result.to_text())
        print()
        failures += result.passed is False
    total = len(all_ids())
    print(f"[{total - failures}/{total} experiments passed their shape checks]")
    return 0 if failures == 0 else 1


def _cmd_flood(args) -> int:
    config = _standard_config(
        args.n,
        radius_factor=args.radius_factor,
        speed_fraction=args.speed_fraction,
        source=args.source,
        seed=args.seed,
        max_steps=args.max_steps,
        protocol=args.protocol,
        mobility=args.mobility,
        mobility_options=args.mobility_options or {},
        engine=args.engine,
        batch_size=args.batch_size,
        kernels=args.kernels,
    )
    print(config.describe())
    if args.trials > 1 or config.resolved_engine == "batch":
        results = run_trials(config, args.trials)
        summary = summarize(r.flooding_time for r in results)
        completed = sum(r.completed for r in results)
        print(f"engine: {config.resolved_engine} ({args.trials} trials)")
        print(f"flooding time: {summary.format('steps')}")
        print(f"completed: {completed}/{args.trials}")
        print(f"Theorem 3 bound: {config.upper_bound():.1f}")
        return 0 if completed == args.trials else 1
    result = run_flooding(config)
    print(f"flooding time: {result.flooding_time}")
    print(f"completed: {result.completed} (coverage {result.final_coverage:.3f})")
    if result.cz_completion_time is not None:
        print(f"CZ completion: {result.cz_completion_time}")
        print(f"Suburb completion: {result.suburb_completion_time}")
    print(f"Theorem 3 bound: {config.upper_bound():.1f}")
    return 0 if result.completed else 1


def _parse_sweep_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _cmd_sweep(args) -> int:
    checkpoint, resume = _checkpoint_from_args(args)
    config = _standard_config(
        args.n,
        radius_factor=args.radius_factor,
        speed_fraction=args.speed_fraction,
        seed=args.seed,
        max_steps=args.max_steps,
        kernels=args.kernels,
    )
    values = [_parse_sweep_value(v) for v in args.values]
    try:
        plan = SweepPlan.over_parameter(config, args.parameter, values, n_trials=args.trials)
    except (TypeError, ValueError) as error:
        raise SystemExit(f"cannot sweep {args.parameter!r}: {error}")
    from repro.simulation.checkpoint import CheckpointError
    from repro.simulation.parallel import PoisonJobError
    from repro.viz.tables import format_table

    try:
        points = run_sweep(
            plan,
            engine=args.engine or "auto",
            jobs=args.jobs,
            stopping=_stopping_from_args(args),
            checkpoint=checkpoint,
            resume=resume,
            trial_budget=args.trial_budget,
            max_retries=args.max_retries,
        )
    except PoisonJobError as error:
        raise SystemExit(f"poison job quarantined: {error}")
    except (CheckpointError, ValueError) as error:
        raise SystemExit(str(error))
    headers = [args.parameter, "mean T_flood", "min", "max", "completed", "engine"]
    rows = []
    for point in points:
        mean = point.masked_mean()
        rows.append(
            [
                point.key,
                round(mean, 1) if math.isfinite(mean) else "masked",
                round(point.summary.minimum, 1),
                round(point.summary.maximum, 1),
                point.completion_label,
                point.engine,
            ]
        )
    print(format_table(headers, rows))
    total = sum(p.n_trials for p in points)
    budget = sum(p.n_trials for p in plan)
    if total != budget:
        print(f"[adaptive stopping: {total} trials vs {budget} fixed budget]")
    if checkpoint:
        print(f"[checkpoint in {checkpoint}; continue with --resume {checkpoint}]")
    if args.csv:
        write_csv(args.csv, headers, rows)
        print(f"[table written to {args.csv}]")
    return 0


def _cmd_report(args) -> int:
    from repro.viz.report import write_report

    path = write_report(
        args.out, scale=args.scale, seed=args.seed, experiment_ids=args.only,
        engine=args.engine, jobs=args.jobs,
    )
    print(f"[report written to {path}]")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command in ("experiment", "run"):
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "flood":
        return _cmd_flood(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
