"""Command-line front end: regenerate any table or figure.

Examples::

    repro-experiments table1
    repro-experiments fig4 --duration 120
    repro-experiments fig7
    repro-experiments table7
    repro-experiments all --duration 60
    repro-experiments campaign --fault sensor-dropout
    repro-experiments campaign --fault thermal-runaway
    repro-experiments soak --soak-duration 120
    repro-experiments checkpoint --fault hotplug --checkpoint-dir results/ckpt
    repro-experiments resume --checkpoint-dir results/ckpt
    repro-experiments replay --checkpoint-dir results/ckpt --verify
    repro-experiments overload --multiplier 3 --overload-duration 30
    repro-experiments overload-soak --soak-duration 60
    repro-experiments model-error --error-magnitudes 0,0.5,2 --drift-rates 0,0.2
    repro-experiments fleet --fleet-chips 8 --fleet-epochs 6
    repro-experiments fleet --fleet-fault worker-kill@2:chip03
    repro-experiments fleet --resume-fleet --fleet-dir results/fleet

Each verb accepts only the flags it reads (``repro-experiments <verb>
--help`` lists them); any other flag is an error, not silently ignored.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from ..checkpoint import CheckpointError
from ..fleet import FleetBudgetInvariantError, RetryPolicy
from ..tasks import DemandTrace
from .campaigns import (
    CAMPAIGN_FAULTS,
    DEFAULT_CAMPAIGN_GOVERNORS,
    replay_campaign_checkpoint,
    resume_fault_campaign,
    run_fault_campaign,
    run_soak,
)
from .comparative import figure4, figure5, figure6, run_comparative
from .fleet import DEFAULT_FLEET_DIR, resume_fleet_campaign, run_fleet_campaign
from .harness import GOVERNOR_NAMES
from .modelerror import (
    DEFAULT_DRIFT_RATES,
    DEFAULT_ERROR_MAGNITUDES,
    run_model_error_campaign,
)
from .overload import run_overload, run_overload_soak
from .priorities import figure7
from .reporting import write_report
from .running_examples import table1, table2, table3, table4
from .savings import figure8
from .scalability import table7
from .validation import validate_reproduction

#: Where campaign checkpoints land unless ``--checkpoint-dir`` says otherwise.
DEFAULT_CHECKPOINT_DIR = "results/checkpoints"


def _run_table1(args) -> str:
    return table1()[1]


def _run_table2(args) -> str:
    return table2()[1]


def _run_table3(args) -> str:
    return table3()[1]


def _run_table4(args) -> str:
    return table4()


def _export(result, path):
    if path:
        from ..analysis import write_comparative

        write_comparative(result, path)


def _audit_suffix(args, result) -> str:
    if not args.strict_audit:
        return ""
    return f"\n\nmarket audit violations: {result.total_audit_violations()}"


def _run_fig4(args) -> str:
    result = run_comparative(
        duration_s=args.duration, warmup_s=args.warmup, jobs=args.jobs,
        strict_audit=args.strict_audit,
    )
    text4 = figure4(result=result)[1]
    text5 = figure5(result=result)[1]
    _export(result, args.export)
    return text4 + "\n\n" + text5 + _audit_suffix(args, result)


def _run_fig5(args) -> str:
    result, text = figure5(
        duration_s=args.duration, warmup_s=args.warmup, jobs=args.jobs,
        strict_audit=args.strict_audit,
    )
    _export(result, args.export)
    return text + _audit_suffix(args, result)


def _run_fig6(args) -> str:
    result, text = figure6(
        duration_s=args.duration, warmup_s=args.warmup, jobs=args.jobs,
        strict_audit=args.strict_audit,
    )
    _export(result, args.export)
    return text + _audit_suffix(args, result)


def _run_fig7(args) -> str:
    return figure7(duration_s=args.fig_duration)[2]


def _run_fig8(args) -> str:
    return figure8()[1]


def _run_table7(args) -> str:
    return table7(invocations=args.invocations, jobs=args.jobs)[1]


def _run_validate(args) -> str:
    report = validate_reproduction(quick=not args.full)
    text = report.as_table()
    if not report.passed:
        raise SystemExit(text + "\nSOME CLAIMS FAILED")
    return text + "\nALL CLAIMS PASS"


def _parse_governors(spec: str) -> List[str]:
    """Split and validate a ``--governors`` list; exits cleanly on bad names."""
    governors = [g.strip() for g in spec.split(",") if g.strip()]
    if not governors:
        raise SystemExit(
            "no governors given; valid choices: " + ", ".join(GOVERNOR_NAMES)
        )
    unknown = [g for g in governors if g not in GOVERNOR_NAMES]
    if unknown:
        raise SystemExit(
            "unknown governor(s) "
            + ", ".join(repr(g) for g in unknown)
            + "; valid choices: "
            + ", ".join(GOVERNOR_NAMES)
        )
    return governors


def _load_trace(path: Optional[str]):
    """Load a :class:`DemandTrace` JSON file; exits cleanly on bad paths."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = handle.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise SystemExit(f"cannot read trace file {path!r}: {reason}")
    try:
        return DemandTrace.from_json(payload)
    except ValueError as exc:
        raise SystemExit(f"invalid trace file {path!r}: {exc}")


def _checkpoint_directory(args) -> str:
    """Resolve ``--checkpoint-dir``; exits cleanly when it is unusable."""
    directory = args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR
    if not os.path.isdir(directory):
        raise SystemExit(
            f"checkpoint directory {directory!r} does not exist; run "
            "'repro-experiments checkpoint' first or pass --checkpoint-dir"
        )
    if not os.access(directory, os.R_OK):
        raise SystemExit(f"checkpoint directory {directory!r} is not readable")
    return directory


def _write(result, args) -> str:
    """Write ``result`` under ``--out``; its table and where it went."""
    path = write_report(result, out_dir=args.out)
    return result.as_table() + f"\n\nreport written to {path}"


def _run_campaign(args) -> str:
    if args.fault is None:
        raise SystemExit("campaign requires --fault (e.g. --fault sensor-dropout)")
    governors = _parse_governors(args.governors)
    result = run_fault_campaign(
        args.fault,
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.campaign_duration,
        warmup_s=args.campaign_warmup,
        intensity=args.intensity,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval_s=args.checkpoint_interval,
        jobs=args.jobs,
    )
    return _write(result, args)


def _run_soak(args) -> str:
    governors = _parse_governors(args.governors)
    result = run_soak(
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.soak_duration,
        warmup_s=args.campaign_warmup,
        seed=args.seed,
        jobs=args.jobs,
    )
    return _write(result, args)


def _run_checkpoint(args) -> str:
    """``campaign`` with checkpointing always on (default directory)."""
    if args.checkpoint_dir is None:
        args.checkpoint_dir = DEFAULT_CHECKPOINT_DIR
    return _run_campaign(args)


def _run_resume(args) -> str:
    directory = _checkpoint_directory(args)
    try:
        result = resume_fault_campaign(
            directory,
            checkpoint_interval_s=args.checkpoint_interval,
            jobs=args.jobs,
        )
    except (CheckpointError, OSError) as exc:
        raise SystemExit(f"resume failed: {exc}")
    return _write(result, args)


def _run_replay(args) -> str:
    directory = _checkpoint_directory(args)
    try:
        report = replay_campaign_checkpoint(directory)
    except (CheckpointError, OSError) as exc:
        raise SystemExit(f"replay failed: {exc}")
    text = report.describe()
    if args.verify and not report.clean:
        raise SystemExit(text)
    return text


def _parse_floats(spec: str, flag: str) -> List[float]:
    """Split a comma-separated float list; exits cleanly on junk."""
    values = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise SystemExit(
                f"{flag} expects comma-separated numbers, got {piece!r}"
            )
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return values


def _run_model_error(args) -> str:
    governors = _parse_governors(args.governors)
    result = run_model_error_campaign(
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.campaign_duration,
        warmup_s=args.campaign_warmup,
        error_magnitudes=_parse_floats(
            args.error_magnitudes, "--error-magnitudes"
        ),
        drift_rates=_parse_floats(args.drift_rates, "--drift-rates"),
        seed=args.seed,
        jobs=args.jobs,
    )
    return _write(result, args)


def _run_overload(args) -> str:
    governors = _parse_governors(args.governors)
    trace = _load_trace(args.trace)
    result = run_overload(
        governors=governors,
        workload=args.workload or "l1",
        duration_s=args.overload_duration,
        warmup_s=args.campaign_warmup,
        seed=args.seed,
        multiplier=args.multiplier,
        trace=trace,
        jobs=args.jobs,
    )
    return _write(result, args)


def _run_overload_soak(args) -> str:
    governors = _parse_governors(args.governors)
    trace = _load_trace(args.trace)
    result = run_overload_soak(
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.soak_duration,
        warmup_s=args.campaign_warmup,
        seed=args.seed,
        multiplier=args.multiplier,
        trace=trace,
        jobs=args.jobs,
    )
    return _write(result, args)


def _run_fleet(args) -> str:
    try:
        if args.resume_fleet:
            result = resume_fleet_campaign(
                args.fleet_dir, strict_audit=args.strict_audit
            )
        else:
            result = run_fleet_campaign(
                chips=args.fleet_chips,
                epochs=args.fleet_epochs,
                epoch_s=args.epoch_duration,
                grid_budget_w=args.grid_budget,
                seed=args.seed,
                fleet_dir=args.fleet_dir,
                faults=args.fleet_fault or (),
                retry=RetryPolicy(timeout_s=args.fleet_timeout),
                strict_audit=args.strict_audit,
            )
    except ValueError as exc:
        raise SystemExit(f"fleet: {exc}")
    except FleetBudgetInvariantError as exc:
        raise SystemExit(f"fleet budget audit failed: {exc}")
    except (CheckpointError, OSError) as exc:
        raise SystemExit(f"fleet resume failed: {exc}")
    return _write(result, args)


#: Every flag, declared once: flag -> ``add_argument`` keyword arguments.
_FLAGS: Dict[str, Dict[str, object]] = {
    "--jobs": dict(
        type=int,
        default=None,
        help=(
            "worker processes for independent experiment points "
            "(default: $REPRO_JOBS or 1; results are identical at any "
            "job count)"
        ),
    ),
    "--duration": dict(
        type=float,
        default=120.0,
        help="simulated seconds per comparative run (figs 4-6)",
    ),
    "--warmup": dict(
        type=float,
        default=30.0,
        help="warm-up seconds excluded from summaries (figs 4-6)",
    ),
    "--fig-duration": dict(
        type=float,
        default=300.0,
        help="simulated seconds for the figure 7 runs",
    ),
    "--invocations": dict(
        type=int,
        default=5,
        help="timed LBT invocations per table 7 configuration",
    ),
    "--export": dict(
        default=None,
        help="write the comparative sweep to this .json/.csv path (figs 4-6)",
    ),
    "--full": dict(
        action="store_true",
        help="validate with benchmark-grade durations instead of quick runs",
    ),
    "--strict-audit": dict(
        action="store_true",
        help=(
            "run the market auditor every round of the comparative sweeps "
            "(figs 4-6) and report the violation total; slower, off by "
            "default (campaign and soak runs always audit)"
        ),
    ),
    "--fault": dict(
        choices=sorted(CAMPAIGN_FAULTS),
        default=None,
        help="fault kind to inject (campaign command)",
    ),
    "--governors": dict(
        default=",".join(DEFAULT_CAMPAIGN_GOVERNORS),
        help="comma-separated governors to sweep (default: PPM,HPM,HL)",
    ),
    "--workload": dict(
        default=None,
        help="workload set (default: m2 for campaigns/soaks, l1 for overload)",
    ),
    "--intensity": dict(
        type=float,
        default=0.3,
        help="fraction of time under fault, in (0, 0.8] (default: 0.3)",
    ),
    "--campaign-duration": dict(
        type=float,
        default=40.0,
        help="simulated seconds per campaign run (default: 40)",
    ),
    "--campaign-warmup": dict(
        type=float,
        default=5.0,
        help="warm-up seconds per campaign run (default: 5)",
    ),
    "--seed": dict(
        type=int,
        default=1,
        help="engine seed for campaign runs (default: 1)",
    ),
    "--soak-duration": dict(
        type=float,
        default=120.0,
        help="simulated seconds for the soak command (default: 120)",
    ),
    "--out": dict(
        default="results",
        help="directory for campaign reports (default: results/)",
    ),
    "--error-magnitudes": dict(
        default=",".join(str(v) for v in DEFAULT_ERROR_MAGNITUDES),
        help=(
            "comma-separated counter-bias magnitudes to sweep "
            "(model-error command; 0 = clean counters)"
        ),
    ),
    "--drift-rates": dict(
        default=",".join(str(v) for v in DEFAULT_DRIFT_RATES),
        help=(
            "comma-separated power-model drift rates per second to sweep "
            "(model-error command; 0 = stable silicon)"
        ),
    ),
    "--overload-duration": dict(
        type=float,
        default=30.0,
        help="simulated seconds for the overload command (default: 30)",
    ),
    "--multiplier": dict(
        type=float,
        default=3.0,
        help="flash-crowd burst rate as a multiple of sustainable (default: 3)",
    ),
    "--trace": dict(
        default=None,
        help="DemandTrace JSON file modulating the arrival rate (optional)",
    ),
    "--checkpoint-dir": dict(
        default=None,
        help=(
            "write/read campaign checkpoints here (checkpoint/resume/replay "
            f"default to {DEFAULT_CHECKPOINT_DIR}/)"
        ),
    ),
    "--checkpoint-interval": dict(
        type=float,
        default=1.0,
        help="simulated seconds between checkpoints (default: 1.0)",
    ),
    "--verify": dict(
        action="store_true",
        help="replay: exit non-zero if the replay diverges from the journal",
    ),
    "--fleet-chips": dict(
        type=int,
        default=8,
        help="number of chips (worker processes) in the fleet (default: 8)",
    ),
    "--fleet-epochs": dict(
        type=int,
        default=6,
        help="global budget epochs to run (default: 6)",
    ),
    "--epoch-duration": dict(
        type=float,
        default=0.5,
        help="simulated seconds per fleet epoch (default: 0.5)",
    ),
    "--grid-budget": dict(
        type=float,
        default=None,
        help="grid power budget in watts (default: 3 W per chip)",
    ),
    "--fleet-fault": dict(
        action="append",
        default=None,
        metavar="KIND@EPOCH:CHIP[:PARAM]",
        help=(
            "inject a fleet fault, e.g. worker-kill@2:chip03, "
            "worker-stall@3:chip05:45, worker-msg-loss@1:chip00:2 "
            "(repeatable)"
        ),
    ),
    "--fleet-dir": dict(
        default=DEFAULT_FLEET_DIR,
        help=(
            "fleet state directory: per-chip checkpoints + manifest "
            f"(default: {DEFAULT_FLEET_DIR}/)"
        ),
    ),
    "--resume-fleet": dict(
        action="store_true",
        help="resume an interrupted fleet campaign from its manifest",
    ),
    "--fleet-timeout": dict(
        type=float,
        default=10.0,
        help=(
            "base per-attempt worker reply timeout in wall seconds; "
            "retries back off exponentially from here (default: 10)"
        ),
    ),
}

_SWEEP = ("--duration", "--warmup", "--jobs", "--strict-audit", "--export")
_FAULT_CAMPAIGN = (
    "--fault", "--governors", "--workload", "--intensity",
    "--campaign-duration", "--campaign-warmup", "--seed",
    "--checkpoint-dir", "--checkpoint-interval", "--jobs", "--out",
)

Command = Tuple[Callable[[argparse.Namespace], str], Tuple[str, ...]]

#: verb -> (handler, the flags it reads); ``all`` runs every one of these.
_COMMANDS: Dict[str, Command] = {
    "table1": (_run_table1, ()),
    "table2": (_run_table2, ()),
    "table3": (_run_table3, ()),
    "table4": (_run_table4, ()),
    "fig4": (_run_fig4, _SWEEP),
    "fig5": (_run_fig5, _SWEEP),
    "fig6": (_run_fig6, _SWEEP),
    "fig7": (_run_fig7, ("--fig-duration",)),
    "fig8": (_run_fig8, ()),
    "table7": (_run_table7, ("--invocations", "--jobs")),
    "validate": (_run_validate, ("--full",)),
}

#: Commands excluded from ``all`` (campaigns are a study, not a figure).
_EXTRA_COMMANDS: Dict[str, Command] = {
    "campaign": (_run_campaign, _FAULT_CAMPAIGN),
    "soak": (_run_soak, (
        "--governors", "--workload", "--soak-duration", "--campaign-warmup",
        "--seed", "--jobs", "--out",
    )),
    "checkpoint": (_run_checkpoint, _FAULT_CAMPAIGN),
    "resume": (_run_resume, (
        "--checkpoint-dir", "--checkpoint-interval", "--jobs", "--out",
    )),
    "replay": (_run_replay, ("--checkpoint-dir", "--verify")),
    "overload": (_run_overload, (
        "--governors", "--workload", "--overload-duration", "--campaign-warmup",
        "--seed", "--multiplier", "--trace", "--jobs", "--out",
    )),
    "overload-soak": (_run_overload_soak, (
        "--governors", "--workload", "--soak-duration", "--campaign-warmup",
        "--seed", "--multiplier", "--trace", "--jobs", "--out",
    )),
    "model-error": (_run_model_error, (
        "--governors", "--workload", "--campaign-duration", "--campaign-warmup",
        "--error-magnitudes", "--drift-rates", "--seed", "--jobs", "--out",
    )),
    "fleet": (_run_fleet, (
        "--fleet-chips", "--fleet-epochs", "--epoch-duration", "--grid-budget",
        "--fleet-fault", "--fleet-dir", "--resume-fleet", "--fleet-timeout",
        "--seed", "--strict-audit", "--out",
    )),
}


def _verb_flags() -> Dict[str, Tuple[str, ...]]:
    """The flags each verb accepts; ``all`` takes every figure's."""
    commands = {**_COMMANDS, **_EXTRA_COMMANDS}
    flags = {verb: accepted for verb, (_, accepted) in commands.items()}
    figures = {flag for verb in _COMMANDS for flag in flags[verb]}
    flags["all"] = tuple(flag for flag in _FLAGS if flag in figures)
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    verbs = parser.add_subparsers(
        dest="experiment",
        required=True,
        help="which table/figure to regenerate (or 'campaign')",
    )
    flags = _verb_flags()
    for verb in sorted(_COMMANDS) + sorted(_EXTRA_COMMANDS) + ["all"]:
        subparser = verbs.add_parser(verb)
        for flag in flags[verb]:
            subparser.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "all":
        names = sorted(_COMMANDS)
    else:
        names = [args.experiment]
    commands = {**_COMMANDS, **_EXTRA_COMMANDS}
    for name in names:
        handler, _ = commands[name]
        print(handler(args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
