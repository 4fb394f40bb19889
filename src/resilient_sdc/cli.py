"""Command-line front end.

Subcommands: converge, sense, inject, ignite, campaign.  A JSON config file
may supply a value for any flag of the chosen command: keys are flag names
with dashes replaced by underscores, a value is read exactly as the flag
reads its text (a JSON list as a comma list), and explicit flags win.  A
key that names no flag of the command, nor the program's ``output_dir``, is
an error; so are ``config`` and ``help``.
Settings that neither gives take the library's defaults (``RunConfig``,
``FaultConfig``, ``OneShotSpec``), bar ``campaign``'s fault mode, which is
``type_b``.  The output directory falls back to the RESILIENT_SDC_OUTPUT_DIR
environment variable, then ./runs; an empty name from either is a
configuration error.  A run's one fault source is the windowed
``FaultConfig`` of ``ignite`` and ``campaign`` or the ``OneShotSpec`` of
``inject``, which flips ``--bit`` or else multiplies by ``--scale`` (not
both) and says so on stderr when its fault never fired.

Exit codes: 0 clean completion, 2 configuration error (for ``converge``,
also a ladder run that aborts or has error 0.0), 3 unrecoverable
integration failure, 4 completed with some steps capped (status
``capped``: ``max_sweeps`` reached without meeting the residual test).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys

from .campaign import (INTEGRATORS, PROBLEMS, RunConfig, convergence_study, run_campaign,
                       run_single, sensitivity_sweep)
from .faults import FAULT_MODES, FaultConfig, OneShotSpec
from .problems import LINEAR_KERNEL_ID

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNRECOVERABLE = 3
EXIT_CAPPED = 4

_RUN_STATUS_EXITS = {"clean": EXIT_OK, "capped": EXIT_CAPPED, "aborted": EXIT_UNRECOVERABLE}

# flag name -> field of the dataclass the setting configures
_RUN_FIELDS = {"problem": "problem", "integrator": "integrator", "nodes": "num_nodes",
               "sweeps": "sweeps", "dt": "dt", "t_end": "t_end", "run_id": "run_id"}
_FAULT_FIELDS = {"fault_mode": "mode", "window": "window", "scale": "scale", "seed": "seed"}
_ONE_SHOT_FIELDS = {"step": "step_index", "sweep": "sweep_index", "node": "node_index",
                    "kernel": "kernel_id", "offset": "offset", "scale": "scale", "bit": "bit"}


def _comma_list(cast):
    """Flag type for a comma list of ``cast`` values."""

    def parse(text):
        return [cast(part.strip()) for part in text.split(",") if part.strip()]

    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _offset(text):
    return text if text == "max_T" else int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resilient-sdc",
        description="Fault-tolerant SDC time integration experiments",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    parser.add_argument("--output-dir", help="directory for run artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p, *, problem_choice=True):
        if problem_choice:
            p.add_argument("--problem", choices=PROBLEMS)
        p.add_argument("--integrator", choices=INTEGRATORS)
        p.add_argument("--nodes", type=int, help="number of collocation nodes")
        p.add_argument("--sweeps", type=int, help="fixed sweep count (predictor included)")
        p.add_argument("--dt", type=float)
        p.add_argument("--t-end", type=float)

    def add_fault_options(p, *, mode_default=None):
        """The windowed ``FaultConfig`` flags; each parser gets its own actions."""
        p.add_argument("--fault-mode", choices=FAULT_MODES, default=mode_default)
        p.add_argument("--window", type=int, help="kernel calls per injection window")
        p.add_argument("--scale", type=float, help="type-A multiplier of the windowed faults")

    p_converge = sub.add_parser(
        "converge", help="observed-order study of the linear problem over a dt ladder"
    )
    p_converge.add_argument("--dts", type=_comma_list(float), default=[0.2, 0.1, 0.05, 0.025],
                            help="comma list, geometric")
    p_converge.add_argument("--nodes", type=_comma_list(int), default=[3],
                            help="comma list of node counts")
    p_converge.add_argument("--sweeps", type=_comma_list(int), default=[4],
                            help="comma list of sweep counts")
    p_converge.add_argument("--t-end", type=float)
    p_converge.set_defaults(func=_cmd_converge)

    p_sense = sub.add_parser("sense", help="per-kernel one-shot sensitivity sweep")
    add_run_options(p_sense, problem_choice=False)
    p_sense.add_argument("--step", type=int, help="step index receiving the fault")
    p_sense.add_argument("--scale", type=float, help="type-A multiplier of each one-shot fault")
    p_sense.add_argument("--kernels", type=_comma_list(str), help="comma list of kernel ids")
    p_sense.set_defaults(func=_cmd_sense)

    p_inject = sub.add_parser("inject", help="single run with one scheduled fault")
    add_run_options(p_inject)
    p_inject.add_argument("--run-id", type=int)
    p_inject.add_argument("--scale", type=float, help="type-A multiplier of the one-shot fault")
    p_inject.add_argument("--bit", type=int, help="bit to flip (type B) instead of scaling")
    p_inject.add_argument("--step", type=int)
    p_inject.add_argument("--sweep", type=int)
    p_inject.add_argument("--node", type=int)
    p_inject.add_argument("--kernel")
    p_inject.add_argument("--offset", type=_offset, help="array index or max_T")
    p_inject.set_defaults(func=_cmd_inject)

    p_ignite = sub.add_parser("ignite", help="single ignition (or linear) run")
    add_run_options(p_ignite)
    p_ignite.add_argument("--seed", type=int)
    p_ignite.add_argument("--run-id", type=int)
    add_fault_options(p_ignite)
    p_ignite.set_defaults(func=_cmd_ignite)

    p_campaign = sub.add_parser("campaign", help="Monte Carlo fault campaign")
    add_run_options(p_campaign)
    p_campaign.add_argument("--runs", type=int, default=50)
    p_campaign.add_argument("--base-seed", type=int, default=0)
    p_campaign.add_argument("--workers", type=int)
    add_fault_options(p_campaign, mode_default="type_b")
    p_campaign.set_defaults(func=_cmd_campaign)

    return parser


def _load_config(path):
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    return loaded


def _read_flag_value(action, value):
    """``value`` read as ``action``'s flag reads its text, a JSON list as a comma list."""
    items = value if isinstance(value, list) else [value]
    if not all(type(item) in (str, int, float) for item in items):  # no null, bool or object
        raise ValueError
    text = ",".join(map(str, items))
    parsed = action.type(text) if action.type else text
    if isinstance(value, list) and not isinstance(parsed, list):
        raise ValueError
    return parsed


def _parse_args(parser, argv):
    """Parse ``argv``, with the ``--config`` file's values as the chosen command's defaults."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    config = _load_config(args.config)
    (commands,) = [action for action in parser._actions if action.dest == "command"]
    # the flags a file may set: the command's and the program's, bar help and config
    flags = {name: {action.dest: action for action in parser._actions + sub._actions
                    if action.option_strings and action.dest not in ("help", "config")}
             for name, sub in commands.choices.items()}
    for key, value in config.items():
        if key not in flags[args.command]:
            others = ", ".join(name for name in flags if key in flags[name])
            raise ValueError(f"{key}: not a flag of {args.command}"
                             + (f" (a flag of {others})" if others else ""))
        action = flags[args.command][key]
        try:
            # argparse runs a str default through the type again: each type here
            # returns a str only for a str it leaves unchanged
            action.default = _read_flag_value(action, value)
        except ValueError:
            raise ValueError(f"{key}: {json.dumps(value)} is not a valid "
                             f"{action.option_strings[0]} value") from None
    return parser.parse_args(argv)


def _given(args, fields):
    """The settings given among ``fields``, keyed by the field they set."""
    return {field: getattr(args, flag) for flag, field in fields.items()
            if getattr(args, flag, None) is not None}


def _run_config(args, **fields):
    output_dir = args.output_dir
    if output_dir is None:
        output_dir = os.environ.get("RESILIENT_SDC_OUTPUT_DIR", "runs")
    return RunConfig(**_given(args, _RUN_FIELDS), output_dir=output_dir, **fields)


def _print_run_summary(report):
    metrics = report.metrics
    print(f"status: {report.status}")
    if report.config.problem == "ignition":
        print(f"final_peak_T: {metrics['final_peak_T']:.6g}")
        delay = metrics["ignition_delay"]
        print(f"ignition_delay: {delay:.6g}" if math.isfinite(delay) else "ignition_delay: not reached")
    else:
        print(f"final_y: {metrics['final_y']:.12g}")
        print(f"abs_error: {metrics['abs_error']:.6g}")
    print(f"steps: {metrics['steps']}  sweeps: {metrics['total_sweeps']}  "
          f"restarts: {metrics['restarts']}  faults: {metrics['fault_events']}")
    print(f"artifacts: {report.config.output_dir}")


def _cmd_converge(args):
    rows = convergence_study("linear", args.dts, args.nodes, args.sweeps,
                             **_given(args, {"t_end": "t_end"}))
    print(f"{'nodes':>5} {'sweeps':>6} {'observed order':>14}")
    for row in rows:
        print(f"{row['num_nodes']:>5} {row['sweeps']:>6} {row['observed_order']:>14.3f}")
    return EXIT_OK


def _cmd_sense(args):
    cfg = _run_config(args)
    rows = sensitivity_sweep(cfg, args.kernels, step_index=args.step,
                             **_given(args, {"scale": "scale"}))
    print(f"{'kernel':<18} {'final_peak_T':>14} {'deviation':>12} {'status':>10}")
    for row in rows:
        print(
            f"{row['kernel']:<18} {row['final_peak_T']:>14.6g} "
            f"{row['deviation']:>12.6g} {row['status']:>10}"
        )
    print(f"artifacts: {os.path.join(cfg.output_dir, 'sensitivity.csv')}")
    return EXIT_OK


def _cmd_inject(args):
    shot = _given(args, _ONE_SHOT_FIELDS)
    if "bit" in shot and "scale" in shot:
        raise ValueError(f"a one-shot bit flip takes no scale, got scale {shot['scale']!r}")
    if args.problem == "linear":
        shot.setdefault("kernel_id", LINEAR_KERNEL_ID)
    spec = OneShotSpec(**shot)
    report = run_single(_run_config(args, fault=spec))
    if not report.one_shot_fired:
        print(f"one-shot fault never fired: step {spec.step_index} sweep {spec.sweep_index} "
              f"node {spec.node_index} kernel {spec.kernel_id}", file=_sys.stderr)
    _print_run_summary(report)
    return _RUN_STATUS_EXITS[report.status]


def _cmd_ignite(args):
    report = run_single(_run_config(args, fault=FaultConfig(**_given(args, _FAULT_FIELDS))))
    _print_run_summary(report)
    return _RUN_STATUS_EXITS[report.status]


def _cmd_campaign(args):
    cfg = _run_config(args, fault=FaultConfig(**_given(args, _FAULT_FIELDS)))
    summary = run_campaign(cfg, args.runs, args.base_seed, **_given(args, {"workers": "workers"}))
    print(f"runs: {summary.runs}  completed: {len(summary.scalars)}  "
          f"crashes: {summary.crash_count}  restarts: {summary.restart_count}")
    print(f"mean: {summary.mean:.6g}  min: {summary.minimum:.6g}  "
          f"max: {summary.maximum:.6g}  span: {summary.span:.6g}  "
          f"variance: {summary.variance:.6g}")
    print(f"artifacts: {cfg.output_dir}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
