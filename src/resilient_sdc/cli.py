"""Command-line front end.

Subcommands: converge, sense, inject, ignite, campaign.  A JSON config file
may supply defaults for any flag (keys match flag names with dashes
replaced by underscores); explicit flags win.  The output directory falls
back to the RESILIENT_SDC_OUTPUT_DIR environment variable, then ./runs.

Exit codes: 0 clean completion, 2 configuration error, 3 unrecoverable
integration failure, 4 completed with some steps capped (status
``capped``): a capped step reached ``max_sweeps`` without meeting the
residual test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import replace

from .campaign import (
    RunConfig,
    _write_csv,
    convergence_study,
    run_campaign,
    run_single,
    sensitivity_sweep,
)
from .faults import FaultConfig, OneShotSpec
from .problems import KERNEL_IDS, LINEAR_KERNEL_ID
from .resilience import ControllerConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNRECOVERABLE = 3
EXIT_CAPPED = 4

_RUN_STATUS_EXITS = {"clean": EXIT_OK, "capped": EXIT_CAPPED, "aborted": EXIT_UNRECOVERABLE}

_ENV_OUTPUT_DIR = "RESILIENT_SDC_OUTPUT_DIR"


def _comma_floats(text):
    return [float(part) for part in text.split(",") if part]


def _comma_ints(text):
    return [int(part) for part in text.split(",") if part]


def _comma_strs(text):
    return [part.strip() for part in text.split(",") if part.strip()]


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
            p.add_argument("--problem", choices=["linear", "ignition"])
        p.add_argument("--integrator", choices=["rk", "sdc_fixed", "sdc_resilient"])
        p.add_argument("--nodes", type=int, help="number of collocation nodes")
        p.add_argument("--sweeps", type=int, help="fixed sweep count (predictor included)")
        p.add_argument("--dt", type=float)
        p.add_argument("--t-end", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--run-id", type=int)
        p.add_argument("--output-every", type=int)

    p_converge = sub.add_parser(
        "converge", help="observed-order study of the linear problem over a dt ladder"
    )
    p_converge.add_argument("--dts", type=_comma_floats, help="comma list, geometric")
    p_converge.add_argument("--nodes", type=_comma_ints, help="comma list of node counts")
    p_converge.add_argument("--sweeps", type=_comma_ints, help="comma list of sweep counts")
    p_converge.add_argument("--t-end", type=float)

    p_sense = sub.add_parser("sense", help="per-kernel one-shot sensitivity sweep")
    add_run_options(p_sense, problem_choice=False)
    p_sense.add_argument("--step", type=int, help="step index receiving the fault")
    p_sense.add_argument("--scale", type=float, help="type-A multiplier")
    p_sense.add_argument("--kernels", type=_comma_strs, help="comma list of kernel ids")

    p_inject = sub.add_parser("inject", help="single run with one scheduled fault")
    add_run_options(p_inject)
    p_inject.add_argument("--mode", choices=["type_a", "type_b"])
    p_inject.add_argument("--scale", type=float)
    p_inject.add_argument("--bit", type=int)
    p_inject.add_argument("--step", type=int)
    p_inject.add_argument("--sweep", type=int)
    p_inject.add_argument("--node", type=int)
    p_inject.add_argument("--kernel")
    p_inject.add_argument("--offset", help="array index or max_T")

    p_ignite = sub.add_parser("ignite", help="single ignition (or linear) run")
    add_run_options(p_ignite)
    p_ignite.add_argument("--fault-mode", choices=["off", "type_a", "type_b"])
    p_ignite.add_argument("--window", type=int)
    p_ignite.add_argument("--scale", type=float)

    p_campaign = sub.add_parser("campaign", help="Monte Carlo fault campaign")
    add_run_options(p_campaign)
    p_campaign.add_argument("--runs", type=int)
    p_campaign.add_argument("--base-seed", type=int)
    p_campaign.add_argument("--workers", type=int)
    p_campaign.add_argument("--fault-mode", choices=["off", "type_a", "type_b"])
    p_campaign.add_argument("--window", type=int)
    p_campaign.add_argument("--scale", type=float)

    return parser


def _load_config(path):
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    return loaded


def _pick(args, config, key, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _output_dir(args, config):
    explicit = _pick(args, config, "output_dir")
    if explicit:
        return explicit
    return os.environ.get(_ENV_OUTPUT_DIR, "runs")


def _base_run_config(args, config, *, out_dir):
    fault = FaultConfig(
        mode=_pick(args, config, "fault_mode", "off"),
        window=int(_pick(args, config, "window", 5580)),
        scale=float(_pick(args, config, "scale", 1.0e4)),
        seed=int(_pick(args, config, "seed", 0)),
    )
    cfg = RunConfig(
        problem=_pick(args, config, "problem", "ignition"),
        integrator=_pick(args, config, "integrator", "sdc_resilient"),
        num_nodes=int(_pick(args, config, "nodes", 3)),
        sweeps=int(_pick(args, config, "sweeps", 4)),
        controller=ControllerConfig(),
        dt=_pick(args, config, "dt"),
        t_end=_pick(args, config, "t_end"),
        fault=fault,
        run_id=int(_pick(args, config, "run_id", 0)),
        output_dir=out_dir,
        output_every=int(_pick(args, config, "output_every", 1)),
    )
    return cfg.validate()


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
    if report.config.output_dir:
        print(f"artifacts: {report.config.output_dir}")


def _cmd_converge(args, config):
    rows = convergence_study(
        "linear",
        _pick(args, config, "dts", [0.2, 0.1, 0.05, 0.025]),
        _pick(args, config, "nodes", [3]),
        _pick(args, config, "sweeps", [4]),
        t_end=float(_pick(args, config, "t_end", 1.0)),
    )
    print(f"{'nodes':>5} {'sweeps':>6} {'observed order':>14}")
    for row in rows:
        print(f"{row['num_nodes']:>5} {row['sweeps']:>6} {row['observed_order']:>14.3f}")
    return EXIT_OK


def _cmd_sense(args, config, out_dir):
    cfg = _base_run_config(args, config, out_dir=None)
    cfg = replace(cfg, problem="ignition", output_dir=None)
    scale = _pick(args, config, "scale")
    if scale is not None:
        cfg = replace(cfg, fault=replace(cfg.fault, scale=float(scale)))
    step = _pick(args, config, "step")
    rows = sensitivity_sweep(
        cfg,
        _pick(args, config, "kernels", list(KERNEL_IDS)),
        step_index=None if step is None else int(step),
    )
    print(f"{'kernel':<18} {'final_peak_T':>14} {'deviation':>12} {'status':>10}")
    for row in rows:
        print(
            f"{row['kernel']:<18} {row['final_peak_T']:>14.6g} "
            f"{row['deviation']:>12.6g} {row['status']:>10}"
        )
    _write_sense_csv(out_dir, rows)
    return EXIT_OK


def _write_sense_csv(out_dir, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sensitivity.csv")
    lines = [
        f"{row['kernel']},{row['final_peak_T']!r},{row['deviation']!r},{row['status']}\r\n"
        for row in rows
    ]
    _write_csv(path, "kernel,final_peak_T,deviation,status", lines)
    print(f"artifacts: {path}")


def _cmd_inject(args, config, out_dir):
    cfg = _base_run_config(args, config, out_dir=out_dir)
    default_kernel = LINEAR_KERNEL_ID if cfg.problem == "linear" else "assembly"
    offset = _pick(args, config, "offset", 0)
    if offset != "max_T":
        offset = int(offset)
    mode = _pick(args, config, "mode", "type_a")
    spec = OneShotSpec(
        step_index=int(_pick(args, config, "step", 0)),
        sweep_index=int(_pick(args, config, "sweep", 1)),
        node_index=int(_pick(args, config, "node", 0)),
        kernel_id=_pick(args, config, "kernel", default_kernel),
        offset=offset,
        mode=mode,
        scale=float(_pick(args, config, "scale", 1.0e4)),
        bit=None if _pick(args, config, "bit") is None else int(_pick(args, config, "bit")),
    )
    cfg = replace(cfg, one_shot=spec, fault=replace(cfg.fault, mode="off"))
    report = run_single(cfg)
    _print_run_summary(report)
    return _RUN_STATUS_EXITS[report.status]


def _cmd_ignite(args, config, out_dir):
    cfg = _base_run_config(args, config, out_dir=out_dir)
    report = run_single(cfg)
    _print_run_summary(report)
    return _RUN_STATUS_EXITS[report.status]


def _cmd_campaign(args, config, out_dir):
    cfg = _base_run_config(args, config, out_dir=out_dir)
    if cfg.fault.mode == "off":
        cfg = replace(cfg, fault=replace(cfg.fault, mode="type_b"))
    summary = run_campaign(
        cfg,
        int(_pick(args, config, "runs", 50)),
        int(_pick(args, config, "base_seed", 0)),
        workers=int(_pick(args, config, "workers", 1)),
    )
    print(f"runs: {summary.runs}  completed: {len(summary.scalars)}  "
          f"crashes: {summary.crash_count}  restarts: {summary.restart_count}")
    print(f"mean: {summary.mean:.6g}  min: {summary.minimum:.6g}  "
          f"max: {summary.maximum:.6g}  span: {summary.span:.6g}  "
          f"variance: {summary.variance:.6g}")
    if cfg.output_dir:
        print(f"artifacts: {cfg.output_dir}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config) if args.config else {}
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG

    out_dir = _output_dir(args, config)
    try:
        if args.command == "converge":
            return _cmd_converge(args, config)
        if args.command == "sense":
            return _cmd_sense(args, config, out_dir)
        if args.command == "inject":
            return _cmd_inject(args, config, out_dir)
        if args.command == "ignite":
            return _cmd_ignite(args, config, out_dir)
        if args.command == "campaign":
            return _cmd_campaign(args, config, out_dir)
        parser.error(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
