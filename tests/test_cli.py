"""Command-line entry point: flags, config files, exit codes, artifacts."""

import csv
import errno
import json
import os
import re
import subprocess
import sys

import pytest

from resilient_sdc import cli
from resilient_sdc.campaign import INTEGRATORS, PROBLEMS, RunConfig
from resilient_sdc.cli import (
    EXIT_CAPPED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNRECOVERABLE,
    build_parser,
    main,
)
from resilient_sdc.faults import FAULT_MODES, FaultConfig, OneShotSpec
from resilient_sdc.problems import IgnitionSurrogate, linear_exact

DT = IgnitionSurrogate().default_dt()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CRASH_FAULT_FLAGS = [
    "--step", "2", "--sweep", "1", "--node", "0",
    "--kernel", "assembly", "--offset", "0", "--scale", "1e308",
]


def _restart_count(text):
    match = re.search(r"restarts: (\d+)", text)
    assert match is not None, text
    return int(match.group(1))


def test_parser_accepts_every_subcommand():
    parser = build_parser()
    for name in ["converge", "sense", "inject", "ignite", "campaign"]:
        args = parser.parse_args([name])
        assert args.command == name


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_converge_reports_observed_orders(capsys):
    rc = main(["converge", "--dts", "0.2,0.1,0.05", "--nodes", "2", "--sweeps", "2"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "observed order" in out
    row = out.strip().splitlines()[-1].split()
    assert row[:2] == ["2", "2"]
    assert 1.7 <= float(row[2]) <= 2.3


def test_converge_ladder_abort_writes_one_config_error_line(tmp_path):
    """A ladder run that overflows y' = y reports itself through the error
    line alone: no floating-point warning reaches stderr."""
    result = subprocess.run(
        [sys.executable, "-m", "resilient_sdc.cli", "converge", "--t-end", "800",
         "--dts", "1,0.5,0.25"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == EXIT_CONFIG
    assert result.stdout == ""
    assert result.stderr == ("config error: 3 nodes, 4 sweeps, dt 1.0: "
                             "non-finite state (step 712, sweep 1, node 1)\n")


def test_an_empty_output_dir_variable_writes_one_config_error_line(tmp_path):
    """An empty RESILIENT_SDC_OUTPUT_DIR names no directory: the run config
    refuses it when built, so nothing runs and nothing is written."""
    result = subprocess.run(
        [sys.executable, "-m", "resilient_sdc.cli", "ignite", "--t-end", "2e-4"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC, "RESILIENT_SDC_OUTPUT_DIR": ""},
    )
    assert result.returncode == EXIT_CONFIG
    assert result.stdout == ""
    assert result.stderr == "config error: output_dir must not be empty\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [None, {"output_dir": ""}])
def test_an_empty_output_dir_flag_is_a_config_error(tmp_path, capsys, monkeypatch, config):
    """An empty ``--output-dir``, or config key, is refused like an empty
    variable, not replaced by ./runs."""
    monkeypatch.chdir(tmp_path)
    argv = ["--output-dir", ""]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = ["--config", "c.json"]
    rc = main([*argv, "ignite", "--problem", "linear", "--integrator", "rk", "--t-end", "0.2"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: output_dir must not be empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["c.json"] if config else [])


def test_converge_at_roundoff_writes_one_config_error_line(tmp_path):
    """A ladder run whose error is exactly 0.0 stops the study before the
    fit, with no floating-point warning and no meaningless order."""
    result = subprocess.run(
        [sys.executable, "-m", "resilient_sdc.cli", "converge", "--nodes", "4", "--sweeps", "8",
         "--dts", "0.02,0.01,0.005", "--t-end", "0.04"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == EXIT_CONFIG
    assert result.stdout == ""
    assert result.stderr == ("config error: 4 nodes, 8 sweeps, dt 0.005: "
                             "the error is exactly 0.0, so no order can be fit\n")


def test_flag_choices_are_the_tuples_the_library_checks_against():
    """Each name list is declared once, and each parser has its own fault
    flags: ``campaign``'s ``type_b`` default does not reach ``ignite``."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions if action.dest == "command"]
    library = {"problem": PROBLEMS, "integrator": INTEGRATORS, "fault_mode": FAULT_MODES}
    seen = []
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if action.dest in library:
                assert action.choices is library[action.dest], (name, action.dest)
                seen.append((name, action.dest))
    assert sorted(seen) == sorted(
        [(name, "integrator") for name in ("sense", "inject", "ignite", "campaign")]
        + [(name, "problem") for name in ("inject", "ignite", "campaign")]
        + [(name, "fault_mode") for name in ("ignite", "campaign")])
    assert parser.parse_args(["ignite"]).fault_mode is None
    assert parser.parse_args(["campaign"]).fault_mode == "type_b"


@pytest.mark.parametrize(
    "argv",
    [["converge", "--problem", "ignition"], ["ignite", "--streams", "2"],
     ["campaign", "--streams", "2"], ["ignite", "--output-every", "2"],
     ["campaign", "--seed", "1"], ["inject", "--seed", "1"], ["sense", "--seed", "1"],
     ["campaign", "--run-id", "1"], ["sense", "--run-id", "1"], ["inject", "--mode", "type_a"]],
)
def test_removed_options_are_usage_errors(argv, capsys):
    """``converge`` studies only the linear problem, the injector has one
    fault stream and ``trajectory.csv`` keeps every step, so these options
    are rejected before anything runs.  So are settings that cannot change
    a run: ``--base-seed`` sets a campaign's seed and the member index its
    run ids, ``inject`` and ``sense`` draw nothing at random, ``sense``
    writes no run id, and an ``inject`` fault's ``--bit`` already says
    whether it flips or scales."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_ignite_linear_clean_run_and_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main([
        "--output-dir", str(out_dir),
        "ignite", "--problem", "linear", "--integrator", "sdc_fixed",
        "--t-end", "0.5",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "status: clean" in out
    final_y = float(re.search(r"final_y: (\S+)", out).group(1))
    assert final_y == pytest.approx(linear_exact(0.5), abs=1e-6)
    assert sorted(path.name for path in out_dir.iterdir()) == [
        "events.jsonl", "metrics.json", "residuals.csv", "trajectory.csv"]
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["status"] == "clean"
    assert metrics["steps"] == 5


def test_ignite_resilient_short_ignition_run_is_capped(tmp_path, capsys):
    rc = main([
        "--output-dir", str(tmp_path / "out"),
        "ignite", "--t-end", repr(6 * DT),
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_CAPPED
    assert "status: capped" in out
    assert "final_peak_T:" in out


def test_inject_crash_exits_unrecoverable(tmp_path, capsys):
    rc = main([
        "--output-dir", str(tmp_path / "out"),
        "inject", "--problem", "ignition", "--integrator", "rk",
        "--t-end", repr(6 * DT), *CRASH_FAULT_FLAGS,
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_UNRECOVERABLE
    assert "status: aborted" in out


def test_inject_resilient_restarts_through_same_fault(tmp_path, capsys):
    rc = main([
        "--output-dir", str(tmp_path / "out"),
        "inject", "--problem", "ignition", "--integrator", "sdc_resilient",
        "--t-end", repr(6 * DT), *CRASH_FAULT_FLAGS,
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_CAPPED
    assert "status: capped" in out
    assert _restart_count(out) >= 1


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "problem": "linear", "integrator": "sdc_fixed",
        "t_end": 0.5, "dt": 0.1,
    }))
    rc = main(["--config", str(config),
               "--output-dir", str(tmp_path / "a"), "ignite"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "steps: 5" in out
    final_y = float(re.search(r"final_y: (\S+)", out).group(1))
    assert final_y == pytest.approx(linear_exact(0.5), abs=1e-6)


def test_flag_overrides_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "problem": "linear", "integrator": "sdc_fixed",
        "t_end": 0.5, "dt": 0.1,
    }))
    rc = main(["--config", str(config),
               "--output-dir", str(tmp_path / "b"),
               "ignite", "--t-end", "0.3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "steps: 3" in out
    final_y = float(re.search(r"final_y: (\S+)", out).group(1))
    assert final_y == pytest.approx(linear_exact(0.3), abs=1e-6)


@pytest.mark.parametrize(
    "command, config, flags",
    [
        # values their flags refuse: a config error naming the key
        ("ignite", {"window": [96]}, None),
        ("ignite", {"nodes": None}, None),
        ("ignite", {"dt": "abc"}, None),
        ("ignite", {"window": 96.7}, None),
        ("ignite", {"nodes": 3.0}, None),
        ("ignite", {"output_dir": None}, None),
        # values read as their flags read them
        ("ignite", {"t_end": "2e-4", "dt": 1}, ["--t-end", "2e-4", "--dt", "1"]),
        ("sense", {"t_end": 2e-4, "kernels": "assembly,reaction_rate"},
         ["--t-end", "2e-4", "--kernels", "assembly,reaction_rate"]),
        ("converge", {"dts": "0.2,0.1,0.05"}, ["--dts", "0.2,0.1,0.05"]),
        # JSON lists for list flags
        ("converge", {"dts": [0.2, 0.1, 0.05], "nodes": [2, 3], "sweeps": [2]},
         ["--dts", "0.2,0.1,0.05", "--nodes", "2,3", "--sweeps", "2"]),
        ("sense", {"t_end": 2e-4, "kernels": ["assembly"]},
         ["--t-end", "2e-4", "--kernels", "assembly"]),
    ],
)
def test_config_values_are_read_as_their_flags_read_them(tmp_path, capsys, command, config,
                                                          flags):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    rc = main(["--config", str(path), "--output-dir", str(out_dir), command])
    out, err = capsys.readouterr()
    if flags is None:
        (key,) = config
        assert rc == EXIT_CONFIG
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert not out_dir.exists()
        return
    written = {p.name: p.read_bytes() for p in out_dir.glob("*")}
    assert main(["--output-dir", str(out_dir), command, *flags]) == rc
    assert capsys.readouterr().out == out
    assert {p.name: p.read_bytes() for p in out_dir.glob("*")} == written


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("ignite", {"t-end": 2e-4, "problem": "linear", "integrator": "rk"},
         "t-end: not a flag of ignite\n"),
        ("ignite", {"t_end": 2e-4, "kernels": ["assembly"]},
         "kernels: not a flag of ignite (a flag of sense)\n"),
        ("converge", {"window": 96},
         "window: not a flag of converge (a flag of ignite, campaign)\n"),
        ("inject", {"output_dir": 3, "command": "ignite"}, "command: not a flag of inject\n"),
        # program-level flags other than output_dir
        ("ignite", {"config": "other.json", "output_dir": "x", "problem": "linear"},
         "config: not a flag of ignite\n"),
        ("ignite", {"help": "yes", "output_dir": "x", "problem": "linear"},
         "help: not a flag of ignite\n"),
        # seed is a flag of ignite alone
        ("inject", {"seed": 3}, "seed: not a flag of inject (a flag of ignite)\n"),
    ],
)
def test_config_keys_that_name_no_flag_of_the_command_are_config_errors(
        tmp_path, capsys, monkeypatch, command, config, message):
    """``output_dir`` is a flag of every command: its key is read, here to
    where nothing must be written."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    rc = main(["--config", str(path), "--output-dir", str(tmp_path / "out"), command])
    out, err = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert (out, err) == ("", f"config error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize(
    "argv",
    [["ignite", "--problem", "linear", "--nodes", "25"], ["converge", "--nodes", "3,9"]],
)
def test_rules_past_eight_nodes_are_config_errors(tmp_path, capsys, monkeypatch, argv):
    calls = []
    for name in ("integrate", "integrate_resilient", "rk_integrate"):
        monkeypatch.setattr(f"resilient_sdc.campaign.{name}", lambda *args: calls.append(args))
    rc = main(["--output-dir", str(tmp_path / "out"), *argv])
    out, err = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
    assert "8" in err
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["converge", "--t-end", "0"], "t_end must be at least the largest timestep 0.2, got 0.0"),
        (["converge", "--t-end", "0.01"],
         "t_end must be at least the largest timestep 0.2, got 0.01"),
        (["converge", "--t-end", "inf"], "t_end must be finite, got inf"),
        (["campaign", "--workers", "0", "--runs", "2"], "workers must be >= 1, got 0"),
        (["campaign", "--workers", "-3", "--runs", "2"], "workers must be >= 1, got -3"),
        (["inject", "--integrator", "rk", "--bit", "70", "--step", "30",
          "--kernel", "assembly", "--t-end", "5e-4"], "one-shot bit must be in [0, 63], got 70"),
        (["ignite", "--fault-mode", "type_b", "--t-end", "2e-4", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["ignite", "--fault-mode", "type_b", "--t-end", "2e-4", "--run-id", "-3"],
         "run_id must be >= 0, got -3"),
        (["campaign", "--runs", "3", "--t-end", "2e-4", "--base-seed", "-2"],
         "seed must be >= 0, got -2"),
        (["campaign", "--runs", "3", "--t-end", "2e-4", "--base-seed", "-2", "--workers", "2"],
         "seed must be >= 0, got -2"),
        (["converge", "--nodes", ","], "need at least one node count"),
        (["converge", "--sweeps", ","], "need at least one sweep count"),
        (["sense", "--kernels", ",", "--t-end", "1.6e-4", "--step", "1"],
         "need at least one kernel"),
        (["inject", "--t-end", "2e-4", "--bit", "5", "--scale", "2"],
         "a one-shot bit flip takes no scale, got scale 2.0"),
    ],
)
def test_settings_rejected_before_any_run_are_config_errors(tmp_path, capsys, monkeypatch, argv,
                                                            message):
    calls = []
    for name in ("integrate", "integrate_resilient", "rk_integrate"):
        monkeypatch.setattr(f"resilient_sdc.campaign.{name}", lambda *args: calls.append(args))
    rc = main(["--output-dir", str(tmp_path / "out"), *argv])
    out, err = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert (out, err) == ("", f"config error: {message}\n")
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ignite", "inject", "sense", "campaign"])
def test_an_unusable_output_dir_is_a_config_error_before_any_run(tmp_path, capsys, monkeypatch,
                                                                 command):
    """An output directory below a file cannot be made: one config error
    line, exit 2, and nothing integrated."""
    calls = []
    for name in ("integrate", "integrate_resilient", "rk_integrate"):
        monkeypatch.setattr(f"resilient_sdc.campaign.{name}", lambda *args: calls.append(args))
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "sub")
    rc = main(["--output-dir", out, command, "--t-end", "2e-4"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"config error: output_dir {out!r} is unusable: {os.strerror(errno.ENOTDIR)}\n")
    assert calls == []


def _library_calls(monkeypatch, flags):
    """The calls ``ignite``, ``inject``, ``campaign`` and ``sense`` make into
    the library with ``flags``, each stopped before anything runs."""
    calls = []

    class Called(Exception):
        pass

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise Called

    for name in ("run_single", "run_campaign", "sensitivity_sweep"):
        monkeypatch.setattr(cli, name, record)
    for command in ("ignite", "inject", "campaign", "sense"):
        with pytest.raises(Called):
            main([command, *flags])
    return calls


def test_cli_hands_the_library_its_own_defaults(tmp_path, monkeypatch):
    """With no flags and no config file, every setting is the library's default."""
    monkeypatch.setenv("RESILIENT_SDC_OUTPUT_DIR", str(tmp_path))
    out = str(tmp_path)
    assert _library_calls(monkeypatch, []) == [
        ((RunConfig(output_dir=out),), {}),
        ((RunConfig(output_dir=out, fault=OneShotSpec()),), {}),
        ((RunConfig(output_dir=out, fault=FaultConfig(mode="type_b")), 50, 0), {}),
        ((RunConfig(output_dir=out), None), {"step_index": None}),
    ]


def test_scale_goes_to_the_fault_source_of_each_command(tmp_path, monkeypatch):
    """``--scale`` multiplies the windowed faults of ``ignite`` and
    ``campaign``, the one-shot of ``inject`` and each one-shot of ``sense``;
    ``inject`` and ``sense`` build no ``FaultConfig``."""
    monkeypatch.setenv("RESILIENT_SDC_OUTPUT_DIR", str(tmp_path))
    out = str(tmp_path)
    assert _library_calls(monkeypatch, ["--scale", "2"]) == [
        ((RunConfig(output_dir=out, fault=FaultConfig(scale=2.0)),), {}),
        ((RunConfig(output_dir=out, fault=OneShotSpec(scale=2.0)),), {}),
        ((RunConfig(output_dir=out, fault=FaultConfig(mode="type_b", scale=2.0)), 50, 0), {}),
        ((RunConfig(output_dir=out), None), {"step_index": None, "scale": 2.0}),
    ]


def test_malformed_config_exits_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = main(["--config", str(bad), "ignite"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    rc = main(["--config", str(not_object), "ignite"])
    assert rc == EXIT_CONFIG

    rc = main(["--config", str(tmp_path / "missing.json"), "ignite"])
    assert rc == EXIT_CONFIG


def test_invalid_run_options_exit_config_error(capsys):
    rc = main(["ignite", "--problem", "linear", "--integrator", "sdc_fixed",
               "--nodes", "1", "--t-end", "0.3"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_environment_variable_sets_output_dir(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "from_env"
    monkeypatch.setenv("RESILIENT_SDC_OUTPUT_DIR", str(out_dir))
    rc = main(["ignite", "--problem", "linear", "--integrator", "sdc_fixed",
               "--t-end", "0.3"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert (out_dir / "metrics.json").exists()
    assert str(out_dir) in out


def test_campaign_subcommand_prints_summary_and_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "camp"
    rc = main([
        "--output-dir", str(out_dir),
        "campaign", "--problem", "ignition", "--t-end", repr(4 * DT),
        "--runs", "2", "--base-seed", "11", "--window", "5580",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "runs: 2" in out
    assert "mean:" in out
    rows = (out_dir / "runs.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + one row per run
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "histogram.csv").exists()


@pytest.mark.parametrize("flags, config", [(["--fault-mode", "off"], {}),
                                           ([], {"fault_mode": "off"})])
def test_campaign_fault_mode_off_runs_fault_free_members(tmp_path, capsys, flags, config):
    """``type_b`` is only the default: an explicit ``off``, by flag or config
    key, is honoured."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    rc = main(["--config", str(path), "--output-dir", str(tmp_path / "out"), "campaign",
               "--runs", "2", "--t-end", "2e-4", "--window", "96", *flags])
    assert rc == EXIT_OK
    with open(tmp_path / "out" / "runs.csv", newline="") as fh:
        assert [row["fault_events"] for row in csv.DictReader(fh)] == ["0", "0"]


def test_sense_subcommand_writes_sensitivity_table(tmp_path, capsys):
    out_dir = tmp_path / "sense"
    rc = main([
        "--output-dir", str(out_dir),
        "sense", "--integrator", "sdc_fixed", "--t-end", repr(8 * DT),
        "--step", "2", "--scale", "1.5", "--kernels", "reaction_rate,assembly",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "reaction_rate" in out
    rows = (out_dir / "sensitivity.csv").read_text().strip().splitlines()
    assert rows[0] == "kernel,final_peak_T,deviation,status"
    assert len(rows) == 3
    for row in rows[1:]:
        assert row.split(",")[-1] in {"completed", "crashed"}


def test_inject_offset_past_the_kernel_array_is_a_config_error(tmp_path, capsys):
    rc = main([
        "--output-dir", str(tmp_path / "out"),
        "inject", "--t-end", "2e-4", "--kernel", "gradient_T", "--offset", "100000",
    ])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "config error" in err
    assert "100000" in err and "gradient_T's 120-element array" in err
    assert not (tmp_path / "out").exists()


def test_inject_bit_flips_that_bit(tmp_path, capsys):
    """A ``--bit`` alone flips it: the event log holds the bytes it held when
    ``--mode type_b`` had to be given too."""
    rc = main(["--output-dir", str(tmp_path), "inject", "--integrator", "sdc_fixed",
               "--t-end", "2e-4", "--step", "1", "--kernel", "reaction_rate", "--bit", "63"])
    assert rc == EXIT_OK
    assert (tmp_path / "events.jsonl").read_text() == (
        '{"array_offset": 0, "bit_index": 63, "call_index": 58, "kernel_id": "reaction_rate", '
        '"new_bits": "bccd6e894ac2758f", "new_value": -8.168960621868598e-16, "node_index": 0, '
        '"old_bits": "3ccd6e894ac2758f", "old_value": 8.168960621868598e-16, "run_id": 0, '
        '"scale": null, "sim_time": 7.729006114445732e-06, "step_index": 1, "sweep_index": 1}\n'
    )


def test_inject_says_when_its_fault_never_fired(tmp_path, capsys):
    """A resilient step that converges before sweep 8 never evaluates the
    scheduled position: the run completes, and one stderr line says so."""
    rc = main(["--output-dir", str(tmp_path), "inject", "--integrator", "sdc_resilient",
               "--step", "400", "--sweep", "8", "--node", "1", "--kernel", "reaction_rate",
               "--t-end", "3.1e-3"])
    out, err = capsys.readouterr()
    assert rc == EXIT_CAPPED
    assert err == "one-shot fault never fired: step 400 sweep 8 node 1 kernel reaction_rate\n"
    assert "faults: 0" in out
    assert (tmp_path / "events.jsonl").read_text() == (
        '{"warning": "one-shot schedule never reached"}\n')


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sense", "--integrator", "sdc_fixed", "--t-end", "1.6e-4", "--step", "1",
          "--kernels", "no_such_kernel,assembly"], "got 'no_such_kernel'"),
        (["inject", "--t-end", "1.6e-4", "--kernel", "no_such_kernel"], "got 'no_such_kernel'"),
        (["inject", "--step", "-1"], "step_index must be >= 0, got -1"),
        (["inject", "--sweep", "0"], "sweep_index must be >= 1, got 0"),
        (["inject", "--problem", "linear", "--kernel", "assembly"], "got 'assembly'"),
        (["inject", "--problem", "linear", "--node", "7"],
         "node_index must be < 3 for sdc_resilient, got sweep_index 1, node_index 7"),
        (["inject", "--integrator", "rk", "--sweep", "2"],
         "sweep_index must be <= 1 for rk, got sweep_index 2, node_index 0"),
        (["sense", "--integrator", "sdc_fixed", "--t-end", "1.6e-4", "--step", "500",
          "--kernels", "reaction_rate,assembly"],
         "step_index must be < 21 for a 21-step run, got 500"),
        (["inject", "--t-end", "1.6e-4", "--step", "21"],
         "step_index must be < 21 for a 21-step run, got 21"),
        (["inject", "--problem", "linear", "--offset", "max_T"],
         "max_T names the hottest ignition grid point"),
    ],
)
def test_impossible_one_shot_faults_are_config_errors(tmp_path, capsys, argv, message):
    rc = main(["--output-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_inject_negative_offset_is_a_config_error(tmp_path, capsys):
    rc = main([
        "--output-dir", str(tmp_path / "out"),
        "inject", "--t-end", "2e-4", "--kernel", "gradient_T", "--offset", "-1",
    ])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "config error" in err and "-1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--dt", "inf", "dt"), ("--t-end", "inf", "t_end"), ("--dt", "nan", "dt"),
     ("--t-end", "nan", "t_end")],
)
def test_non_finite_times_are_config_errors(tmp_path, capsys, flag, value, field):
    rc = main([
        "--output-dir", str(tmp_path / "out"),
        "ignite", "--problem", "linear", "--integrator", "rk", flag, value,
    ])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith(f"config error: {field} must be finite, got {value}")
    assert not (tmp_path / "out").exists()
