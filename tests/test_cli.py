"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

DATA = Path(__file__).parent / "data"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.command == "quickstart"
        assert args.switches == 4
        assert args.vm_boot_delay == 5.0

    def test_fig3_sizes(self):
        args = build_parser().parse_args(["fig3", "--sizes", "4", "8"])
        assert args.sizes == [4, 8]

    def test_ablation_choices(self):
        args = build_parser().parse_args(["ablation", "vm-latency"])
        assert args.which == "vm-latency"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "unknown"])

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--scenario", "fat-tree-k4", "--scenario", "ring-4",
             "--workers", "8", "--out", "r.json", "--csv", "r.csv"])
        assert args.scenario == ["fat-tree-k4", "ring-4"]
        assert args.workers == 8
        assert args.out == "r.json"
        assert args.csv == "r.csv"


class TestCommands:
    def test_manual_command_prints_breakdown(self, capsys):
        assert main(["manual", "--switches", "28"]) == 0
        output = capsys.readouterr().out
        assert "7.0 hours" in output
        assert "create VMs" in output

    def test_quickstart_command_runs_small_ring(self, capsys):
        exit_code = main(["quickstart", "--switches", "3", "--vm-boot-delay", "1.0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ospf_converged" in output
        assert "configured 3/3 switches" in output
        assert "automatic:" in output

    def test_quickstart_past_its_deadline_exits_1(self, capsys):
        # Three 3,000 s VM boots in series miss the 7,200 s deadline.
        assert main(["quickstart", "--switches", "3",
                     "--vm-boot-delay", "3000"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "configuration did not complete within the deadline\n")

    def test_fig3_command_prints_table(self, capsys):
        assert main(["fig3", "--sizes", "4"]) == 0
        output = capsys.readouterr().out
        assert "switches" in output
        assert "manual" in output
        assert "4" in output

    def test_sweep_list_shows_catalogue(self, capsys):
        assert main(["sweep", "--list"]) == 0
        output = capsys.readouterr().out
        assert "fat-tree-k4" in output
        assert "pan-european" in output

    def test_sweep_without_selection_fails(self, capsys):
        assert main(["sweep"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: no scenarios selected")
        assert main(["sweep", "--scenario", "ring-4", "--workers", "0"]) == 2
        assert capsys.readouterr().err == "error: workers must be >= 1\n"

    def test_sweep_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["sweep", "--scenario", "no-such-thing"]) == 2
        err = capsys.readouterr().err
        assert "no scenario named 'no-such-thing'" in err

    def test_sweep_topology_error_fails_cleanly(self, capsys):
        from repro.scenarios import ScenarioSpec, register, unregister
        register(ScenarioSpec("tmp-bad-torus", "torus", {"rows": 1, "cols": 5}))
        try:
            assert main(["sweep", "--scenario", "tmp-bad-torus"]) == 2
            assert "at least 2 rows" in capsys.readouterr().err
        finally:
            unregister("tmp-bad-torus")

    def test_sweep_bad_export_paths_fail_before_running(self, capsys, tmp_path):
        assert main(["sweep", "--scenario", "ring-4",
                     "--out", "/no-such-dir/r.json"]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert main(["sweep", "--scenario", "ring-4",
                     "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_sweep_unwritable_export_fails_before_running(self, capsys,
                                                          tmp_path,
                                                          monkeypatch):
        # Root ignores file modes, so simulate the unwritable directory.
        import repro.cli as cli
        monkeypatch.setattr(cli.os, "access", lambda *_args, **_kw: False)
        assert main(["sweep", "--scenario", "ring-4",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "not writable" in capsys.readouterr().err

    def test_sweep_runs_and_exports(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main(["sweep", "--scenario", "ring-4", "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "ring-4" in output
        assert out.exists()

    def test_sweep_controllers_override(self, capsys, tmp_path):
        out = tmp_path / "sharded.json"
        assert main(["sweep", "--scenario", "ring-4", "--controllers", "2",
                     "--out", str(out)]) == 0
        import json

        payload = json.loads(out.read_text())
        assert payload[0]["controllers"] == 2

    def test_sweep_rejects_bad_controllers(self, capsys):
        assert main(["sweep", "--scenario", "ring-4", "--controllers", "0"]) == 2
        assert capsys.readouterr().err == \
            "error: controllers must be >= 1, got 0\n"

    @pytest.mark.parametrize("option, message", [
        (["--demands", "-3"], "error: demand count must be >= 1, got -3"),
        (["--rate", "-1"], "error: rate_bps must be > 0, got -1.0"),
        (["--window", "-5"], "error: window must be >= 0, got -5.0"),
        (["--settle", "-100"], "error: settle must be >= 0, got -100.0")])
    def test_te_bad_demand_option_fails_cleanly(self, capsys, option,
                                                message):
        for command in ("te", "traffic"):
            assert main([command, "--scenario", "ring-4"] + option) == 2
            assert capsys.readouterr().err.strip() == message


class TestCtlScale:
    def test_ctlscale_arguments(self):
        args = build_parser().parse_args(
            ["ctlscale", "--scenario", "ring-16-c2", "--controllers", "1", "2",
             "--partitioner", "contiguous", "--csv", "loads.csv"])
        assert args.scenario == "ring-16-c2"
        assert args.controllers == [1, 2]
        assert args.partitioner == "contiguous"
        assert args.csv == "loads.csv"

    def test_ctlscale_requires_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ctlscale"])

    def test_ctlscale_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["ctlscale", "--scenario", "nope"]) == 2
        assert "no scenario named" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["ctlscale", "--churn", "--churn-failovers", "-1"],
         "error: failovers must be >= 0, got -1"),
        (["ctlscale", "--churn", "--churn-reshards", "-1"],
         "error: reshards must be >= 0, got -1"),
        (["ctlscale", "--churn", "--churn-links", "-2"],
         "error: link_churn must be >= 0, got -2"),
        (["ctlscale", "--churn", "--settle", "-1"],
         "error: settle must be >= 0, got -1.0"),
        (["failover", "--link-down", "1:2@10", "--settle", "-1"],
         "error: settle must be >= 0, got -1.0"),
        (["interdomain", "--settle", "-1"],
         "error: settle must be >= 0, got -1.0"),
        (["traffic", "--rate", "nan"], "error: rate_bps must be finite, "
                                       "got nan"),
        (["traffic", "--duration", "-4"], "error: duration must be >= 0, "
                                          "got -4.0"),
        (["failover", "--link-down", "1:2@nan"],
         "error: bad --link-down value '1:2@nan' (expected A:B@T): event "
         "time must be finite, got nan"),
        (["failover", "--link-down", "1:2@10", "--settle", "nan"],
         "error: settle must be finite, got nan"),
        (["quickstart", "--vm-boot-delay", "-3"],
         "error: vm_boot_delay must be >= 0, got -3.0"),
        (["ctlscale", "--controllers", "2", "--churn", "--churn-bus-jitter",
          "inf"], "error: jitter must be finite, got inf")])
    def test_negative_counts_and_settles_fail_cleanly(self, capsys, argv,
                                                      message):
        if argv[0] != "quickstart":
            argv = argv + ["--scenario", "ring-4"]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_phase_lengths_are_rejected(self, value):
        # `repro traffic --window nan` (or inf) used to run forever.
        from repro.experiments.run import check_non_negative

        with pytest.raises(ValueError, match="window must be finite"):
            check_non_negative(window=value)

    def test_ctlscale_runs_and_exports(self, capsys, tmp_path):
        out = tmp_path / "ctl.json"
        csv_file = tmp_path / "ctl.csv"
        assert main(["ctlscale", "--scenario", "ring-4",
                     "--controllers", "1", "2",
                     "--out", str(out), "--csv", str(csv_file)]) == 0
        output = capsys.readouterr().out
        assert "per-shard load" in output
        assert "match the single-controller totals" in output
        assert out.exists() and csv_file.exists()


#: (name, argv, writes a CSV); ``ctlscale --churn`` rejects ``--csv``.
_EXPERIMENT_COMMANDS = (
    ("sweep", ["sweep", "--scenario", "ring-4", "--scenario", "fat-tree-k4"],
     True),
    ("failover", ["failover", "--scenario", "ring-4", "--link-down", "1:2@10",
                  "--link-up", "1:2@70"], True),
    ("ctlscale", ["ctlscale", "--scenario", "ring-4", "--controllers", "1",
                  "2"], True),
    ("ctlscale-churn", ["ctlscale", "--scenario", "ring-4", "--controllers",
                        "2", "--churn", "--churn-bus-drop", "0.05",
                        "--churn-seed", "3"], False),
    ("interdomain", ["interdomain", "--scenario", "interdomain-3as"], True),
    ("interdomain-no-flap", ["interdomain", "--scenario", "interdomain-3as",
                             "--no-flap"], True),
)


def _mask_wall_seconds(node):
    """Drop every host-time ``wall_seconds`` field of a JSON document."""
    if isinstance(node, dict):
        if "wall_seconds" in node:
            assert node.pop("wall_seconds") >= 0.0
        for value in node.values():
            _mask_wall_seconds(value)
    elif isinstance(node, list):
        for value in node:
            _mask_wall_seconds(value)
    return node


def _experiments_snapshot(tmp_path, capsys):
    """stdout, JSON and (where written) CSV of each command of
    :data:`_EXPERIMENT_COMMANDS`, host times and the temporary path
    masked."""
    snapshot = {}
    for name, argv, with_csv in _EXPERIMENT_COMMANDS:
        out = tmp_path / f"{name}.json"
        csv_file = tmp_path / f"{name}.csv"
        exports = ["--out", str(out)]
        if with_csv:
            exports += ["--csv", str(csv_file)]
        assert main(argv + exports) == 0
        snapshot[name] = {
            "stdout": capsys.readouterr().out.replace(str(tmp_path), "TMP"),
            "json": _mask_wall_seconds(json.loads(out.read_text()))}
        if with_csv:
            snapshot[name]["csv"] = csv_file.read_text()
    return snapshot


def test_cli_experiments_output_is_byte_identical(tmp_path, capsys):
    expected = json.loads((DATA / "cli_experiments_snapshot.json").read_text())
    assert _experiments_snapshot(tmp_path, capsys) == expected


#: The paper's own commands (name, argv); they print and export nothing.
_PAPER_COMMANDS = (
    ("manual", ["manual"]),
    ("quickstart", ["quickstart", "--switches", "4"]),
    ("fig3", ["fig3", "--sizes", "4", "8"]),
)


def _paper_snapshot(capsys):
    """stdout of each command of :data:`_PAPER_COMMANDS`."""
    snapshot = {}
    for name, argv in _PAPER_COMMANDS:
        assert main(argv) == 0
        snapshot[name] = capsys.readouterr().out
    return snapshot


def test_cli_paper_output_is_byte_identical(capsys):
    expected = json.loads((DATA / "cli_paper_snapshot.json").read_text())
    assert _paper_snapshot(capsys) == expected


def _parser_snapshot():
    """Every subcommand's arguments as data: option strings, dest,
    default, type, choices, nargs, required, metavar and help.

    The structure is pinned rather than the help text, whose wording
    differs across Python versions.
    """
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    def plain(value):
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return getattr(value, "__name__", value)

    def arguments(subparser):
        return [{"kind": type(action).__name__,
                 **{field: plain(getattr(action, field))
                    for field in ("option_strings", "dest", "default",
                                  "type", "choices", "nargs", "required",
                                  "metavar", "help")}}
                for action in subparser._actions]

    return {"prog": parser.prog, "description": parser.description,
            "dest": commands.dest, "required": commands.required,
            "commands": [{"name": choice.dest, "help": choice.help,
                          "arguments": arguments(
                              commands.choices[choice.dest])}
                         for choice in commands._choices_actions]}


def test_parser_structure_is_unchanged():
    expected = json.loads((DATA / "cli_parser_snapshot.json").read_text())
    assert _parser_snapshot() == expected
