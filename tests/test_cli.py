"""CLI exit codes: 0 on a finished run, which trains two substitutes and
reports all five variants, 1 on an invalid config, a missing or damaged
artifact or a usage error, 2 when the strategy search overruns its branch
budget."""

import argparse
import json
import shutil

import pytest

from exitsteal import search
from exitsteal.harness import experiment
from exitsteal.harness.experiment import ARTIFACTS
from exitsteal.harness.cli import build_parser, main
from exitsteal.harness.config import load_config, parse_config_text

from test_experiment import (
    CHANGEPOINTS,
    DEPLOYMENT,
    PINNED_REPORTS,
    TINY,
    TOY_CFG,
    _valid_report,
    damage_member,
    queries_npz,
    run_stages_before,
    write_valid_reports,
)


def write_config(path, overrides):
    """configs/toy.cfg with `overrides` applied, as a config file."""
    with open(TOY_CFG) as fh:
        values = parse_config_text(fh.read())
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def test_finished_run_exits_0(tmp_path, capsys):
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    assert main(["run-experiment", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    with open(PINNED_REPORTS, "rb") as fh:
        assert (tmp_path / "run" / "reports.csv").read_bytes() == fh.read()
    assert "cc_ratio" in capsys.readouterr().out


def test_invalid_config_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", dict(TINY, **{"victim.exits": "1"}))
    assert main(["run-experiment", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "victim.exits must be >= 2" in capsys.readouterr().err


def test_negative_seed_exits_1(tmp_path, capsys):
    # numpy's generators take no negative seed; the config refuses one
    # before any stage starts
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    argv = ["train-victim", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert_one_error_line(capsys.readouterr().err, "seed.dataset must be >= 0")
    assert not (tmp_path / "run").exists()


def test_search_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    # the tiny run's 2-exit search visits a single branch, so a branch cap
    # of 0 makes it stop
    monkeypatch.setattr(search.search_strategy, "__defaults__", (0,))
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    assert main(["run-experiment", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "exceeds the cap of 0" in capsys.readouterr().err


def test_train_substitute_trains_both_nets(tmp_path, capsys):
    # one command per step: it runs both substitute stages, in order, and
    # skips one whose outputs exist
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    run = str(tmp_path / "run")
    for command in ("train-victim", "deploy", "query", "estimate-exits"):
        assert main([command, "--config", cfg, "--out", run]) == 0
    capsys.readouterr()
    argv = ["train-substitute", "--config", cfg, "--out", run]
    assert main(argv) == 0
    assert capsys.readouterr().out == "train_substitute: done\ntrain_baseline: done\n"
    (tmp_path / "run" / "sub_baseline.ckpt").unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "train_substitute: skipped (outputs exist)\ntrain_baseline: done\n"
    )
    assert (tmp_path / "run" / "sub_baseline.ckpt").exists()


@pytest.mark.parametrize(
    "argv", [["train-substitute", "--mode", "ours"], ["search-strategy", "--mode", "search"]]
)
def test_mode_option_is_gone(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_stage_commands_are_the_cli_commands():
    # so a missing artifact's "run 'exitsteal <command>' first" always
    # names a command that exists, and every step runs some stage
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    stage_commands = {stage.command for stage in experiment.STAGES.values()}
    assert stage_commands <= set(commands)
    assert set(commands) - stage_commands == {"run-experiment", "report"}


def assert_one_error_line(err: str, *names: str) -> None:
    """stderr is a single 'error:' line (no traceback) naming each of `names`."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for name in names:
        assert name in err


@pytest.mark.parametrize(
    "damage, field",
    [("not_json", None), ("no_clo", "'clo'"), ("clo_not_a_number", "'clo'")],
    ids=["not_json", "no_clo", "clo_not_a_number"],
)
def test_damaged_report_exits_1(tmp_path, capsys, damage, field):
    write_valid_reports(tmp_path)
    report = _valid_report()
    text = {
        "not_json": "not json",
        "no_clo": json.dumps({k: v for k, v in report.items() if k != "clo"}),
        "clo_not_a_number": json.dumps(dict(report, clo="x")),
    }[damage]
    (tmp_path / "report_ours.json").write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == 1
    names = [str(tmp_path / "report_ours.json")] + [field] * (field is not None)
    assert_one_error_line(capsys.readouterr().err, *names)


@pytest.mark.parametrize(
    "content, field",
    [
        (b"", None),
        (b"garbage", None),
        (b"PK\x03\x04garbage", None),
        (queries_npz(calib_runtimes=None), "'calib_runtimes'"),
    ],
    ids=["empty", "garbage", "bad_zip", "no_calib_runtimes"],
)
def test_damaged_queries_exit_1(tmp_path, capsys, content, field):
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "queries.npz").write_bytes(content)
    assert main(["estimate-exits", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    names = [str(tmp_path / "run" / "queries.npz")] + [field] * (field is not None)
    assert_one_error_line(capsys.readouterr().err, *names)


@pytest.fixture(scope="module")
def finished_tiny_run(tmp_path_factory):
    """(config path, run directory) of a finished TINY run; copy it before
    changing it."""
    root = tmp_path_factory.mktemp("finished")
    cfg = write_config(root / "tiny.cfg", TINY)
    assert main(["run-experiment", "--config", cfg, "--out", str(root / "run")]) == 0
    return cfg, root / "run"


# each archive: the command of the first stage that reads it, and an output
# of that stage, removed so that the stage runs again
ARCHIVE_READERS = {
    "dataset.npz": ("train-victim", "victim.ckpt"),
    "queries.npz": ("estimate-exits", "labels.npz"),
    "labels.npz": ("train-substitute", "sub_ours.ckpt"),
}


@pytest.mark.parametrize(
    "archive, member",
    [(archive, member) for archive in ARCHIVE_READERS for member in ARTIFACTS[archive].fields],
)
def test_damaged_archive_member_exits_1(finished_tiny_run, tmp_path, capsys, archive, member):
    cfg, finished = finished_tiny_run
    run = tmp_path / "run"
    shutil.copytree(finished, run)
    command, output = ARCHIVE_READERS[archive]
    (run / output).unlink()
    path = run / archive
    path.write_bytes(damage_member(path.read_bytes(), f"{member}.npy"))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(run)]) == 1
    message = f"cannot read {path}: Bad CRC-32 for file '{member}.npy'"
    assert_one_error_line(capsys.readouterr().err, message)


@pytest.mark.parametrize(
    "name, text, command, field",
    [
        ("status.json", "not json", "estimate-exits", None),
        ("changepoints.json", "{}", "train-substitute", "'boundaries'"),
        (
            "changepoints.json",
            json.dumps({k: v for k, v in CHANGEPOINTS.items() if k != "exit_count"}),
            "train-substitute",
            "'exit_count'",
        ),
        (
            "status.json",
            json.dumps({"config_sha256": "x", "stages": {"query": "done"}}),
            "query",
            "'stages'",
        ),
        (
            "deployment.json",
            json.dumps(dict(DEPLOYMENT, block_costs=["a", 1.0])),
            "query",
            "'block_costs'",
        ),
        (
            "strategy_ours.json",
            json.dumps({"thresholds": ["x"], "fallback": False, "agreement": 1.0}),
            "evaluate",
            "'thresholds'",
        ),
    ],
    ids=["status_not_json", "changepoints_empty", "changepoints_no_exit_count",
         "status_stage_not_a_dict", "block_cost_not_a_number", "threshold_not_a_number"],
)
def test_damaged_run_file_exits_1(tmp_path, capsys, name, text, command, field):
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    (tmp_path / "run").mkdir()
    if command == "evaluate":  # it opens every checkpoint first
        run_stages_before("evaluate", load_config(cfg), tmp_path / "run")
    (tmp_path / "run" / name).write_text(text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    names = [str(tmp_path / "run" / name)] + [field] * (field is not None)
    assert_one_error_line(capsys.readouterr().err, *names)


def test_report_without_a_variant_report_exits_1(finished_tiny_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(finished_tiny_run[1], run)
    (run / "report_no_search.json").unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 1
    path = run / "report_no_search.json"
    assert_one_error_line(capsys.readouterr().err, f"missing artifact {path}", "exitsteal evaluate")


def test_report_takes_only_out(tmp_path, capsys):
    assert main(["report", "--config", "x", "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
