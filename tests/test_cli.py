"""CLI exit codes: 0 on a finished run, 1 on an invalid config, a mode
the config turns off, a damaged artifact or a usage error, 2 when the
strategy search overruns its branch budget."""

import json

import pytest

from exitsteal import search
from exitsteal.harness.cli import main
from exitsteal.harness.config import parse_config_text

from test_experiment import PINNED_REPORTS, TINY, TOY_CFG, _valid_report


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


def test_search_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    # the tiny run's 2-exit search visits a single branch, so a branch cap
    # of 0 makes it stop
    monkeypatch.setattr(search.search_strategy, "__defaults__", (0,))
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    assert main(["run-experiment", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "exceeds the cap of 0" in capsys.readouterr().err


def test_no_strategy_loss_without_ablations_exits_1(tmp_path, capsys):
    # the ablation net is trained only when experiment.ablations is on, so
    # the mode must fail loudly instead of finishing without its checkpoint
    cfg = write_config(tmp_path / "tiny.cfg", dict(TINY, **{"experiment.ablations": "false"}))
    run = str(tmp_path / "run")
    for command in ("train-victim", "deploy", "query", "estimate-exits"):
        assert main([command, "--config", cfg, "--out", run]) == 0
    capsys.readouterr()
    argv = ["train-substitute", "--mode", "no-strategy-loss", "--config", cfg, "--out", run]
    assert main(argv) == 1
    assert "experiment.ablations" in capsys.readouterr().err
    assert not (tmp_path / "run" / "sub_nostrategy.ckpt").exists()


@pytest.mark.parametrize("damage", ["not_json", "no_clo"])
def test_damaged_report_exits_1(tmp_path, capsys, damage):
    report = _valid_report()
    del report["clo"]
    text = "not json" if damage == "not_json" else json.dumps(report)
    (tmp_path / "report_ours.json").write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert str(tmp_path / "report_ours.json") in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b"", b"garbage", b"PK\x03\x04garbage"], ids=["empty", "garbage", "bad_zip"]
)
def test_damaged_queries_exit_1(tmp_path, capsys, content):
    cfg = write_config(tmp_path / "tiny.cfg", TINY)
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "queries.npz").write_bytes(content)
    assert main(["estimate-exits", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert str(tmp_path / "run" / "queries.npz") in capsys.readouterr().err


def test_report_takes_only_out(tmp_path, capsys):
    assert main(["report", "--config", "x", "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
