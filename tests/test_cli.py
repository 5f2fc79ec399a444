"""CLI exit codes: 0 on a finished run, 1 on an invalid config or a mode
the config turns off, 2 when the strategy search overruns its branch
budget."""

from exitsteal import search
from exitsteal.harness.cli import main
from exitsteal.harness.config import parse_config_text

from test_experiment import PINNED_REPORTS, TINY, TOY_CFG


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
