"""Staged-pipeline checks: a tiny end-to-end run pinned byte for byte,
resume and config pinning, and loud failures."""

import json
import os

import pytest

from exitsteal.errors import ContractError
from exitsteal.harness import experiment, load_config, run_experiment, run_stage

TOY_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy.cfg")
PINNED_REPORTS = os.path.join(os.path.dirname(__file__), "data", "tiny_reports.csv")

# configs/toy.cfg shrunk to run end to end in well under a second; the
# timing channel still separates the victim's 2 exits
TINY = {
    "dataset.n_train": "600",
    "dataset.n_calibration": "120",
    "dataset.n_test": "200",
    "dataset.n_iid_pool": "200",
    "unrelated.n": "600",
    "attack.n_iid": "100",
    "attack.n_unrelated": "300",
    "victim.widths": "16,16,16,16",
    "attack.widths": "16,16,16,16",
    "victim.exits": "2",
    "victim.tau": "0.8",
    "victim.epochs": "20",
    "attack.epochs": "2",
    "attack.n_search": "60",
}


def test_tiny_pipeline_is_pinned_and_resumable(tmp_path, monkeypatch):
    cfg = load_config(TOY_CFG, TINY)
    reports = run_experiment(cfg, tmp_path)
    assert list(reports) == list(experiment.VARIANTS)
    with open(PINNED_REPORTS, "rb") as fh:
        assert (tmp_path / "reports.csv").read_bytes() == fh.read()
    assert json.loads((tmp_path / "changepoints.json").read_text())["exit_count"] == 2

    # every stage is done, so a second call runs none of them
    ran = []
    real_run_stage = experiment.run_stage

    def counting_run_stage(name, *args, **kwargs):
        ran.append(name)
        return real_run_stage(name, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_stage", counting_run_stage)
    assert run_experiment(cfg, tmp_path) == reports
    assert ran == []

    # a different config may not reuse the directory
    changed = load_config(TOY_CFG, dict(TINY, **{"attack.epochs": "3"}))
    with pytest.raises(ContractError, match="different config"):
        run_experiment(changed, tmp_path)


@pytest.mark.parametrize("stage", ["train_substitute", "train_baseline"])
def test_single_estimated_exit_fails_loudly(tmp_path, stage):
    cfg = load_config(TOY_CFG)
    # the stage reads the estimated exit count before anything else, so its
    # other inputs only have to exist
    for name in ("queries.npz", "labels.npz"):
        (tmp_path / name).write_bytes(b"")
    (tmp_path / "changepoints.json").write_text(
        json.dumps({"boundaries": [], "log_posterior": 0.0, "exit_count": 1})
    )
    with pytest.raises(ContractError, match="did not separate any exits") as err:
        run_stage(stage, cfg, tmp_path)
    assert "estimated 1 exit" in str(err.value)
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["stages"][stage]["state"] == "failed"
