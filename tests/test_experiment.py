"""Staged-pipeline checks that need no trained network."""

import json
import os

import pytest

from exitsteal.errors import ContractError
from exitsteal.harness import load_config, run_stage

TOY_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy.cfg")


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
