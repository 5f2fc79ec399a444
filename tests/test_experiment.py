"""Staged-pipeline checks: a tiny end-to-end run pinned byte for byte,
resume and config pinning, loud failures, and the sweep recipes."""

import json
import os
import re

import numpy as np
import pytest

from exitsteal.errors import ContractError, FormatError
from exitsteal.harness import (
    experiment,
    load_config,
    run_exit_sweep,
    run_experiment,
    run_lambda_sweep,
    run_stage,
)
from exitsteal.harness.config import parse_config_text
from exitsteal.metrics import EvalReport
from exitsteal.multiexit import SENTINEL, OutputStrategy

from test_datasets import write_images, write_labels

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


@pytest.mark.parametrize(
    "backbone, duplicate, shape",
    [("dense", "false", (6,)), ("conv", "false", (1, 3, 2)), ("conv", "true", (3, 3, 2))],
    ids=["dense", "conv", "conv_rgb"],
)
def test_idx_dataset_stage_splits_the_source_files(tmp_path, backbone, duplicate, shape):
    rng = np.random.default_rng(7)
    sources = {
        split: (
            rng.integers(0, 256, size=(n, 3, 2), dtype=np.uint8),
            rng.integers(0, 10, size=n, dtype=np.uint8),
        )
        for split, n in (("train", 9), ("test", 5))
    }
    overrides = {
        "dataset.kind": "idx",
        "dataset.idx_duplicate_channels": duplicate,
        "dataset.n_train": "4",
        "dataset.n_calibration": "2",
        "dataset.n_test": "3",
        "dataset.n_iid_pool": "2",
        "unrelated.kind": "uniform",
        "unrelated.n": "7",
        "attack.n_iid": "2",
        "attack.n_unrelated": "7",
        "attack.n_search": "0",
        "victim.backbone": backbone,
        "attack.backbone": backbone,
    }
    for split, (images, labels) in sources.items():
        overrides[f"dataset.idx_{split}_images"] = write_images(tmp_path / f"{split}-x.idx", images)
        overrides[f"dataset.idx_{split}_labels"] = write_labels(tmp_path / f"{split}-y.idx", labels)
    cfg = load_config(TOY_CFG, overrides)
    assert run_stage("dataset", cfg, tmp_path / "run") is True

    def as_inputs(images):
        x = images / 255.0
        if backbone == "dense":
            return x.reshape(x.shape[0], -1)
        return np.repeat(x[:, None], shape[0], axis=1)

    train_x, train_y = as_inputs(sources["train"][0]), sources["train"][1].astype(np.int64)
    test_x, test_y = as_inputs(sources["test"][0]), sources["test"][1].astype(np.int64)
    want = {
        "train_x": train_x[:4],
        "train_y": train_y[:4],
        "train_tier": np.ones(4, dtype=np.int64),
        "calib_x": train_x[4:6],
        "calib_y": train_y[4:6],
        "test_x": test_x[:3],
        "test_y": test_y[:3],
        "iid_x": train_x[6:8],
        "iid_y": train_y[6:8],
        # the uniform pool in the inputs' own shape, from seed.dataset + 1
        "unrelated_x": np.random.default_rng(cfg.seed.dataset + 1).uniform(
            cfg.unrelated.low, cfg.unrelated.high, size=(7,) + shape
        ),
    }
    with np.load(tmp_path / "run" / "dataset.npz") as data:
        assert sorted(data.files) == sorted(want)
        for name, arr in want.items():
            got = data[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape, name
            assert got.tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("stage", ["train_substitute", "train_baseline"])
def test_single_estimated_exit_fails_loudly(tmp_path, stage):
    cfg = load_config(TOY_CFG)
    # the stage reads the estimated exit count before any other input, so
    # the empty files standing in for those are never opened
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


# the first missing input of each stage run on an empty directory, and the
# command the error names for it; dataset has no inputs and runs
MISSING = {
    "dataset": None,
    "train_victim": ("dataset.npz", "train-victim"),
    "deploy": ("victim.ckpt", "train-victim"),
    "query": ("deployment.json", "deploy"),
    "estimate_exits": ("queries.npz", "query"),
    "train_substitute": ("changepoints.json", "estimate-exits"),
    "train_baseline": ("changepoints.json", "estimate-exits"),
    "search_searched": ("sub_ours.ckpt", "train-substitute --mode ours"),
    "search_traditional": ("sub_baseline.ckpt", "train-substitute --mode baseline"),
    "evaluate": ("victim.ckpt", "train-victim"),
}


def test_every_stage_has_a_missing_input_case():
    assert tuple(MISSING) == experiment.STAGE_ORDER


@pytest.mark.parametrize("stage", list(MISSING))
def test_stage_on_empty_dir_names_the_command_to_run(tmp_path, stage):
    cfg = load_config(TOY_CFG, TINY)
    if MISSING[stage] is None:
        assert run_stage(stage, cfg, tmp_path) is True
        return
    artifact, command = MISSING[stage]
    with pytest.raises(ContractError) as err:
        run_stage(stage, cfg, tmp_path)
    assert str(err.value) == (
        f"missing artifact {tmp_path / artifact}; run 'exitsteal {command}' first"
    )


@pytest.mark.parametrize(
    "stage, artifact, command",
    [
        ("search_traditional", "sub_ours.ckpt", "train-substitute --mode ours"),
        ("search_searched", "sub_nostrategy.ckpt", "train-substitute --mode baseline"),
        ("evaluate", "sub_nostrategy.ckpt", "train-substitute --mode baseline"),
        ("evaluate", "strategy_no_search.json", "search-strategy --mode traditional"),
        ("evaluate", "strategy_no_strategy_loss.json", "search-strategy --mode search"),
    ],
)
def test_missing_ablation_input_names_the_command_to_run(tmp_path, stage, artifact, command):
    cfg = load_config(TOY_CFG, TINY)
    assert cfg.ablations
    for earlier in experiment.STAGE_ORDER[: experiment.STAGE_ORDER.index(stage)]:
        run_stage(earlier, cfg, tmp_path)
    (tmp_path / artifact).unlink()
    with pytest.raises(ContractError) as err:
        run_stage(stage, cfg, tmp_path)
    assert str(err.value) == (
        f"missing artifact {tmp_path / artifact}; run 'exitsteal {command}' first"
    )
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["stages"][stage]["state"] == "failed"


def _valid_report() -> dict:
    return json.loads(EvalReport(0.5, 0.25, 10, 1e-8, 1.0, (1, 2), 4).to_json())


@pytest.mark.parametrize("damage", ["not_json", "no_clo", "unknown_field", "not_an_object"])
def test_damaged_report_is_a_format_error(tmp_path, damage):
    report = _valid_report()
    text = {
        "not_json": "not json",
        "no_clo": json.dumps({k: v for k, v in report.items() if k != "clo"}),
        "unknown_field": json.dumps(dict(report, extra=1)),
        "not_an_object": json.dumps([report]),
    }[damage]
    (tmp_path / "report_victim.json").write_text(json.dumps(report))
    (tmp_path / "report_ours.json").write_text(text)
    with pytest.raises(FormatError, match=re.escape(str(tmp_path / "report_ours.json"))):
        experiment.load_reports(tmp_path)


def test_load_reports_reads_the_reports_present(tmp_path):
    with pytest.raises(ContractError, match="run 'exitsteal evaluate' first"):
        experiment.load_reports(tmp_path)
    report = _valid_report()
    for name in ("no_search", "victim"):
        (tmp_path / f"report_{name}.json").write_text(json.dumps(report))
    reports = experiment.load_reports(tmp_path)
    assert list(reports) == ["victim", "no_search"]
    assert reports["victim"] == EvalReport(**report)


def test_strategy_json_shape():
    strategy = OutputStrategy((0.9, 0.8))
    frag = experiment._strategy_json(strategy, agreement=0.75)
    assert frag == {"thresholds": [0.9, 0.8], "agreement": 0.75, "fallback": False}
    assert experiment._strategy(frag) == strategy
    frag = experiment._strategy_json(OutputStrategy.never_early(2, fallback=True), agreement=0.0)
    assert frag["fallback"] is True and frag["thresholds"] == [SENTINEL]


@pytest.mark.parametrize(
    "sweep, settings, column, csv_name",
    [
        (run_lambda_sweep, [0.0, 0.5], "lambda", "lambda_sweep.csv"),
        (run_exit_sweep, [2, 3], "exits", "exit_sweep.csv"),
    ],
)
def test_sweep_runs_one_experiment_per_setting(tmp_path, sweep, settings, column, csv_name):
    with open(TOY_CFG) as fh:
        values = dict(parse_config_text(fh.read()), **TINY)
    rows = sweep(values, settings, tmp_path)
    assert [value for value, _ in rows] == settings
    subdirs = [f"{column}_{setting}" for setting in settings]
    assert sorted(os.listdir(tmp_path)) == sorted(subdirs + [csv_name])
    lines = (tmp_path / csv_name).read_text().splitlines()
    assert lines[0] == f"{column},acc,clo,cc_gflops,cc_ratio"
    assert len(lines) == 1 + len(settings)
    for subdir, (_, report) in zip(subdirs, rows):
        assert report == EvalReport.from_json((tmp_path / subdir / "report_ours.json").read_text())
