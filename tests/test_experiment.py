"""Staged-pipeline checks: a tiny end-to-end run pinned byte for byte,
resume and config pinning, the run directory against its declaration,
loud failures, and the experiment grid."""

import csv
import hashlib
import io
import json
import os
import re
import struct
import tracemalloc
import types
import zipfile

import numpy as np
import pytest

from exitsteal.changepoint import K_MAX
from exitsteal.errors import ContractError, FormatError
from exitsteal.harness import (
    experiment,
    load_config,
    run_experiment,
    run_grid,
    run_stage,
    seed_overrides,
)
from exitsteal.harness.config import parse_config_text
from exitsteal.metrics import EvalReport
from exitsteal.multiexit import SENTINEL, OutputStrategy, load_checkpoint
from exitsteal.victimlab import select_traditional_strategy

from _utils import cyclic_garbage
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


def record_stage_runs(monkeypatch) -> list:
    """Replace every stage by one that only appends its name to the list
    returned."""
    ran = []
    for name, stage in experiment.STAGES.items():
        run = stage._replace(run=lambda *args, name=name: ran.append(name))
        monkeypatch.setitem(experiment.STAGES, name, run)
    return ran


def test_tiny_pipeline_is_pinned_and_resumable(tmp_path, monkeypatch):
    cfg = load_config(TOY_CFG, TINY)
    reports = run_experiment(cfg, tmp_path)
    assert list(reports) == list(experiment.VARIANTS)
    with open(PINNED_REPORTS, "rb") as fh:
        assert (tmp_path / "reports.csv").read_bytes() == fh.read()
    assert json.loads((tmp_path / "changepoints.json").read_text())["exit_count"] == 2

    # every stage is done, so a second call runs none of them
    ran = record_stage_runs(monkeypatch)
    assert run_experiment(cfg, tmp_path) == reports
    assert ran == []

    # a different config may not reuse the directory
    changed = load_config(TOY_CFG, dict(TINY, **{"attack.epochs": "3"}))
    with pytest.raises(ContractError, match="different config"):
        run_experiment(changed, tmp_path)


def test_an_interrupted_first_stage_leaves_no_other_configs_text(tmp_path, monkeypatch):
    # KeyboardInterrupt is no Exception, so run_stage records nothing and
    # status.json is never written; a rerun under another config must write
    # its own text next to the hash status.json pins
    def interrupt(cfg, run_dir):
        raise KeyboardInterrupt

    dataset = experiment.STAGES["dataset"]
    monkeypatch.setitem(experiment.STAGES, "dataset", dataset._replace(run=interrupt))
    with pytest.raises(KeyboardInterrupt):
        run_stage("dataset", load_config(TOY_CFG, {"attack.lambda": "0.25"}), tmp_path)
    assert not (tmp_path / "status.json").exists()

    monkeypatch.setitem(experiment.STAGES, "dataset", dataset._replace(run=lambda *args: None))
    cfg = load_config(TOY_CFG)
    assert run_stage("dataset", cfg, tmp_path)
    text = (tmp_path / "config.resolved.cfg").read_text()
    assert text == cfg.canonical_text
    status = json.loads((tmp_path / "status.json").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == status["config_sha256"]


def test_tiny_pipeline_leaves_no_cyclic_garbage(tmp_path):
    # every stage's tapes (GradTape, Node), nets, closures and search walks
    # are freed by reference counting; the cycles that json (indent=), ast
    # (np.load's header) and inspect make are theirs and are not counted
    cfg = load_config(TOY_CFG, TINY)
    with cyclic_garbage() as garbage:
        run_experiment(cfg, tmp_path)
    ours = {
        getattr(o, "__qualname__", type(o).__qualname__)
        for o in garbage
        if ((o.__module__ if isinstance(o, types.FunctionType) else type(o).__module__) or "")
        .startswith("exitsteal")
    }
    assert ours == set()


def assert_run_matches_artifacts(run_dir) -> None:
    """A finished run holds exactly the files ARTIFACTS declares; each .npz
    holds exactly its declared arrays, of their dtype kind and rank, and each
    JSON file exactly its declared keys."""
    declared = {name: artifact.fields for name, artifact in experiment.ARTIFACTS.items()}
    assert sorted(os.listdir(run_dir)) == sorted(declared)
    for name, fields in declared.items():
        path = os.path.join(run_dir, name)
        if name.endswith(".npz"):
            with np.load(path) as archive:
                assert sorted(archive.files) == sorted(fields), name
                for key, (kind, ranks) in fields.items():
                    assert archive[key].dtype.kind == kind and archive[key].ndim in ranks, key
        elif name.endswith(".json"):
            with open(path) as fh:
                assert sorted(json.load(fh)) == sorted(fields), name
        else:
            assert fields == {}, name


@pytest.mark.parametrize("auto_tau", [True, False], ids=["true", "false"])
def test_run_directory_is_what_artifacts_declares(tmp_path, auto_tau):
    # auto_tau runs victim.tau = auto on a 3-exit victim, else plain TINY
    overrides = {"victim.tau": "auto", "victim.exits": "3"} if auto_tau else {}
    run_experiment(load_config(TOY_CFG, dict(TINY, **overrides)), tmp_path)
    assert_run_matches_artifacts(tmp_path)


def test_auto_tau_selects_the_victims_thresholds(tmp_path):
    # victim.tau = auto picks the victim's thresholds in deploy
    overrides = {"victim.tau": "auto", "attack.widths": "12,12,12"}
    cfg = load_config(TOY_CFG, dict(TINY, **overrides))
    reports = run_experiment(cfg, tmp_path)
    assert list(reports) == list(experiment.VARIANTS)
    assert reports["victim"].clo == reports["victim"].cc_ratio == 1.0

    deployment = json.loads((tmp_path / "deployment.json").read_text())
    victim = load_checkpoint(tmp_path / "victim.ckpt")
    with np.load(tmp_path / "dataset.npz") as data:
        chosen = select_traditional_strategy(
            victim, data["train_x"], data["train_y"], accuracy_slack=cfg.victim.tau_slack
        )
    assert deployment["tau"] is None
    assert experiment._strategy(deployment) == chosen
    # both substitutes are built on the attacker's architecture
    for name in ("sub_ours.ckpt", "sub_baseline.ckpt"):
        assert backbone_widths(tmp_path / name) == (12, 12, 12), name


def backbone_widths(path) -> tuple[int, ...]:
    """The block widths of the dense net checkpointed at `path`."""
    return load_checkpoint(path).backbone.widths[1:]


def run_stages_through(last: str, cfg, run_dir) -> None:
    """Run the pipeline's stages in order up to and including `last`."""
    for name in experiment.STAGE_ORDER[: experiment.STAGE_ORDER.index(last) + 1]:
        run_stage(name, cfg, run_dir)


@pytest.mark.parametrize(
    "backbone, shape", [("dense", (6,)), ("conv", (1, 3, 2))], ids=["dense", "conv"]
)
def test_idx_dataset_stage_splits_the_source_files(tmp_path, backbone, shape):
    rng = np.random.default_rng(7)
    sources = {
        split: (
            rng.integers(0, 256, size=(n, 3, 2), dtype=np.uint8),
            rng.integers(0, 10, size=n, dtype=np.uint8),
        )
        for split, n in (("train", 16), ("test", 5))
    }
    overrides = {
        "dataset.kind": "idx",
        # the sources' labels are digits, 0-9
        "dataset.classes": "10",
        "dataset.n_train": "4",
        "dataset.n_calibration": "10",
        "dataset.n_test": "3",
        "dataset.n_iid_pool": "2",
        "unrelated.kind": "uniform",
        "unrelated.n": "7",
        "attack.n_iid": "2",
        "attack.n_unrelated": "7",
        "attack.n_search": "0",
        "victim.backbone": backbone,
        # a conv net's widths are its blocks' channel counts
        "victim.widths": "8,16,16,32",
        "attack.widths": "8,16,16,32",
        # 1x1 kernels keep the 3x2 images' size through every conv block
        "victim.kernel": "1",
        "attack.kernel": "1",
    }
    for split, (images, labels) in sources.items():
        overrides[f"dataset.idx_{split}_images"] = write_images(tmp_path / f"{split}-x.idx", images)
        overrides[f"dataset.idx_{split}_labels"] = write_labels(tmp_path / f"{split}-y.idx", labels)
    cfg = load_config(TOY_CFG, overrides)
    assert run_stage("dataset", cfg, tmp_path / "run") is True
    if backbone == "conv":
        spec, hw = experiment._backbone("conv", cfg.victim.net, np.zeros((1,) + shape))
        assert spec.widths == (1, *cfg.victim.net.widths) and hw == (3, 2)

    def as_inputs(images):
        x = images / 255.0
        if backbone == "dense":
            return x.reshape(x.shape[0], -1)
        return x[:, None]

    train_x, train_y = as_inputs(sources["train"][0]), sources["train"][1].astype(np.int64)
    test_x, test_y = as_inputs(sources["test"][0]), sources["test"][1].astype(np.int64)
    want = {
        "train_x": train_x[:4],
        "train_y": train_y[:4],
        "train_tier": np.ones(4, dtype=np.int64),
        "calib_x": train_x[4:14],
        "calib_y": train_y[4:14],
        "test_x": test_x[:3],
        "test_y": test_y[:3],
        "iid_x": train_x[14:16],
        "iid_y": train_y[14:16],
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


@pytest.mark.parametrize("section", ["victim", "attack"])
def test_conv_net_too_deep_for_the_images_fails_at_the_dataset_stage(tmp_path, section):
    rng = np.random.default_rng(3)
    overrides = {
        "dataset.kind": "idx",
        "dataset.n_train": "4",
        "dataset.n_calibration": "10",
        "dataset.n_test": "3",
        "dataset.n_iid_pool": "2",
        "unrelated.kind": "uniform",
        "attack.n_iid": "2",
        "victim.backbone": "conv",
        "victim.widths": "8,16,16,32",
        "attack.widths": "8,16,16,32",
        "victim.kernel": "1",
        "attack.kernel": "1",
        f"{section}.kernel": "9",
    }
    for split, n in (("train", 16), ("test", 3)):
        images = rng.integers(0, 256, size=(n, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 4, size=n, dtype=np.uint8)
        overrides[f"dataset.idx_{split}_images"] = write_images(tmp_path / f"{split}-x.idx", images)
        overrides[f"dataset.idx_{split}_labels"] = write_labels(tmp_path / f"{split}-y.idx", labels)
    cfg = load_config(TOY_CFG, overrides)
    keys = f"{section}.kernel, {section}.stride and {section}.widths"
    with pytest.raises(ContractError, match=f"^{re.escape(keys)} shrink 4x4 images below 1x1$"):
        run_stage("dataset", cfg, tmp_path / "run")
    assert not (tmp_path / "run" / "dataset.npz").exists()


@pytest.mark.parametrize("classes", ["4", "9"])
def test_idx_labels_past_dataset_classes_fail_at_the_dataset_stage(tmp_path, classes):
    # labels 0-9, with toy.cfg's dataset.classes and with one class too few
    overrides = {
        "dataset.kind": "idx",
        "dataset.classes": classes,
        "dataset.n_train": "4",
        "dataset.n_calibration": "10",
        "dataset.n_test": "3",
        "dataset.n_iid_pool": "2",
        "unrelated.kind": "uniform",
        "attack.n_iid": "2",
    }
    rng = np.random.default_rng(4)
    for split, n in (("train", 16), ("test", 3)):
        images = rng.integers(0, 256, size=(n, 3, 2), dtype=np.uint8)
        labels = np.arange(n, dtype=np.uint8) % 10
        overrides[f"dataset.idx_{split}_images"] = write_images(tmp_path / f"{split}-x.idx", images)
        overrides[f"dataset.idx_{split}_labels"] = write_labels(tmp_path / f"{split}-y.idx", labels)
    cfg = load_config(TOY_CFG, overrides)
    message = f"^idx labels reach 9, past dataset.classes = {classes}$"
    with pytest.raises(ContractError, match=message):
        run_stage("dataset", cfg, tmp_path / "run")
    assert not (tmp_path / "run" / "dataset.npz").exists()


@pytest.mark.parametrize(
    "stage, exit_count, message",
    [
        pytest.param(stage, *case, id=prefix + stage)
        for prefix, *case in [
            ("", 1, "estimated 1 exit: the timing channel did not separate any exits"),
            # the detector's cap, K_MAX changepoints: toy.cfg's 6 attack
            # blocks could not hold 9 exits either, but that is not the cause
            ("at_cap-", K_MAX + 1, "estimated 9 exits, reaching its cap of 9: "
             "the timing channel over-segments$"),
        ]
        for stage in ("train_substitute", "train_baseline")
    ],
)
def test_single_estimated_exit_fails_loudly(tmp_path, stage, exit_count, message):
    cfg = load_config(TOY_CFG)
    # the stage reads the estimated exit count before any other input, so
    # the empty files standing in for those are never opened
    for name in ("queries.npz", "labels.npz"):
        (tmp_path / name).write_bytes(b"")
    (tmp_path / "changepoints.json").write_text(
        json.dumps({"boundaries": [], "log_posterior": 0.0, "exit_count": exit_count})
    )
    with pytest.raises(ContractError, match=message):
        run_stage(stage, cfg, tmp_path)
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["stages"][stage]["state"] == "failed"


# a changepoints.json for an estimated 2 exits
CHANGEPOINTS = {"boundaries": [1.0], "log_posterior": 0.0, "exit_count": 2}
# a deployment.json for a 2-exit victim
DEPLOYMENT = {
    "thresholds": [0.8],
    "fallback": False,
    "tau": 0.8,
    "block_costs": [1.0, 1.0],
    "head_costs": [0.5, 0.5],
    "noise_sigma": 0.01,
    "timing_seed": 3,
    "per_flop": 1e-9,
}


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
    "search_searched": ("sub_ours.ckpt", "train-substitute"),
    "search_traditional": ("sub_baseline.ckpt", "train-substitute"),
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


def run_stages_before(stage, cfg, run_dir) -> None:
    for earlier in experiment.STAGE_ORDER[: experiment.STAGE_ORDER.index(stage)]:
        run_stage(earlier, cfg, run_dir)


@pytest.mark.parametrize(
    "stage, artifact, command",
    [
        ("search_traditional", "sub_ours.ckpt", "train-substitute"),
        ("search_searched", "sub_baseline.ckpt", "train-substitute"),
        ("evaluate", "sub_baseline.ckpt", "train-substitute"),
        ("evaluate", "strategy_no_search.json", "search-strategy"),
        ("evaluate", "strategy_no_strategy_loss.json", "search-strategy"),
    ],
)
def test_missing_ablation_input_names_the_command_to_run(tmp_path, stage, artifact, command):
    cfg = load_config(TOY_CFG, TINY)
    run_stages_before(stage, cfg, tmp_path)
    (tmp_path / artifact).unlink()
    with pytest.raises(ContractError) as err:
        run_stage(stage, cfg, tmp_path)
    assert str(err.value) == (
        f"missing artifact {tmp_path / artifact}; run 'exitsteal {command}' first"
    )
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["stages"][stage]["state"] == "failed"


def test_evaluate_reads_each_checkpoint_once(tmp_path, monkeypatch):
    # five variants on three checkpoints: each file is loaded once, and the
    # victim row is scored on the deployment's own net
    cfg = load_config(TOY_CFG, TINY)
    run_stages_before("evaluate", cfg, tmp_path)
    loads = []

    def counting(path):
        loads.append(os.path.basename(path))
        return load_checkpoint(path)

    monkeypatch.setattr(experiment, "load_checkpoint", counting)
    run_stage("evaluate", cfg, tmp_path)
    assert sorted(loads) == ["sub_baseline.ckpt", "sub_ours.ckpt", "victim.ckpt"]


def test_stages_hold_only_the_dataset_arrays_they_use(tmp_path, monkeypatch):
    # train_victim and evaluate check the whole of dataset.npz, then keep
    # only their split. The memory traced since the stage began, read when
    # train_victim is entered and when evaluate scores its first variant,
    # must not grow with the unrelated pool, which neither stage uses
    readings = {}

    def reading(stage, fn):
        def wrapped(*args, **kwargs):
            readings.setdefault(stage, tracemalloc.get_traced_memory()[0])
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(experiment, "train_victim", reading("train_victim", experiment.train_victim))
    monkeypatch.setattr(experiment, "make_report", reading("evaluate", experiment.make_report))

    def held(pool: int) -> dict:
        readings.clear()
        cfg = load_config(TOY_CFG, dict(TINY, **{"unrelated.n": str(pool)}))
        run_dir = tmp_path / str(pool)
        for stage in experiment.STAGE_ORDER:
            traced = stage in ("train_victim", "evaluate")
            if traced:
                tracemalloc.start()
            try:
                run_stage(stage, cfg, run_dir)
            finally:
                if traced:
                    tracemalloc.stop()
        return dict(readings)

    small, large = held(600), held(6000)
    pool_bytes = 6000 * 16 * 8  # TINY's rows are 16 wide
    for stage in ("train_victim", "evaluate"):
        moved = large[stage] - small[stage]
        assert abs(moved) < pool_bytes / 4, f"{stage} holds {moved} more bytes"


def queries_npz(**changes) -> bytes:
    """A small queries.npz in the declared layout, with each member of
    `changes` replaced, added or, when None, left out."""
    arrays = {
        "calib_probs": np.full((3, 2), 0.5),
        "calib_runtimes": np.arange(3.0),
        "query_x": np.zeros((2, 4)),
        "query_probs": np.full((2, 2), 0.5),
        "query_runtimes": np.arange(2.0),
        "query_is_iid": np.ones(2, dtype=bool),
    }
    arrays.update(changes)
    buf = io.BytesIO()
    np.savez(buf, **{k: v for k, v in arrays.items() if v is not None})
    return buf.getvalue()


def npy_bytes(array) -> bytes:
    """`array` as np.save writes it: a plain .npy file, not an archive."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def damage_member(content: bytes, member: str) -> bytes:
    """`content`, an uncompressed zip as np.savez writes it, with the last
    data byte of `member` flipped: the zip still opens, and reading that
    member fails its CRC check."""
    info = zipfile.ZipFile(io.BytesIO(content)).getinfo(member)
    assert info.compress_type == zipfile.ZIP_STORED and info.compress_size > 0
    at = info.header_offset  # the local header: 30 bytes, the name, the extra field
    name_len, extra_len = struct.unpack("<HH", content[at + 26 : at + 30])
    damaged = bytearray(content)
    damaged[at + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
    return bytes(damaged)


@pytest.mark.parametrize(
    "content, message",
    [
        (queries_npz(calib_runtimes=None), " lacks 'calib_runtimes'"),
        (queries_npz(extra=np.zeros(1)), " has undeclared 'extra'"),
        (queries_npz(calib_runtimes=np.arange(3)), " 'calib_runtimes' must be kind 'f'"),
        (
            queries_npz(calib_runtimes=np.zeros((3, 1))),
            r" 'calib_runtimes' .* got float64 of rank 2",
        ),
        (
            damage_member(queries_npz(), "calib_runtimes.npy"),
            ": Bad CRC-32 for file 'calib_runtimes.npy'",
        ),
        (npy_bytes(np.arange(3.0)), ": not an .npz archive"),
    ],
    ids=["missing", "undeclared", "int_dtype", "rank_2", "crc", "not_an_archive"],
)
def test_damaged_queries_is_a_format_error(tmp_path, content, message):
    (tmp_path / "queries.npz").write_bytes(content)
    with pytest.raises(FormatError, match=re.escape(str(tmp_path / "queries.npz")) + message):
        run_stage("estimate_exits", load_config(TOY_CFG, TINY), tmp_path)


@pytest.mark.parametrize(
    "name, text, stage, message",
    [
        ("changepoints.json", "{}", "train_substitute", "lacks 'boundaries'"),
        ("changepoints.json", "[]", "train_substitute", "lacks 'boundaries'"),
        (
            "changepoints.json",
            json.dumps(dict(CHANGEPOINTS, exit_count=True)),
            "train_substitute",
            "'exit_count' must be int, got True",
        ),
        (
            "changepoints.json",
            json.dumps(dict(CHANGEPOINTS, extra=1)),
            "train_baseline",
            "has undeclared 'extra'",
        ),
        ("status.json", "not json", "dataset", ": Expecting value"),
        (
            "status.json",
            json.dumps({"config_sha256": 1, "stages": {}}),
            "dataset",
            " 'config_sha256' must be str, got 1",
        ),
        ("status.json", json.dumps({"config_sha256": "x"}), "dataset", " lacks 'stages'"),
        (
            "status.json",
            json.dumps({"config_sha256": "x", "stages": {"query": "done"}}),
            "query",
            r" 'stages' must be dict\[str, dict\], got \{'query': 'done'\}",
        ),
        (
            "deployment.json",
            json.dumps(dict(DEPLOYMENT, block_costs=["a", 1.0])),
            "query",
            r" 'block_costs' must be list\[float\], got \['a', 1.0\]",
        ),
        (
            "strategy_ours.json",
            json.dumps({"thresholds": ["x"], "fallback": False, "agreement": 1.0}),
            "evaluate",
            r" 'thresholds' must be list\[float\], got \['x'\]",
        ),
    ],
    ids=["empty", "list", "bool_count", "undeclared", "status_not_json", "status_hash",
         "status_no_stages", "status_stage_not_a_dict", "block_cost_not_a_number",
         "threshold_not_a_number"],
)
def test_damaged_json_is_a_format_error(tmp_path, name, text, stage, message):
    cfg = load_config(TOY_CFG, TINY)
    if stage == "evaluate":
        run_stages_before(stage, cfg, tmp_path)  # it opens every checkpoint first
    (tmp_path / name).write_text(text)
    with pytest.raises(FormatError, match=re.escape(str(tmp_path / name)) + ".*" + message):
        run_stage(stage, cfg, tmp_path)


def _valid_report() -> dict:
    return json.loads(EvalReport(0.5, 0.25, 10, 1e-8, 1.0, (1, 2), 4).to_json())


def write_valid_reports(run_dir) -> None:
    """A valid report_<name>.json for every variant."""
    for name in experiment.VARIANTS:
        (run_dir / f"report_{name}.json").write_text(json.dumps(_valid_report()))


@pytest.mark.parametrize(
    "damage", ["not_json", "no_clo", "unknown_field", "not_an_object", "clo_not_a_number"]
)
def test_damaged_report_is_a_format_error(tmp_path, damage):
    report = _valid_report()
    text = {
        "not_json": "not json",
        "no_clo": json.dumps({k: v for k, v in report.items() if k != "clo"}),
        "unknown_field": json.dumps(dict(report, extra=1)),
        "not_an_object": json.dumps([report]),
        "clo_not_a_number": json.dumps(dict(report, clo="x")),
    }[damage]
    write_valid_reports(tmp_path)
    (tmp_path / "report_ours.json").write_text(text)
    with pytest.raises(FormatError, match=re.escape(str(tmp_path / "report_ours.json"))):
        experiment.load_reports(tmp_path)


def test_load_reports_requires_every_variant(tmp_path):
    write_valid_reports(tmp_path)
    reports = experiment.load_reports(tmp_path)
    assert list(reports) == list(experiment.VARIANTS)
    assert reports["victim"] == EvalReport(**_valid_report())
    for name in experiment.VARIANTS:
        path = tmp_path / f"report_{name}.json"
        text = path.read_text()
        path.unlink()
        with pytest.raises(ContractError) as err:
            experiment.load_reports(tmp_path)
        assert str(err.value) == f"missing artifact {path}; run 'exitsteal evaluate' first"
        path.write_text(text)


def test_strategy_json_shape():
    strategy = OutputStrategy((0.9, 0.8))
    frag = experiment._strategy_json(strategy, agreement=0.75)
    assert frag == {"thresholds": [0.9, 0.8], "agreement": 0.75, "fallback": False}
    assert experiment._strategy(frag) == strategy
    frag = experiment._strategy_json(OutputStrategy.never_early(2, fallback=True), agreement=0.0)
    assert frag["fallback"] is True and frag["thresholds"] == [SENTINEL]


def tiny_values() -> dict[str, str]:
    with open(TOY_CFG) as fh:
        return dict(parse_config_text(fh.read()), **TINY)


def assert_grid_rows(root, results, axes) -> None:
    """grid.csv is each point's reports.csv, its rows led by the point's
    values, in run order; each point's reports are those in its directory."""
    lines = (root / "grid.csv").read_text().splitlines()
    assert lines[0] == ",".join(list(axes) + ["model", "acc", "clo", "cc_gflops", "cc_ratio"])
    want = []
    for point, reports in results:
        subdir = root / "_".join(f"{key}={raw}" for key, raw in point.items())
        assert reports == experiment.load_reports(subdir)
        assert list(reports) == list(experiment.VARIANTS)
        for row in (subdir / "reports.csv").read_text().splitlines()[1:]:
            want.append(",".join(list(point.values()) + [row]))
    assert lines[1:] == want


@pytest.mark.parametrize(
    "key, settings",
    [("attack.lambda", [0.0, 0.5]), ("victim.exits", [2, 3])],
    ids=["lambda", "exits"],
)
def test_grid_runs_one_experiment_per_setting(tmp_path, key, settings):
    results = run_grid(tiny_values(), {key: settings}, tmp_path)
    assert [point for point, _ in results] == [{key: str(s)} for s in settings]
    subdirs = [f"{key}={setting}" for setting in settings]
    assert sorted(os.listdir(tmp_path)) == sorted(subdirs + ["grid.csv"])
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert len(lines) == 1 + len(settings) * len(experiment.VARIANTS)
    assert_grid_rows(tmp_path, results, [key])


def test_seed_by_lambda_grid_expands_seeds_and_resumes(tmp_path, monkeypatch):
    axes = {"seed": [1, 2], "attack.lambda": ["0.0", "0.5"]}
    results = run_grid(tiny_values(), axes, tmp_path)
    points = [point for point, _ in results]
    assert points == [
        {"seed": s, "attack.lambda": lam} for s in ("1", "2") for lam in ("0.0", "0.5")
    ]
    for point in points:
        subdir = tmp_path / f"seed={point['seed']}_attack.lambda={point['attack.lambda']}"
        resolved = parse_config_text((subdir / "config.resolved.cfg").read_text())
        want = dict(seed_overrides(int(point["seed"])), **{"attack.lambda": point["attack.lambda"]})
        assert {key: resolved[key] for key in want} == want
    assert_grid_rows(tmp_path, results, axes)
    # an axis over one seed stream overrides that stream of the expansion
    point = experiment._point_values({"seed.noise": "9", "seed": "1"})
    assert point == dict(seed_overrides(1), **{"seed.noise": "9"})

    # every point is done, so a second call runs no stage and writes the
    # same grid.csv again
    grid = (tmp_path / "grid.csv").read_bytes()
    (tmp_path / "grid.csv").unlink()
    ran = record_stage_runs(monkeypatch)
    assert run_grid(tiny_values(), axes, tmp_path) == results
    assert ran == []
    assert (tmp_path / "grid.csv").read_bytes() == grid


def test_grid_quotes_a_value_with_commas(tmp_path):
    results = run_grid(tiny_values(), {"attack.widths": ["12,12,12"]}, tmp_path)
    with open(tmp_path / "grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["attack.widths", "model"]
    assert [row[:2] for row in rows[1:]] == [["12,12,12", name] for name in results[0][1]]


def test_failing_grid_point_is_named(tmp_path):
    # at noise/gap 50 the timing channel separates no exits
    axes = {"timing.noise_over_gap": ["0.1", "50"]}
    with pytest.raises(ContractError) as err:
        run_grid(tiny_values(), axes, tmp_path)
    assert str(err.value).startswith(
        "grid point timing.noise_over_gap=50: changepoint detection estimated 1 exit: "
    )
    assert (tmp_path / "timing.noise_over_gap=0.1" / "reports.csv").exists()


@pytest.mark.parametrize(
    "axes, message",
    [
        ({}, "at least one axis"),
        ({"attack.lambda": []}, "'attack.lambda' needs distinct values"),
        ({"attack.lambda": [0.5, "0.5"]}, "'attack.lambda' needs distinct values"),
        ({"dataset.idx_train_images": ["../x.idx"]}, "a value with '/' would leave"),
        ({"attack.lambda": [0.5, -1]}, "attack.lambda must be >= 0"),
        ({"seed": [1, "x"]}, "'seed' takes master seeds >= 0"),
        # with ten retired keys, which a config may no longer set
        (
            {"attack.lambda": [0.5], "no.such_key": [1], "experiment.ablations": ["true"],
             "attack.baseline_arch": ["victim"], "timing.noise_sigma": ["0.1"],
             "victim.momentum": ["0.5"], "dataset.idx_duplicate_channels": ["true"],
             "victim.channels": ["8,16"], "attack.channels": ["8,16"],
             "attack.warm_start": ["warm.ckpt"], "victim.activation": ["relu"],
             "attack.activation": ["relu"]},
            "unknown config keys: attack.activation, attack.baseline_arch, attack.channels, "
            "attack.warm_start, dataset.idx_duplicate_channels, experiment.ablations, "
            "no.such_key, timing.noise_sigma, victim.activation, victim.channels, "
            "victim.momentum$",
        ),
    ],
    ids=["no_axes", "empty_axis", "repeated_value", "slash", "bad_later_value",
         "bad_seed", "unknown_key"],
)
def test_grid_refuses_bad_axes_before_making_a_directory(tmp_path, axes, message):
    with pytest.raises(ContractError, match=message):
        run_grid(tiny_values(), axes, tmp_path / "grid")
    assert not (tmp_path / "grid").exists()
