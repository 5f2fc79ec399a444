"""The staged experiment pipeline.

Each stage reads artifacts from the run directory, writes its own, and is
recorded in status.json with a wall time. ARTIFACTS declares every file of
the directory once: the stage that writes it and its fields. Every artifact
is opened by `_read`, so a missing input is found when the stage reads it
and names the command that makes it, and a damaged one is a FormatError
naming its path and, when the file parses, the field at fault. A .npz
archive is read whole and each of its arrays checked before a stage sees
any of them, so a damaged member fails in `_read` too; the stage then
keeps only the members it uses (`_members`). Re-running skips
stages whose outputs already exist, so an interrupted run resumes where it
stopped. The status file pins the config hash; running a different
config against the same directory is refused rather than silently mixing
artifacts.

Every run trains two substitutes, sub_ours.ckpt (performance + strategy
loss) and sub_baseline.ckpt (soft labels only), on the attacker's
architecture, and scores five variants (VARIANTS): the victim, and each
substitute under searched and under traditional thresholds.

The experiment grid, `run_grid`, is the one entry point of a multi-run study: a
resumable `run_experiment` per point of the product of its axes (config
keys, and `seed` for master seeds expanded as --seed does), and grid.csv
with one row per point and variant, written by `_write_csv` like reports.csv.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
import zipfile
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from ..attack import (
    AttackConfig,
    RecordBatch,
    build_query_set,
    train_baseline,
    train_substitute,
    write_loss_trace,
)
from ..changepoint import K_MAX, assign_exits, detect_changepoints
from ..errors import BudgetError, ContractError, FormatError
from ..metrics import CSV_COLUMNS, EvalReport, make_report
from ..multiexit import (
    BackboneSpec,
    MultiExitNet,
    OutputStrategy,
    build_evenly_partitioned,
    cascade,
    feature_dims,
    json_field,
    load_checkpoint,
    save_checkpoint,
)
from ..search import build_calibration_points, evaluate_strategy, search_strategy
from ..victimlab import (
    TimingModel,
    VictimDeployment,
    exit_base_times,
    query_timed_many,
    select_traditional_strategy,
    train_victim,
)
from .config import ExperimentConfig, NetCfg, build_config, seed_overrides
from .datasets import (
    generate_tiered_dataset,
    generate_unrelated_blobs,
    generate_unrelated_uniform,
    load_idx_dataset,
)

STATUS_FILE = "status.json"
CONFIG_FILE = "config.resolved.cfg"


class Variant(NamedTuple):
    checkpoint: str  # the network scored: the victim or one of the two substitutes
    # how its thresholds are picked: "deployed" (the victim's own, in
    # deployment.json), "searched" or "traditional" (strategy_<name>.json)
    strategy: str


# the scored models, in the row order of reports.csv: the victim, and each
# substitute under both kinds of threshold, so every run scores all five
VARIANTS = {
    "victim": Variant("victim.ckpt", "deployed"),
    "baseline": Variant("sub_baseline.ckpt", "traditional"),
    "ours": Variant("sub_ours.ckpt", "searched"),
    "no_strategy_loss": Variant("sub_baseline.ckpt", "searched"),
    "no_search": Variant("sub_ours.ckpt", "traditional"),
}


class Artifact(NamedTuple):
    stage: str | None  # the stage that writes it; None: the stage driver
    fields: dict = {}  # .npz: array -> (dtype kind, ranks); .json: key -> type


_INPUTS, _PROBS = ("f", (2, 4)), ("f", (2,))  # (n, d) or (n, C, H, W); (n, classes)
_INTS, _FLOATS = ("i", (1,)), ("f", (1,))
_STRATEGY = {"thresholds": list[float], "fallback": bool}  # as `_strategy_json` writes it
_REPORT = get_type_hints(EvalReport)  # EvalReport's fields, each tuple[T, ...] a list[T] in JSON
_REPORT |= {k: list[get_args(t)[0]] for k, t in _REPORT.items() if get_origin(t) is tuple}

# every file of a run directory
ARTIFACTS = {
    CONFIG_FILE: Artifact(None),  # canonical effective config (the hash source)
    STATUS_FILE: Artifact(None, {"config_sha256": str, "stages": dict[str, dict]}),
    "dataset.npz": Artifact(
        "dataset",
        {f"{s}_x": _INPUTS for s in ("train", "calib", "test", "iid", "unrelated")}
        | {f"{s}_y": _INTS for s in ("train", "calib", "test", "iid")}
        | {"train_tier": _INTS},
    ),
    "victim.ckpt": Artifact("train_victim"),
    "deployment.json": Artifact(
        "deploy",
        {
            **_STRATEGY,
            "tau": float | None,  # None: selected by select_traditional_strategy
            "block_costs": list[float],
            "head_costs": list[float],
            "noise_sigma": float,
            "timing_seed": int,
            "per_flop": float,
        },
    ),
    "queries.npz": Artifact(
        "query",
        {
            "calib_probs": _PROBS,
            "calib_runtimes": _FLOATS,
            "query_x": _INPUTS,
            "query_probs": _PROBS,
            "query_runtimes": _FLOATS,
            "query_is_iid": ("b", (1,)),
        },
    ),
    "changepoints.json": Artifact(
        "estimate_exits", {"boundaries": list[float], "log_posterior": float, "exit_count": int}
    ),
    "labels.npz": Artifact("estimate_exits", {"query_exits": _INTS, "calib_exits": _INTS}),
    "sub_ours.ckpt": Artifact("train_substitute"),  # trained with the strategy loss
    "trace_ours.csv": Artifact("train_substitute"),  # per-epoch losses
    "sub_baseline.ckpt": Artifact("train_baseline"),  # trained on soft labels only
    "trace_baseline.csv": Artifact("train_baseline"),
    **{
        f"strategy_{name}.json": Artifact(f"search_{v.strategy}", {**_STRATEGY, "agreement": float})
        for name, v in VARIANTS.items()
        if v.strategy != "deployed"
    },
    **{f"report_{name}.json": Artifact("evaluate", _REPORT) for name in VARIANTS},
    "reports.csv": Artifact("evaluate"),  # one row per variant
}


def _strategy_file(name: str) -> str:
    return "deployment.json" if VARIANTS[name].strategy == "deployed" else f"strategy_{name}.json"


def _strategy(spec: dict) -> OutputStrategy:
    """The strategy recorded in deployment.json or a strategy_<name>.json."""
    return OutputStrategy(tuple(spec["thresholds"]), fallback=spec["fallback"])


def _strategy_json(strategy: OutputStrategy, **fields) -> dict:
    """`fields` plus the ones that record `strategy`, which `_strategy` reads
    back: the JSON layout of deployment.json and strategy_<name>.json."""
    thresholds = [float(t) for t in strategy.thresholds]
    return {"thresholds": thresholds, "fallback": bool(strategy.fallback), **fields}


def _path(run_dir, name: str) -> str:
    return os.path.join(run_dir, name)


def _write_text(path, text: str) -> None:
    """Write to <path>.tmp, then rename it into place."""
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def _write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path, lead: tuple[str, ...], rows) -> None:
    """A header of the `lead` columns and CSV_COLUMNS, then one line per
    (lead values, report) of `rows`; a value holding a comma is quoted."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(lead + CSV_COLUMNS)
        out.writerows(values + tuple(report.csv_row()) for values, report in rows)


def _check_names(path, names, fields) -> None:
    """FormatError unless `names` are exactly the declared `fields`."""
    odd = sorted(set(names) ^ set(fields))
    if odd:
        raise FormatError(f"{path} {'lacks' if odd[0] in fields else 'has undeclared'} {odd[0]!r}")


def _read(run_dir, name: str):
    """The run artifact `name`: a .ckpt as its net, a .npz as a dict of its
    arrays, a .json parsed. A missing file raises ContractError naming the
    command that makes it; one that cannot be parsed, including a damaged
    archive member, or whose fields are not those ARTIFACTS declares, raises
    FormatError naming its path. A stage that uses some of an archive's
    members takes them through `_members`, which drops the rest."""
    path = _path(run_dir, name)
    artifact = ARTIFACTS[name]
    if not os.path.exists(path):
        command = STAGES[artifact.stage].command
        raise ContractError(f"missing artifact {path}; run 'exitsteal {command}' first")
    try:
        if name.endswith(".ckpt"):
            return load_checkpoint(path)
        if name.endswith(".npz"):
            archive = np.load(path)  # a plain .npy file loads as one ndarray
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with archive:
                content = {key: archive[key] for key in archive.files}
        else:
            with open(path) as fh:
                content = json.load(fh)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if name.endswith(".npz"):
        _check_names(path, content, artifact.fields)
        for key, array in content.items():
            kind, ranks = artifact.fields[key]
            if array.dtype.kind != kind or array.ndim not in ranks:
                got = f"got {array.dtype} of rank {array.ndim}"
                raise FormatError(f"{path} {key!r} must be kind {kind!r}, rank in {ranks}; {got}")
        return content
    for key, kind in artifact.fields.items():
        json_field(content, key, kind, path)
    _check_names(path, content, artifact.fields)
    return content


def _members(run_dir, name: str, *keys: str) -> tuple:
    """The arrays `keys` of the archive `name`, in that order. `_read`
    reads and checks the whole archive; a stage keeps only the members it
    uses, so it does not hold the others while it works."""
    content = _read(run_dir, name)
    return tuple(content[key] for key in keys)


def _load_status(run_dir, cfg: ExperimentConfig) -> dict:
    if not os.path.exists(_path(run_dir, STATUS_FILE)):
        return {"config_sha256": cfg.sha256, "stages": {}}
    status = _read(run_dir, STATUS_FILE)
    if status["config_sha256"] != cfg.sha256:
        raise ContractError(
            f"run directory {run_dir} was produced by a different config "
            f"(hash {status['config_sha256']!r} vs {cfg.sha256!r}); "
            "use a fresh --out"
        )
    return status


# ---------------------------------------------------------------------------
# networks from config


def _backbone(kind: str, net_cfg: NetCfg, sample: np.ndarray) -> tuple[BackboneSpec, tuple | None]:
    """The `kind` backbone `net_cfg` builds on inputs shaped like `sample`,
    and their (h, w) for a conv one."""
    if kind == "dense":
        widths = (int(sample.shape[-1]),) + net_cfg.widths
        return BackboneSpec.dense(widths, activation=net_cfg.activation), None
    channels, height, width = (int(n) for n in sample.shape[-3:])
    spec = BackboneSpec.conv(
        (channels,) + net_cfg.widths,
        kernel=net_cfg.kernel,
        stride=net_cfg.stride,
        activation=net_cfg.activation,
    )
    return spec, (height, width)


def _build_net(
    kind: str, net_cfg: NetCfg, exit_count: int, class_count: int, seed: int, sample: np.ndarray
) -> MultiExitNet:
    spec, input_hw = _backbone(kind, net_cfg, sample)
    return build_evenly_partitioned(spec, exit_count, class_count, seed, input_hw=input_hw)


# ---------------------------------------------------------------------------
# stages


def _stage_dataset(cfg: ExperimentConfig, run_dir) -> None:
    d, u, s = cfg.dataset, cfg.unrelated, cfg.seed
    if d.kind == "tiered":
        total = d.n_train + d.n_calibration + d.n_test + d.n_iid_pool
        ds = generate_tiered_dataset(
            class_count=d.classes,
            noise_schedule=d.noise,
            sample_count=total,
            seed=s.dataset,
            dim=d.dim,
            center_scale=d.center_scale,
        )
        x, y, tiers = ds.inputs, ds.labels, ds.tiers
    else:
        (train_x, train_y), (test_x, test_y) = (
            load_idx_dataset(images, labels)
            for images, labels in (
                (d.idx_train_images, d.idx_train_labels),
                (d.idx_test_images, d.idx_test_labels),
            )
        )
        need = d.n_train + d.n_calibration + d.n_iid_pool
        if train_x.shape[0] < need:
            raise ContractError(
                f"idx training set has {train_x.shape[0]} samples, need {need}"
            )
        if test_x.shape[0] < d.n_test:
            raise ContractError(
                f"idx test set has {test_x.shape[0]} samples, need {d.n_test}"
            )
        if cfg.victim.backbone == "dense":
            train_x = train_x.reshape(train_x.shape[0], -1)
            test_x = test_x.reshape(test_x.shape[0], -1)
        else:
            train_x = train_x[:, None]
            test_x = test_x[:, None]
        for section in ("victim", "attack"):
            spec, hw = _backbone(cfg.victim.backbone, getattr(cfg, section).net, train_x[:1])
            try:
                feature_dims(spec, hw)
            except ContractError as exc:
                keys = f"{section}.kernel, {section}.stride and {section}.widths"
                raise ContractError(f"{keys} shrink {hw[0]}x{hw[1]} images below 1x1") from exc
        # [train | calibration | test | iid pool], as sliced below
        fit = d.n_train + d.n_calibration
        x = np.concatenate([train_x[:fit], test_x[: d.n_test], train_x[fit:need]])
        y = np.concatenate([train_y[:fit], test_y[: d.n_test], train_y[fit:need]])
        tiers = np.ones(x.shape[0], dtype=np.int64)
        if y.max() >= d.classes:
            raise ContractError(f"idx labels reach {y.max()}, past dataset.classes = {d.classes}")

    b, c, e, f = np.cumsum([d.n_train, d.n_calibration, d.n_test, d.n_iid_pool])
    if u.kind == "blobs":
        if x.ndim != 2:
            raise ContractError("unrelated.kind = blobs requires flat inputs")
        unrelated = generate_unrelated_blobs(
            class_count=u.classes,
            noise=u.noise,
            sample_count=u.n,
            seed=s.dataset + 1,
            dim=x.shape[-1],
            center_scale=d.center_scale,
        )
    else:
        # drawn flat and reshaped: the same stream as a draw in the inputs' shape
        unrelated = generate_unrelated_uniform(
            u.low, u.high, u.n, s.dataset + 1, dim=int(np.prod(x.shape[1:]))
        ).reshape((u.n,) + x.shape[1:])

    np.savez(
        _path(run_dir, "dataset.npz"),
        train_x=x[:b],
        train_y=y[:b],
        train_tier=tiers[:b],
        calib_x=x[b:c],
        calib_y=y[b:c],
        test_x=x[c:e],
        test_y=y[c:e],
        iid_x=x[e:f],
        iid_y=y[e:f],
        unrelated_x=unrelated,
    )


def _stage_train_victim(cfg: ExperimentConfig, run_dir) -> None:
    train_x, train_y = _members(run_dir, "dataset.npz", "train_x", "train_y")
    v = cfg.victim
    net = _build_net(
        v.backbone, v.net, v.exits, cfg.dataset.classes, cfg.seed.victim, train_x[:1]
    )
    train_victim(
        net,
        train_x,
        train_y,
        epochs=v.epochs,
        lr=v.lr,
        seed=cfg.seed.shuffle,
        batch_size=v.batch_size,
    )
    save_checkpoint(net, _path(run_dir, "victim.ckpt"))


def _stage_deploy(cfg: ExperimentConfig, run_dir) -> None:
    net = _read(run_dir, "victim.ckpt")
    v, t = cfg.victim, cfg.timing
    if v.tau is not None:
        strategy = OutputStrategy.uniform(v.tau, net.exit_count)
    else:
        train_x, train_y = _members(run_dir, "dataset.npz", "train_x", "train_y")
        strategy = select_traditional_strategy(net, train_x, train_y, accuracy_slack=v.tau_slack)
    quiet = TimingModel.proportional(net, t.per_flop, 0.0, cfg.seed.noise)
    sigma = float(t.noise_over_gap * np.diff(exit_base_times(net, quiet)).min())
    timing = TimingModel(quiet.block_costs, quiet.head_costs, sigma, cfg.seed.noise)
    _write_json(
        _path(run_dir, "deployment.json"),
        _strategy_json(
            strategy,
            tau=v.tau,
            block_costs=[float(x) for x in timing.block_costs],
            head_costs=[float(x) for x in timing.head_costs],
            noise_sigma=sigma,
            timing_seed=cfg.seed.noise,
            per_flop=t.per_flop,
        ),
    )


def _load_deployment(run_dir, net: MultiExitNet | None = None) -> VictimDeployment:
    """The deployed victim: deployment.json, on `net` or else on victim.ckpt."""
    spec = _read(run_dir, "deployment.json")
    if net is None:
        net = _read(run_dir, "victim.ckpt")
    timing = TimingModel(
        spec["block_costs"], spec["head_costs"], spec["noise_sigma"], spec["timing_seed"]
    )
    return VictimDeployment(net, _strategy(spec), timing)


def _stage_query(cfg: ExperimentConfig, run_dir) -> None:
    dep = _load_deployment(run_dir)
    calib_x, iid_x, unrelated_x = _members(
        run_dir, "dataset.npz", "calib_x", "iid_x", "unrelated_x"
    )
    qs = build_query_set(
        iid_x,
        unrelated_x,
        cfg.attack.n_iid,
        cfg.attack.n_unrelated,
        seed=cfg.seed.shuffle + 2,
    )
    # calibration probes first, then the query set: one continuous noise
    # stream, in that order
    calib_probs, calib_runtimes = query_timed_many(dep, calib_x)
    query_probs, query_runtimes = query_timed_many(dep, qs.inputs)
    np.savez(
        _path(run_dir, "queries.npz"),
        calib_probs=calib_probs,
        calib_runtimes=calib_runtimes,
        query_x=qs.inputs,
        query_probs=query_probs,
        query_runtimes=query_runtimes,
        query_is_iid=qs.is_iid,
    )


def _stage_estimate_exits(cfg: ExperimentConfig, run_dir) -> None:
    calib_runtimes, query_runtimes = _members(
        run_dir, "queries.npz", "calib_runtimes", "query_runtimes"
    )
    result = detect_changepoints(calib_runtimes)
    _write_json(
        _path(run_dir, "changepoints.json"),
        {
            "boundaries": [float(b) for b in result.boundaries],
            "log_posterior": float(result.log_posterior),
            "exit_count": result.exit_count,
        },
    )
    np.savez(
        _path(run_dir, "labels.npz"),
        query_exits=assign_exits(query_runtimes, result),
        calib_exits=assign_exits(calib_runtimes, result),
    )


def _train(cfg: ExperimentConfig, run_dir, trainer, name: str) -> None:
    """Train a substitute with `trainer` on the answered queries and their
    estimated exit labels, and write sub_<name>.ckpt and trace_<name>.csv.
    The net is built from attack.* with the K-hat exits that
    changepoints.json records."""
    exit_count = _read(run_dir, "changepoints.json")["exit_count"]
    if exit_count < 2:
        raise ContractError(
            f"changepoint detection estimated {exit_count} exit: the timing "
            "channel did not separate any exits, so there are no exit labels "
            "to train a multi-exit substitute on"
        )
    if exit_count > K_MAX:
        raise ContractError(
            f"changepoint detection estimated {exit_count} exits, reaching its "
            f"cap of {K_MAX + 1}: the timing channel over-segments"
        )
    a = cfg.attack
    blocks = len(a.net.widths)
    if exit_count > blocks:
        raise ContractError(
            f"estimated {exit_count} exits but the substitute backbone has "
            f"only {blocks} blocks; lengthen attack.widths"
        )
    query_x, query_probs = _members(run_dir, "queries.npz", "query_x", "query_probs")
    batch = RecordBatch(query_x, query_probs, _read(run_dir, "labels.npz")["query_exits"])
    # the attacker sees the victim's class count only in its answers
    classes = batch.victim_probs.shape[1]
    net = _build_net(
        cfg.victim.backbone, a.net, exit_count, classes, cfg.seed.attacker, batch.inputs[:1]
    )
    config = AttackConfig(
        phi1=a.phi1,
        phi2=a.phi2,
        lambda_strategy=a.lam,
        epochs=a.epochs,
        lr=a.lr,
        batch_size=a.batch_size,
        seed=cfg.seed.shuffle + 1,
    )
    net, trace = trainer(net, batch, config)
    save_checkpoint(net, _path(run_dir, f"sub_{name}.ckpt"))
    write_loss_trace(trace, _path(run_dir, f"trace_{name}.csv"))


def _stage_train_substitute(cfg: ExperimentConfig, run_dir) -> None:
    _train(cfg, run_dir, train_substitute, "ours")  # performance + strategy loss


def _stage_train_baseline(cfg: ExperimentConfig, run_dir) -> None:
    _train(cfg, run_dir, train_baseline, "baseline")  # soft labels only


def _calibration_targets(run_dir):
    (calib_x,) = _members(run_dir, "dataset.npz", "calib_x")
    return calib_x, _read(run_dir, "labels.npz")["calib_exits"]


def _nets(run_dir, strategy: str | None = None) -> dict[str, MultiExitNet]:
    """The net of each variant; with `strategy`, of each whose thresholds it
    picks. Each checkpoint is read once, in VARIANTS order, and variants on
    the same checkpoint share its net."""
    names = [name for name, v in VARIANTS.items() if strategy in (None, v.strategy)]
    loaded = {}
    for name in names:
        checkpoint = VARIANTS[name].checkpoint
        if checkpoint not in loaded:
            loaded[checkpoint] = _read(run_dir, checkpoint)
    return {name: loaded[VARIANTS[name].checkpoint] for name in names}


def _stage_search_searched(cfg: ExperimentConfig, run_dir) -> None:
    nets = _nets(run_dir, "searched")
    calib_x, calib_exits = _calibration_targets(run_dir)
    # the branch-and-bound walk visits far fewer branches than the candidate
    # product, but both grow with the probe count and the walk is capped
    # (search.BRANCH_CAP), so it can be run on a prefix of the calibration
    # probes; 0 means use them all
    n = cfg.attack.n_search or len(calib_x)
    calib_x, calib_exits = calib_x[:n], calib_exits[:n]
    for name, net in nets.items():
        strategy, agreement = search_strategy(
            *build_calibration_points(net, calib_x, calib_exits)
        )
        fields = _strategy_json(strategy, agreement=float(agreement))
        _write_json(_path(run_dir, _strategy_file(name)), fields)


def _stage_search_traditional(cfg: ExperimentConfig, run_dir) -> None:
    nets = _nets(run_dir, "traditional")
    # the attacker has no labels for its calibration probes; it uses the
    # victim's answers (pseudo-labels) for the conventional selection
    calib_x, calib_exits = _calibration_targets(run_dir)
    pseudo = _read(run_dir, "queries.npz")["calib_probs"].argmax(axis=1)
    for name, net in nets.items():
        strategy = select_traditional_strategy(
            net, calib_x, pseudo, accuracy_slack=cfg.attack.delta
        )
        agreement = evaluate_strategy(
            *build_calibration_points(net, calib_x, calib_exits), strategy
        )
        fields = _strategy_json(strategy, agreement=float(agreement))
        _write_json(_path(run_dir, _strategy_file(name)), fields)


def _stage_evaluate(cfg: ExperimentConfig, run_dir) -> None:
    nets = _nets(run_dir)
    strategies = {name: _strategy(_read(run_dir, _strategy_file(name))) for name in nets}
    # the victim row is scored on the deployment's frozen copy, the one
    # victim net this stage holds
    dep = _load_deployment(run_dir, nets["victim"])
    nets["victim"] = dep.net
    test_x, test_y = _members(run_dir, "dataset.npz", "test_x", "test_y")
    victim = cascade(dep.net, test_x, dep.strategy)
    rows = [
        ((name,), make_report(net, strategies[name], test_x, test_y, victim))
        for name, net in nets.items()
    ]
    for (name,), report in rows:
        _write_text(_path(run_dir, f"report_{name}.json"), report.to_json())
    _write_csv(_path(run_dir, "reports.csv"), ("model",), rows)


# ---------------------------------------------------------------------------
# stage registry and drivers


class Stage(NamedTuple):
    run: Callable[[ExperimentConfig, str], None]
    command: str  # the CLI command that runs it


# the pipeline, in run order; ARTIFACTS names what each stage writes
STAGES = {
    "dataset": Stage(_stage_dataset, "train-victim"),
    "train_victim": Stage(_stage_train_victim, "train-victim"),
    "deploy": Stage(_stage_deploy, "deploy"),
    "query": Stage(_stage_query, "query"),
    "estimate_exits": Stage(_stage_estimate_exits, "estimate-exits"),
    "train_substitute": Stage(_stage_train_substitute, "train-substitute"),
    "train_baseline": Stage(_stage_train_baseline, "train-substitute"),
    "search_searched": Stage(_stage_search_searched, "search-strategy"),
    "search_traditional": Stage(_stage_search_traditional, "search-strategy"),
    "evaluate": Stage(_stage_evaluate, "evaluate"),
}

STAGE_ORDER = tuple(STAGES)


def _stage_done(name: str, run_dir, status: dict) -> bool:
    outputs = [out for out, artifact in ARTIFACTS.items() if artifact.stage == name]
    done = status["stages"].get(name, {}).get("state") == "done"
    return done and all(os.path.exists(_path(run_dir, out)) for out in outputs)


def run_stage(name: str, cfg: ExperimentConfig, run_dir) -> bool:
    """Run one stage if its outputs are missing. An input is found missing
    when the stage reads it: that raises ContractError naming the command
    that makes it, and the stage is recorded as failed. Returns True when
    the stage ran, False when it was skipped."""
    if name not in STAGES:
        raise ContractError(f"unknown stage {name!r}")
    os.makedirs(run_dir, exist_ok=True)
    status = _load_status(run_dir, cfg)
    # until status.json pins the config's hash, a config file left by an
    # interrupted run may hold another config's text
    if not all(os.path.exists(_path(run_dir, f)) for f in (STATUS_FILE, CONFIG_FILE)):
        _write_text(_path(run_dir, CONFIG_FILE), cfg.canonical_text)
    if _stage_done(name, run_dir, status):
        return False
    t0 = time.perf_counter()
    try:
        STAGES[name].run(cfg, run_dir)
    except Exception as exc:
        status["stages"][name] = {"state": "failed", "error": str(exc)}
        _write_json(_path(run_dir, STATUS_FILE), status)
        raise
    status["stages"][name] = {
        "state": "done",
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    _write_json(_path(run_dir, STATUS_FILE), status)
    return True


def run_experiment(cfg: ExperimentConfig, run_dir) -> dict[str, EvalReport]:
    """Run every stage in order, skipping the ones already done, and return
    the evaluation reports keyed by variant name."""
    for name in STAGE_ORDER:
        run_stage(name, cfg, run_dir)
    return load_reports(run_dir)


def load_reports(run_dir) -> dict[str, EvalReport]:
    """Every variant's report under `run_dir`, in VARIANTS order; `_read`
    names a missing one and checks the fields of each."""
    return {name: EvalReport(**_read(run_dir, f"report_{name}.json")) for name in VARIANTS}


# ---------------------------------------------------------------------------
# the experiment grid


def _point_values(point: dict[str, str]) -> dict[str, str]:
    """The config values a grid point sets; its `seed` expands as --seed does,
    and a `seed.<stream>` axis of its own overrides that stream."""
    values = dict(point)
    if "seed" in values:
        values = {**seed_overrides(int(values.pop("seed"))), **values}
    return values


def run_grid(
    base_values: dict[str, str], axes: dict[str, list], root_dir
) -> list[tuple[dict[str, str], dict[str, EvalReport]]]:
    """One resumable `run_experiment` per point of the Cartesian product of
    `axes`, in axes order, each in the subdirectory of `root_dir` named by
    its key=value pairs; every point's config is built first. Returns
    (point, reports) pairs, a point mapping axis keys to raw values."""
    if not axes:
        raise ContractError("a grid needs at least one axis")
    raw_axes = {key: [str(v) for v in values] for key, values in axes.items()}
    for key, raws in raw_axes.items():
        if not raws or len(set(raws)) != len(raws):
            raise ContractError(f"grid axis {key!r} needs distinct values, got {raws}")
        if any("/" in raw for raw in raws):
            raise ContractError(f"grid axis {key!r}: a value with '/' would leave {root_dir}")
        if key == "seed" and not all(raw.isdecimal() for raw in raws):
            raise ContractError(f"grid axis 'seed' takes master seeds >= 0, got {raws}")
    points = [dict(zip(raw_axes, combo)) for combo in itertools.product(*raw_axes.values())]
    configs = [build_config({**base_values, **_point_values(point)}) for point in points]
    results = []
    for point, cfg in zip(points, configs):
        subdir = "_".join(f"{key}={raw}" for key, raw in point.items())
        try:
            results.append((point, run_experiment(cfg, os.path.join(root_dir, subdir))))
        except (ContractError, FormatError, BudgetError) as exc:
            raise type(exc)(f"grid point {subdir}: {exc}") from exc
    rows = [((*p.values(), name), r) for p, reports in results for name, r in reports.items()]
    _write_csv(os.path.join(root_dir, "grid.csv"), (*raw_axes, "model"), rows)
    return results
