"""Experiment configuration: a flat `key = value` file with dotted sections.

Every key is declared once, as a field of the section dataclasses below: the
field's annotation gives its type and `_key` its raw default. Unknown keys are
rejected so typos fail loudly, and all cross-field contracts (phi1 >= phi2,
exit counts, increasing tier noise, referenced files existing) are checked
at load time, before any compute starts.

Randomness is organized into five named seed streams: `seed.dataset`
(dataset + unrelated pool), `seed.victim` (victim initialization),
`seed.noise` (timing noise), `seed.attacker` (substitute initialization) and
`seed.shuffle` (training shuffles and query-set selection; consumers derive
fixed offsets from it). The CLI `--seed N` override sets the five streams to
N, N+1, N+2, N+3, N+4.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

from ..errors import ContractError, FormatError


def _key(default: str, *, key: str = "", parse=None):
    """A field read from one config key. `default` is the raw text recorded
    in `resolved` when the file omits the key; `key` names the key when it is
    not `<section>.<field>`; `parse` is a (kind, parser) pair replacing the
    one the field's type selects."""
    return field(metadata={"default": default, "key": key, "parse": parse})


def _net(**defaults: str):
    """A NetCfg read from the enclosing section's six backbone keys
    (`<section>.backbone`, ...), with these raw defaults."""
    return field(metadata={"net": defaults})


def _finite(raw: str) -> float:
    """A float key's value; NaN and infinities are parse errors, since no
    key has a use for them and NaN slips past every range check."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _tau(raw: str) -> float | None:
    return None if raw == "auto" else _finite(raw)


def _sigma(raw: str) -> float | None:
    sigma = _finite(raw)
    return None if sigma < 0 else sigma


@dataclass(frozen=True)
class DatasetCfg:
    kind: str = _key("tiered")
    dim: int = _key("16")
    classes: int = _key("4")
    tiers: int = _key("4")
    noise: tuple[float, ...] = _key("0.1,0.35,0.7,1.1")
    center_scale: float = _key("3.0")
    n_train: int = _key("6000")
    n_calibration: int = _key("1000")
    n_test: int = _key("2000")
    n_iid_pool: int = _key("2000")
    idx_train_images: str = _key("")
    idx_train_labels: str = _key("")
    idx_test_images: str = _key("")
    idx_test_labels: str = _key("")
    idx_duplicate_channels: bool = _key("false")


@dataclass(frozen=True)
class UnrelatedCfg:
    kind: str = _key("blobs")
    classes: int = _key("6")
    noise: float = _key("0.8")
    n: int = _key("9000")
    low: float = _key("-4.5")
    high: float = _key("4.5")


@dataclass(frozen=True)
class NetCfg:
    backbone: str
    widths: tuple[int, ...]
    channels: tuple[int, ...]
    kernel: int
    stride: int
    activation: str


@dataclass(frozen=True)
class VictimCfg:
    net: NetCfg = _net(
        backbone="dense",
        widths="48,48,48,48,48,48,48,48",
        channels="8,16,16,32",
        kernel="3",
        stride="1",
        activation="relu",
    )
    exits: int = _key("4")
    # None means "auto": pick with select_traditional_strategy
    tau: float | None = _key("0.9", parse=("float", _tau))
    tau_slack: float = _key("0.01")
    epochs: int = _key("40")
    lr: float = _key("0.05")
    batch_size: int = _key("128")
    momentum: float = _key("0.0")


@dataclass(frozen=True)
class TimingCfg:
    per_flop: float = _key("1e-6")
    noise_over_gap: float = _key("0.1")
    # explicit sigma when set (>= 0), else derived from the exit gap
    noise_sigma: float | None = _key("-1", parse=("float", _sigma))


@dataclass(frozen=True)
class AttackStageCfg:
    n_iid: int = _key("1000")
    n_unrelated: int = _key("7000")
    phi1: float = _key("0.95")
    phi2: float = _key("0.90")
    lam: float = _key("0.5", key="attack.lambda")
    epochs: int = _key("40")
    lr: float = _key("0.05")
    batch_size: int = _key("128")
    net: NetCfg = _net(
        backbone="dense",
        widths="64,64,64,64,64,64",
        channels="8,16,16,32",
        kernel="3",
        stride="1",
        activation="relu",
    )
    delta: float = _key("0.02")
    # calibration points fed to the threshold search; 0 = all
    n_search: int = _key("0")
    warm_start: str = _key("")
    baseline_arch: str = _key("attacker")


@dataclass(frozen=True)
class SeedCfg:
    dataset: int = _key("101")
    victim: int = _key("202")
    noise: int = _key("303")
    attacker: int = _key("404")
    shuffle: int = _key("505")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetCfg
    unrelated: UnrelatedCfg
    victim: VictimCfg
    timing: TimingCfg
    attack: AttackStageCfg
    ablations: bool = _key("true", key="experiment.ablations")
    seed: SeedCfg
    resolved: dict[str, str]  # every config key with its effective raw value

    @property
    def canonical_text(self) -> str:
        lines = [f"{k} = {self.resolved[k]}" for k in sorted(self.resolved)]
        return "\n".join(lines) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text.encode("utf-8")).hexdigest()


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _parse_tuple(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())


# field type -> (kind named in parse errors, parser of the raw text)
_PARSERS = {
    int: ("int", int),
    float: ("float", _finite),
    str: ("str", str),
    bool: ("bool", _parse_bool),
    tuple[int, ...]: ("ints", _parse_tuple(int)),
    tuple[float, ...]: ("floats", _parse_tuple(_finite)),
}


@functools.cache
def _hints(cls) -> dict:
    """The field types of a config dataclass, resolved once."""
    return get_type_hints(cls)


def _declared(cls, path: tuple[str, ...] = (), net: dict[str, str] | None = None):
    """(key, field path, raw default, (kind, parser)) for every config key
    read into `cls`; the path names the fields from ExperimentConfig down."""
    hints = _hints(cls)
    for f in fields(cls):
        where = path + (f.name,)
        if is_dataclass(hints[f.name]):  # a section, or a NetCfg inside one
            yield from _declared(hints[f.name], where, f.metadata.get("net"))
        elif f.name != "resolved":
            key = f.metadata.get("key") or f"{path[0]}.{f.name}"
            default = net[f.name] if net else f.metadata["default"]
            yield key, where, default, f.metadata.get("parse") or _PARSERS[hints[f.name]]


# config key -> (field path, raw default, (kind, parser))
_KEYS = {key: rest for key, *rest in _declared(ExperimentConfig)}


def _assemble(cls, path: tuple[str, ...], typed: dict):
    """An instance of `cls` whose fields are the values `typed` holds at
    their paths, nested dataclasses built the same way."""
    hints = _hints(cls)
    return cls(
        **{
            f.name: _assemble(hints[f.name], path + (f.name,), typed)
            if is_dataclass(hints[f.name])
            else typed[path + (f.name,)]
            for f in fields(cls)
        }
    )


def parse_config_text(text: str) -> dict[str, str]:
    """`key = value` lines; '#' starts a comment; blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise FormatError(f"line {lineno}: empty key")
        if key in values:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _validate(cfg: ExperimentConfig) -> None:
    d, u, v, t, a = cfg.dataset, cfg.unrelated, cfg.victim, cfg.timing, cfg.attack
    if d.kind not in ("tiered", "idx"):
        raise ContractError(f"dataset.kind must be tiered or idx, got {d.kind!r}")
    if u.kind not in ("blobs", "uniform"):
        raise ContractError(f"unrelated.kind must be blobs or uniform, got {u.kind!r}")
    if v.exits < 2:
        raise ContractError("victim.exits must be >= 2")
    if a.phi1 < a.phi2:
        raise ContractError("attack.phi1 must be >= attack.phi2")
    if not (0.0 < a.phi1 <= 1.0 and 0.0 < a.phi2 <= 1.0):
        raise ContractError("attack.phi1/phi2 must lie in (0, 1]")
    if a.lam < 0.0:
        raise ContractError("attack.lambda must be >= 0")
    if d.kind == "tiered":
        if len(d.noise) != d.tiers:
            raise ContractError(
                f"dataset.noise has {len(d.noise)} entries for {d.tiers} tiers"
            )
        if any(s <= 0 for s in d.noise):
            raise ContractError("dataset.noise entries must be positive")
        if any(b <= x for x, b in zip(d.noise, d.noise[1:])):
            raise ContractError("dataset.noise must be strictly increasing")
    else:
        for key in (
            "idx_train_images",
            "idx_train_labels",
            "idx_test_images",
            "idx_test_labels",
        ):
            path = getattr(d, key)
            if not path:
                raise ContractError(f"dataset.{key} is required when dataset.kind = idx")
            if not os.path.exists(path):
                raise ContractError(f"dataset.{key}: no such file: {path}")
    for name, net, exits in (("victim", v.net, v.exits), ("attack", a.net, None)):
        if net.backbone not in ("dense", "conv"):
            raise ContractError(f"{name}.backbone must be dense or conv")
        blocks = len(net.widths) if net.backbone == "dense" else len(net.channels)
        if blocks < 2:
            raise ContractError(f"{name} backbone needs at least 2 blocks")
        if exits is not None and exits > blocks:
            raise ContractError(f"{name}.exits = {exits} exceeds {blocks} blocks")
    if v.net.backbone != a.net.backbone:
        raise ContractError("victim and attacker backbones must share a kind")
    if d.kind == "tiered" and v.net.backbone == "conv":
        raise ContractError("tiered blobs are 1-D; conv backbones need dataset.kind = idx")
    if v.tau is not None and not (0.0 < v.tau <= 1.0):
        raise ContractError("victim.tau must lie in (0, 1] or be 'auto'")
    for name, val in (
        ("dataset.n_train", d.n_train),
        ("dataset.n_calibration", d.n_calibration),
        ("dataset.n_test", d.n_test),
        ("dataset.n_iid_pool", d.n_iid_pool),
    ):
        if val < 1:
            raise ContractError(f"{name} must be >= 1")
    if a.n_iid > d.n_iid_pool:
        raise ContractError(
            f"attack.n_iid = {a.n_iid} exceeds dataset.n_iid_pool = {d.n_iid_pool}"
        )
    if a.n_unrelated > u.n:
        raise ContractError(f"attack.n_unrelated = {a.n_unrelated} exceeds unrelated.n = {u.n}")
    if a.n_iid + a.n_unrelated < 1:
        raise ContractError("the query budget must be positive")
    if a.n_search < 0 or a.n_search > d.n_calibration:
        raise ContractError(
            f"attack.n_search = {a.n_search} must lie in [0, dataset.n_calibration]"
        )
    for name, val in (("victim.lr", v.lr), ("attack.lr", a.lr), ("timing.per_flop", t.per_flop)):
        if val <= 0:
            raise ContractError(f"{name} must be positive")
    if v.epochs < 0 or a.epochs < 0:
        raise ContractError("epochs must be >= 0")
    if v.batch_size < 1 or a.batch_size < 1:
        raise ContractError("batch sizes must be >= 1")
    if t.noise_over_gap < 0:
        raise ContractError("timing.noise_over_gap must be >= 0")
    if not 0.0 <= v.momentum < 1.0:
        raise ContractError("victim.momentum must lie in [0, 1)")
    for name, val in (("victim.tau_slack", v.tau_slack), ("attack.delta", a.delta)):
        if val < 0:
            raise ContractError(f"{name} must be >= 0")
    if a.warm_start and not os.path.exists(a.warm_start):
        raise ContractError(f"attack.warm_start: no such file: {a.warm_start}")
    if a.baseline_arch not in ("attacker", "victim"):
        raise ContractError("attack.baseline_arch must be attacker or victim")
    if u.kind == "uniform" and u.high <= u.low:
        raise ContractError("unrelated.low must be < unrelated.high")


def build_config(values: dict[str, str]) -> ExperimentConfig:
    unknown = sorted(set(values) - set(_KEYS))
    if unknown:
        raise ContractError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {k: values.get(k, default) for k, (_, default, _) in _KEYS.items()}
    typed: dict = {("resolved",): resolved}
    for key, (path, _, (kind, parse)) in _KEYS.items():
        try:
            typed[path] = parse(resolved[key])
        except ValueError as exc:
            raise ContractError(
                f"config key {key!r}: cannot parse {resolved[key]!r} as {kind}"
            ) from exc
    cfg = _assemble(ExperimentConfig, (), typed)
    _validate(cfg)
    return cfg


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read, merge overrides (e.g. the CLI --seed expansion), validate."""
    with open(path) as fh:
        values = parse_config_text(fh.read())
    if overrides:
        values.update(overrides)
    return build_config(values)


def seed_overrides(master_seed: int) -> dict[str, str]:
    """The CLI --seed expansion: consecutive seeds for the streams, in
    SeedCfg order."""
    return {f"seed.{f.name}": str(master_seed + i) for i, f in enumerate(fields(SeedCfg))}
