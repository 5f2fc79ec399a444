"""Experiment configuration: a flat `key = value` file with dotted sections.

Every key is declared once, as a field of the section dataclasses below: the
field's annotation gives its type, and `_key` its raw default and what values
it admits (`within`: a range such as "[1, inf)" or "(0, 1]", or the allowed
strings). Unknown keys are rejected so typos fail loudly; each value is
checked against its key's `within` as it is parsed, and the contracts between
keys (phi1 >= phi2, exit counts, increasing tier noise, referenced files
existing) right after, all at load time, before any compute starts.

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

from ..changepoint import MIN_SEGMENT
from ..errors import ContractError, FormatError
from ..multiexit import ACTIVATIONS, KINDS


def _key(default: str | None = None, *, key: str = "", parse=None, within=None):
    """A field read from one config key. `default` is the raw text recorded
    in `resolved` when the file omits the key (a NetCfg field has none: `_net`
    gives it per section); `key` names the key when it is not
    `<section>.<field>`; `parse` is a (kind, parser) pair replacing the one
    the field's type selects; `within` is what the key admits: a range such
    as "[1, inf)" or "(0, 1]", checked on every entry of a tuple and skipped
    for None, or a tuple of the allowed strings."""
    return field(metadata={"default": default, "key": key, "parse": parse, "within": within})


def _net(**defaults: str):
    """A NetCfg read from the enclosing section's four backbone keys
    (`<section>.widths`, ...), with these raw defaults."""
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


@dataclass(frozen=True)
class DatasetCfg:
    kind: str = _key("tiered", within=("tiered", "idx"))
    dim: int = _key("16", within="[1, inf)")
    classes: int = _key("4", within="[2, inf)")
    noise: tuple[float, ...] = _key("0.1,0.35,0.7,1.1", within="(0, inf)")
    center_scale: float = _key("3.0")
    n_train: int = _key("6000", within="[1, inf)")
    # estimate_exits splits the calibration runtimes into segments
    n_calibration: int = _key("1000", within=f"[{2 * MIN_SEGMENT}, inf)")
    n_test: int = _key("2000", within="[1, inf)")
    n_iid_pool: int = _key("2000", within="[1, inf)")
    idx_train_images: str = _key("")
    idx_train_labels: str = _key("")
    idx_test_images: str = _key("")
    idx_test_labels: str = _key("")


@dataclass(frozen=True)
class UnrelatedCfg:
    kind: str = _key("blobs", within=("blobs", "uniform"))
    classes: int = _key("6", within="[2, inf)")
    noise: float = _key("0.8", within="(0, inf)")
    n: int = _key("9000", within="[1, inf)")
    low: float = _key("-4.5")
    high: float = _key("4.5")


@dataclass(frozen=True)
class NetCfg:
    # block widths: a dense net's units, a conv net's channels
    widths: tuple[int, ...] = _key(within="[1, inf)")
    kernel: int = _key(within="[1, inf)")
    stride: int = _key(within="[1, inf)")
    activation: str = _key(within=ACTIVATIONS)


@dataclass(frozen=True)
class VictimCfg:
    # the backbone kind of every net in the run, the attacker's too
    backbone: str = _key("dense", within=KINDS)
    net: NetCfg = _net(
        widths="48,48,48,48,48,48,48,48",
        kernel="3",
        stride="1",
        activation="relu",
    )
    exits: int = _key("4", within="[2, inf)")
    # None means "auto": pick with select_traditional_strategy
    tau: float | None = _key("0.9", parse=("float", _tau), within="(0, 1]")
    tau_slack: float = _key("0.01", within="[0, inf)")
    epochs: int = _key("40", within="[0, inf)")
    lr: float = _key("0.05", within="(0, inf)")
    batch_size: int = _key("128", within="[1, inf)")


@dataclass(frozen=True)
class TimingCfg:
    per_flop: float = _key("1e-6", within="(0, inf)")
    # the timing noise's sigma over the smallest gap between exit base times
    noise_over_gap: float = _key("0.1", within="[0, inf)")


@dataclass(frozen=True)
class AttackStageCfg:
    n_iid: int = _key("1000", within="[0, inf)")
    n_unrelated: int = _key("7000", within="[0, inf)")
    phi1: float = _key("0.95", within="(0, 1]")
    phi2: float = _key("0.90", within="(0, 1]")
    lam: float = _key("0.5", key="attack.lambda", within="[0, inf)")
    epochs: int = _key("40", within="[0, inf)")
    lr: float = _key("0.05", within="(0, inf)")
    batch_size: int = _key("128", within="[1, inf)")
    net: NetCfg = _net(
        widths="64,64,64,64,64,64",
        kernel="3",
        stride="1",
        activation="relu",
    )
    delta: float = _key("0.02", within="[0, inf)")
    # calibration points fed to the threshold search; 0 = all
    n_search: int = _key("0", within="[0, inf)")


@dataclass(frozen=True)
class SeedCfg:
    # numpy's generators take no negative seed
    dataset: int = _key("101", within="[0, inf)")
    victim: int = _key("202", within="[0, inf)")
    noise: int = _key("303", within="[0, inf)")
    attacker: int = _key("404", within="[0, inf)")
    shuffle: int = _key("505", within="[0, inf)")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetCfg
    unrelated: UnrelatedCfg
    victim: VictimCfg
    timing: TimingCfg
    attack: AttackStageCfg
    seed: SeedCfg
    resolved: dict[str, str]  # every config key with its effective raw value

    @property
    def canonical_text(self) -> str:
        lines = [f"{k} = {self.resolved[k]}" for k in sorted(self.resolved)]
        return "\n".join(lines) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text.encode("utf-8")).hexdigest()


def _parse_tuple(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())


# field type -> (kind named in parse errors, parser of the raw text)
_PARSERS = {
    int: ("int", int),
    float: ("float", _finite),
    str: ("str", str),
    tuple[int, ...]: ("ints", _parse_tuple(int)),
    tuple[float, ...]: ("floats", _parse_tuple(_finite)),
}


@functools.cache
def _hints(cls) -> dict:
    """The field types of a config dataclass, resolved once."""
    return get_type_hints(cls)


def _declared(cls, path: tuple[str, ...] = (), net: dict[str, str] | None = None):
    """(key, field path, raw default, (kind, parser), within) for every
    config key read into `cls`; the path names the fields from
    ExperimentConfig down."""
    hints = _hints(cls)
    for f in fields(cls):
        where = path + (f.name,)
        if is_dataclass(hints[f.name]):  # a section, or a NetCfg inside one
            yield from _declared(hints[f.name], where, f.metadata.get("net"))
        elif f.name != "resolved":
            key = f.metadata.get("key") or f"{path[0]}.{f.name}"
            default = net[f.name] if net else f.metadata["default"]
            parser = f.metadata.get("parse") or _PARSERS[hints[f.name]]
            yield key, where, default, parser, f.metadata.get("within")


# config key -> (field path, raw default, (kind, parser), within)
_KEYS = {key: rest for key, *rest in _declared(ExperimentConfig)}


@functools.cache
def _admits(within) -> tuple:
    """(test of one value, what a key must be) for a `_key` `within`."""
    if isinstance(within, tuple):
        return within.__contains__, "must be " + " or ".join(within)
    low, high = within[1:-1].split(",")
    lo, hi = float(low), float(high)
    lo_open, hi_open = within[0] == "(", within[-1] == ")"

    def test(x) -> bool:
        return (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)

    if hi == math.inf:
        return test, f"must be {'>' if lo_open else '>='} {low}"
    return test, f"must lie in {within}"


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
    """The contracts between keys; each key's own range was checked as it was
    parsed (`within`)."""
    d, u, v, a = cfg.dataset, cfg.unrelated, cfg.victim, cfg.attack
    if a.phi1 < a.phi2:
        raise ContractError("attack.phi1 must be >= attack.phi2")
    if d.kind == "tiered":
        if not d.noise:
            raise ContractError("dataset.noise needs at least one tier")
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
        blocks = len(net.widths)
        if blocks < 2:
            raise ContractError(f"{name} backbone needs at least 2 blocks")
        if exits is not None and exits > blocks:
            raise ContractError(f"{name}.exits = {exits} exceeds {blocks} blocks")
    if d.kind == "tiered" and v.backbone == "conv":
        raise ContractError("tiered blobs are 1-D; conv backbones need dataset.kind = idx")
    if a.n_iid > d.n_iid_pool:
        raise ContractError(
            f"attack.n_iid = {a.n_iid} exceeds dataset.n_iid_pool = {d.n_iid_pool}"
        )
    if a.n_unrelated > u.n:
        raise ContractError(f"attack.n_unrelated = {a.n_unrelated} exceeds unrelated.n = {u.n}")
    if a.n_iid + a.n_unrelated < 1:
        raise ContractError("the query budget must be positive")
    if a.n_search > d.n_calibration:
        raise ContractError(
            f"attack.n_search = {a.n_search} must lie in [0, dataset.n_calibration]"
        )
    if u.kind == "uniform" and u.high <= u.low:
        raise ContractError("unrelated.low must be < unrelated.high")


def build_config(values: dict[str, str]) -> ExperimentConfig:
    unknown = sorted(set(values) - set(_KEYS))
    if unknown:
        raise ContractError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {k: values.get(k, default) for k, (_, default, *_) in _KEYS.items()}
    typed: dict = {("resolved",): resolved}
    for key, (path, _, (kind, parse), within) in _KEYS.items():
        try:
            value = typed[path] = parse(resolved[key])
        except ValueError as exc:
            raise ContractError(
                f"config key {key!r}: cannot parse {resolved[key]!r} as {kind}"
            ) from exc
        if within is not None and value is not None:
            test, must = _admits(within)
            if not all(map(test, value if isinstance(value, tuple) else (value,))):
                raise ContractError(f"{key} {must}, got {resolved[key]!r}")
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
