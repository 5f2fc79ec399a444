"""Config validation: every `_validate` branch and every key's declared
range reachable by editing a key of configs/toy.cfg raises ContractError with
its own message, every numeric key declares a range that admits its default
and refuses a value just outside it, and the config hashes that existing run
directories pin stay as they are."""

import math
import re

import pytest

from exitsteal.changepoint import MIN_SEGMENT
from exitsteal.errors import ContractError
from exitsteal.harness import build_config, config, load_config

from test_experiment import TOY_CFG

# (overrides of configs/toy.cfg, the message of the branch they trip)
BROKEN = {
    "dataset_kind": ({"dataset.kind": "mnist"}, "dataset.kind must be tiered or idx"),
    "unrelated_kind": ({"unrelated.kind": "gauss"}, "unrelated.kind must be blobs or uniform"),
    "victim_exits_below_2": ({"victim.exits": "1"}, r"victim.exits must be >= 2"),
    "phi1_below_phi2": ({"attack.phi1": "0.8"}, "attack.phi1 must be >= attack.phi2"),
    "phi_range": ({"attack.phi1": "1.5"}, r"must lie in \(0, 1\]"),
    "negative_lambda": ({"attack.lambda": "-0.1"}, "attack.lambda must be >= 0"),
    "noise_positive": ({"dataset.noise": "0,0.35,0.7,1.1"}, "dataset.noise must be > 0"),
    "noise_increasing": ({"dataset.noise": "0.1,0.7,0.35,1.1"}, "must be strictly increasing"),
    "noise_tiers": ({"dataset.noise": ""}, "^dataset.noise needs at least one tier$"),
    "idx_files": ({"dataset.kind": "idx"}, "dataset.idx_train_images is required"),
    "backbone_kind": ({"victim.backbone": "rnn"}, "victim.backbone must be dense or conv"),
    "two_blocks": ({"attack.widths": "64"}, "attack backbone needs at least 2 blocks"),
    "exits_past_blocks": ({"victim.exits": "9"}, "victim.exits = 9 exceeds 8 blocks"),
    "tiered_conv": ({"victim.backbone": "conv"}, "conv backbones need dataset.kind = idx"),
    "tau_range": ({"victim.tau": "1.5"}, "victim.tau must lie in"),
    "sizes_positive": ({"dataset.n_train": "0"}, "dataset.n_train must be >= 1"),
    "calibration_set": (
        {"dataset.n_calibration": str(2 * MIN_SEGMENT - 1)},
        f"dataset.n_calibration must be >= {2 * MIN_SEGMENT}",
    ),
    "iid_pool": ({"attack.n_iid": "2001"}, "exceeds dataset.n_iid_pool"),
    "unrelated_pool": ({"attack.n_unrelated": "9001"}, "exceeds unrelated.n"),
    "query_budget": ({"attack.n_iid": "0", "attack.n_unrelated": "0"}, "budget must be positive"),
    "n_search_range": ({"dataset.n_calibration": "50", "attack.n_search": "60"},
                       r"must lie in \[0, dataset.n_calibration\]"),
    "lr_positive": ({"victim.lr": "0"}, "victim.lr must be > 0"),
    "epochs": ({"attack.epochs": "-1"}, "epochs must be >= 0"),
    "batch_size": ({"victim.batch_size": "0"}, "victim.batch_size must be >= 1"),
    "noise_over_gap": ({"timing.noise_over_gap": "-0.1"}, "noise_over_gap must be >= 0"),
    "tau_slack": ({"victim.tau_slack": "-0.01"}, "victim.tau_slack must be >= 0"),
    "delta": ({"attack.delta": "-0.02"}, "attack.delta must be >= 0"),
    "uniform_range": (
        {"unrelated.kind": "uniform", "unrelated.low": "1", "unrelated.high": "1"},
        "unrelated.low must be < unrelated.high",
    ),
    "negative_seed": ({"seed.noise": "-1"}, "seed.noise must be >= 0"),
    "dataset_classes": ({"dataset.classes": "1"}, "dataset.classes must be >= 2"),
    "dataset_dim": ({"dataset.dim": "0"}, "dataset.dim must be >= 1"),
    "unrelated_classes": ({"unrelated.classes": "1"}, "unrelated.classes must be >= 2"),
    "unrelated_noise": ({"unrelated.noise": "0"}, "unrelated.noise must be > 0"),
    "unrelated_n": ({"unrelated.n": "0"}, "unrelated.n must be >= 1"),
    "n_iid": ({"attack.n_iid": "-5"}, "attack.n_iid must be >= 0"),
    "n_unrelated": ({"attack.n_unrelated": "-1"}, "attack.n_unrelated must be >= 0"),
    "victim_widths": ({"victim.widths": "48,0,48,48"}, "victim.widths must be >= 1"),
    "attack_widths": ({"attack.widths": "64,64,-64"}, "attack.widths must be >= 1"),
    "victim_kernel": ({"victim.kernel": "0"}, "victim.kernel must be >= 1"),
    "attack_kernel": ({"attack.kernel": "-3"}, "attack.kernel must be >= 1"),
    "victim_stride": ({"victim.stride": "0"}, "victim.stride must be >= 1"),
    "attack_stride": ({"attack.stride": "0"}, "attack.stride must be >= 1"),
}


# one case per float parser kind: (overrides of configs/toy.cfg, key, kind)
NON_FINITE = {
    "float": ({"timing.noise_over_gap": "nan"}, "timing.noise_over_gap", "float"),
    "floats_nan": ({"dataset.noise": "0.1,nan,0.6,0.8"}, "dataset.noise", "floats"),
    "floats_inf_last": ({"dataset.noise": "0.1,0.35,0.7,inf"}, "dataset.noise", "floats"),
    "tau": ({"victim.tau": "nan"}, "victim.tau", "float"),
}


def test_config_hashes_are_pinned():
    # run directories pin these hashes (status.json), so the resolved raw
    # values may not change; they move only when a key is deliberately
    # removed, and CHANGES.md says so
    assert load_config(TOY_CFG).sha256 == (
        "df01f2499e508e99e642fc56a8802f79863633d34f9165573270ddfa3e4bc9db"
    )
    assert build_config({}).sha256 == (
        "f0f82a72ebe2d353f58cedd33fac1a0d182ca3013af4d3a7275038fbec52ce2e"
    )


def test_toy_config_is_valid():
    cfg = load_config(TOY_CFG)
    assert cfg.victim.exits == 4 and cfg.attack.n_search == 0


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_validate_branch(case):
    overrides, message = BROKEN[case]
    with pytest.raises(ContractError, match=message):
        load_config(TOY_CFG, overrides)


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_float_is_a_parse_error(case):
    overrides, key, kind = NON_FINITE[case]
    with pytest.raises(ContractError, match=f"config key '{key}': cannot parse .* as {kind}$"):
        load_config(TOY_CFG, overrides)


# numeric keys that declare no range: every finite value has a meaning, or
# the contract is between keys (unrelated.low < unrelated.high)
UNBOUNDED = {"dataset.center_scale", "unrelated.low", "unrelated.high"}


def _range(within: str):
    """(low, high, low open, high open) of a range such as "[1, inf)"."""
    low, high = (float(end) for end in within[1:-1].split(","))
    return low, high, within[0] == "(", within[-1] == ")"


def _just_outside(within, integral: bool) -> list[str]:
    """Raw values just outside `within`: past each finite end of a range,
    or a string it does not list."""
    if isinstance(within, tuple):
        return ["-".join(within) + "x"]
    low, high, low_open, high_open = _range(within)
    step = (lambda x, to: x + (1 if to > x else -1)) if integral else math.nextafter
    values = [low if low_open else step(low, -math.inf)]
    if high != math.inf:
        values.append(high if high_open else step(high, math.inf))
    return [str(int(v)) if integral else repr(v) for v in values]


@pytest.mark.parametrize("key", sorted(config._KEYS))
def test_each_key_declares_what_it_admits(key):
    # a new numeric key without a range fails here, not at a later stage
    _, default, (kind, parse), within = config._KEYS[key]
    if kind in ("int", "float", "ints", "floats") and key not in UNBOUNDED:
        assert within is not None, f"{key} declares no range"
    if within is None:
        return
    value = parse(default)
    if isinstance(within, tuple):
        assert value in within
    else:
        low, high, low_open, high_open = _range(within)
        for x in value if isinstance(value, tuple) else (value,):
            assert (low < x if low_open else low <= x) and (x < high if high_open else x <= high)
    for raw in _just_outside(within, kind in ("int", "ints")):
        with pytest.raises(ContractError, match=f"^{re.escape(key)} must "):
            build_config({key: raw})
