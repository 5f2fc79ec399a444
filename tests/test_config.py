"""Config validation: every `_validate` branch reachable by editing a key of
configs/toy.cfg raises ContractError with its own message, and the config
hashes that existing run directories pin stay as they are."""

import pytest

from exitsteal.errors import ContractError
from exitsteal.harness import build_config, load_config

from test_experiment import TOY_CFG

# (overrides of configs/toy.cfg, the message of the branch they trip)
BROKEN = {
    "dataset_kind": ({"dataset.kind": "mnist"}, "dataset.kind must be tiered or idx"),
    "unrelated_kind": ({"unrelated.kind": "gauss"}, "unrelated.kind must be blobs or uniform"),
    "victim_exits_below_2": ({"victim.exits": "1"}, r"victim.exits must be >= 2"),
    "phi1_below_phi2": ({"attack.phi1": "0.8"}, "attack.phi1 must be >= attack.phi2"),
    "phi_range": ({"attack.phi1": "1.5"}, r"must lie in \(0, 1\]"),
    "negative_lambda": ({"attack.lambda": "-0.1"}, "attack.lambda must be >= 0"),
    "noise_per_tier": ({"dataset.tiers": "3"}, "dataset.noise has 4 entries for 3 tiers"),
    "noise_positive": ({"dataset.noise": "0,0.35,0.7,1.1"}, "entries must be positive"),
    "noise_increasing": ({"dataset.noise": "0.1,0.7,0.35,1.1"}, "must be strictly increasing"),
    "idx_files": ({"dataset.kind": "idx"}, "dataset.idx_train_images is required"),
    "backbone_kind": ({"victim.backbone": "rnn"}, "victim.backbone must be dense or conv"),
    "two_blocks": ({"attack.widths": "64"}, "attack backbone needs at least 2 blocks"),
    "exits_past_blocks": ({"victim.exits": "9"}, "victim.exits = 9 exceeds 8 blocks"),
    "shared_kind": ({"attack.backbone": "conv"}, "backbones must share a kind"),
    "tiered_conv": (
        {"victim.backbone": "conv", "attack.backbone": "conv"},
        "conv backbones need dataset.kind = idx",
    ),
    "tau_range": ({"victim.tau": "1.5"}, "victim.tau must lie in"),
    "sizes_positive": ({"dataset.n_train": "0"}, "dataset.n_train must be >= 1"),
    "iid_pool": ({"attack.n_iid": "2001"}, "exceeds dataset.n_iid_pool"),
    "unrelated_pool": ({"attack.n_unrelated": "9001"}, "exceeds unrelated.n"),
    "query_budget": ({"attack.n_iid": "0", "attack.n_unrelated": "0"}, "budget must be positive"),
    "n_search_range": ({"dataset.n_calibration": "50", "attack.n_search": "60"},
                       r"must lie in \[0, dataset.n_calibration\]"),
    "lr_positive": ({"victim.lr": "0"}, "victim.lr must be positive"),
    "epochs": ({"attack.epochs": "-1"}, "epochs must be >= 0"),
    "batch_size": ({"victim.batch_size": "0"}, "batch sizes must be >= 1"),
    "noise_over_gap": ({"timing.noise_over_gap": "-0.1"}, "noise_over_gap must be >= 0"),
    "momentum_negative": ({"victim.momentum": "-0.5"}, r"victim.momentum must lie in \[0, 1\)"),
    "momentum_one": ({"victim.momentum": "1"}, r"victim.momentum must lie in \[0, 1\)"),
    "tau_slack": ({"victim.tau_slack": "-0.01"}, "victim.tau_slack must be >= 0"),
    "delta": ({"attack.delta": "-0.02"}, "attack.delta must be >= 0"),
    "uniform_range": (
        {"unrelated.kind": "uniform", "unrelated.low": "1", "unrelated.high": "1"},
        "unrelated.low must be < unrelated.high",
    ),
}


# one case per float parser kind: (overrides of configs/toy.cfg, key, kind)
NON_FINITE = {
    "float": ({"timing.noise_over_gap": "nan"}, "timing.noise_over_gap", "float"),
    "floats_nan": ({"dataset.noise": "0.1,nan,0.6,0.8"}, "dataset.noise", "floats"),
    "floats_inf_last": ({"dataset.noise": "0.1,0.35,0.7,inf"}, "dataset.noise", "floats"),
    "tau": ({"victim.tau": "nan"}, "victim.tau", "float"),
    "sigma": ({"timing.noise_sigma": "-inf"}, "timing.noise_sigma", "float"),
}


def test_config_hashes_are_pinned():
    # run directories pin these hashes (status.json), so the resolved raw
    # values may not change
    assert load_config(TOY_CFG).sha256 == (
        "e3d83b5317940a83441db67b14b75021320540878087635a4e7b6d34f8b57b6f"
    )
    assert build_config({}).sha256 == (
        "1ca051aaa2ca6404eae687ae55c9ca19a20829a206229d86c75878b783bf2934"
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
