"""Victim training, threshold selection, and the timed query surface."""

import tracemalloc

import numpy as np
import pytest

from exitsteal.errors import ContractError
from exitsteal.harness.datasets import generate_tiered_dataset
from exitsteal.multiexit import (
    SENTINEL,
    BackboneSpec,
    OutputStrategy,
    build_evenly_partitioned,
    cascade,
)
from exitsteal.victimlab import (
    TAU_GRID,
    TimingModel,
    VictimDeployment,
    exit_base_times,
    query_timed_many,
    select_traditional_strategy,
    train_victim,
)

from _utils import bias_only_net


def small_net(seed=0, widths=(8, 32, 32), classes=4, exits=2):
    spec = BackboneSpec.dense(widths)
    return build_evenly_partitioned(spec, exits, classes, seed)


def easy_data(seed=0, n=600, dim=8, classes=4):
    ds = generate_tiered_dataset(
        class_count=classes,
        tier_count=4,
        noise_schedule=(0.10, 0.20, 0.35, 0.50),
        sample_count=n,
        seed=seed,
        dim=dim,
        center_scale=3.0,
    )
    return ds.inputs, ds.labels


# ---------------------------------------------------------------------------
# training


def test_training_reaches_high_final_accuracy():
    x, y = easy_data()
    net = small_net()
    train_victim(net, x, y, epochs=30, lr=0.1, seed=7, batch_size=64)
    probs = cascade(net, x, OutputStrategy.never_early(2))[3]
    acc = float((probs.argmax(axis=1) == y).mean())
    assert acc >= 0.95


def test_training_improves_over_init():
    x, y = easy_data(seed=3)
    net = small_net(seed=3)
    before = cascade(net, x, OutputStrategy.never_early(2))[3]
    acc_before = float((before.argmax(axis=1) == y).mean())
    train_victim(net, x, y, epochs=10, lr=0.1, seed=7, batch_size=64)
    after = cascade(net, x, OutputStrategy.never_early(2))[3]
    acc_after = float((after.argmax(axis=1) == y).mean())
    assert acc_after > acc_before + 0.2


def test_zero_epochs_is_a_no_op():
    x, y = easy_data(seed=1, n=100)
    net = small_net(seed=1)
    before = [p.copy() for p in net.parameters()]
    train_victim(net, x, y, epochs=0, lr=0.1, seed=0)
    for b, a in zip(before, net.parameters()):
        assert np.array_equal(b, a)


def test_training_bitwise_deterministic():
    x, y = easy_data(seed=2, n=200)
    a = train_victim(small_net(seed=5), x, y, epochs=3, lr=0.05, seed=11)
    b = train_victim(small_net(seed=5), x, y, epochs=3, lr=0.05, seed=11)
    c = train_victim(small_net(seed=5), x, y, epochs=3, lr=0.05, seed=12)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    assert any(
        not np.array_equal(pa, pc) for pa, pc in zip(a.parameters(), c.parameters())
    )


def test_training_with_momentum_changes_result():
    x, y = easy_data(seed=4, n=200)
    plain = train_victim(small_net(seed=6), x, y, epochs=3, lr=0.05, seed=1)
    heavy = train_victim(
        small_net(seed=6), x, y, epochs=3, lr=0.05, seed=1, momentum=0.9
    )
    assert any(
        not np.array_equal(pa, pb)
        for pa, pb in zip(plain.parameters(), heavy.parameters())
    )


def test_training_epoch_frees_each_step():
    # one epoch of an 8 x 256 victim, batch 512, 6000 rows: each step's tape
    # holds that step's activations and must be freed when the step ends,
    # not left for the cyclic garbage collector to find (about 279 MiB
    # peak when the tapes piled up, 30 MiB when each is freed)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6000, 16))
    y = rng.integers(0, 4, size=6000)
    net = small_net(widths=(16,) + (256,) * 8, classes=4, exits=4)
    tracemalloc.start()
    try:
        train_victim(net, x, y, epochs=1, lr=0.05, seed=0, batch_size=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20, f"one epoch peaked at {peak / 2**20:.1f} MiB"


def test_training_validates_arguments():
    x, y = easy_data(seed=1, n=50)
    with pytest.raises(ContractError):
        train_victim(small_net(), x, y[:-1], epochs=1, lr=0.1, seed=0)
    with pytest.raises(ContractError):
        train_victim(small_net(), x, y, epochs=-1, lr=0.1, seed=0)
    with pytest.raises(ContractError):
        train_victim(small_net(), x, y, epochs=1, lr=0.0, seed=0)
    with pytest.raises(ContractError):
        train_victim(small_net(), x, y, epochs=1, lr=0.1, seed=0, batch_size=0)


# ---------------------------------------------------------------------------
# threshold selection


def bruteforce_tau(net, x, y, slack, grid=TAU_GRID):
    """Independent route: run the full cascade per candidate threshold."""
    final = cascade(net, x, OutputStrategy.never_early(net.exit_count))
    final_acc = float((final[1] == y).mean())
    best = None
    for tau in grid:
        strat = OutputStrategy.uniform(tau, net.exit_count)
        _, preds, flops, _ = cascade(net, x, strat)
        acc = float((preds == y).mean())
        if acc < final_acc - slack:
            continue
        cost = int(flops.sum())
        if best is None or cost < best[1] or (cost == best[1] and tau < best[0]):
            best = (float(tau), cost)
    if best is None:
        return OutputStrategy.never_early(net.exit_count, fallback=True)
    return OutputStrategy.uniform(best[0], net.exit_count)


def test_tau_selection_matches_bruteforce():
    rng = np.random.default_rng(0)
    for trial in range(20):
        net = small_net(seed=int(rng.integers(1_000_000)), widths=(8, 16, 16, 16), exits=3)
        x = rng.normal(0.0, 1.5, size=(120, 8))
        y = rng.integers(0, 4, size=120)
        slack = float(rng.uniform(0.0, 0.3))
        got = select_traditional_strategy(net, x, y, slack)
        want = bruteforce_tau(net, x, y, slack)
        assert got.thresholds == want.thresholds
        assert got.fallback == want.fallback


def test_tau_selection_on_trained_victim_prefers_cheap_exit():
    x, y = easy_data()
    net = small_net()
    train_victim(net, x, y, epochs=30, lr=0.1, seed=7, batch_size=64)
    strat = select_traditional_strategy(net, x, y, accuracy_slack=0.02)
    assert not strat.fallback
    # an easy dataset must not push the threshold to the conservative end
    assert strat.thresholds[0] <= 0.99


def test_tau_selection_fallback_when_infeasible():
    # exit 1 is sure (confidence 0.99995) of class 0, the last exit of the
    # true class 1: every threshold on the grid stops at exit 1 and loses
    # all the final exit's accuracy, so none is feasible even at slack 0
    net = bias_only_net([[10.0, 0.0], [0.0, 10.0]], in_dim=8)
    x = np.random.default_rng(1).normal(size=(60, 8))
    y = np.ones(60, dtype=int)
    strat = select_traditional_strategy(net, x, y, accuracy_slack=0.0)
    assert strat.fallback
    assert all(t == SENTINEL for t in strat.thresholds[:-1])
    exits = cascade(net, x, strat)[0]
    assert (exits == net.exit_count).all()


@pytest.mark.parametrize("slack", [-1.0, -1e-9, float("nan")])
def test_tau_selection_rejects_negative_slack(slack):
    net = small_net()
    x = np.random.default_rng(1).normal(size=(60, 8))
    y = np.random.default_rng(2).integers(0, 4, size=60)
    with pytest.raises(ContractError, match="accuracy_slack must be >= 0"):
        select_traditional_strategy(net, x, y, accuracy_slack=slack)


def test_tau_selection_rejects_bad_shapes():
    net = small_net()
    with pytest.raises(ContractError):
        select_traditional_strategy(net, np.empty((0, 8)), np.empty(0), 0.1)
    with pytest.raises(ContractError):
        select_traditional_strategy(
            net, np.zeros((4, 8)), np.zeros(3, dtype=int), 0.1
        )


# ---------------------------------------------------------------------------
# timing model


def test_proportional_timing_matches_flops_accounting():
    net = small_net(widths=(8, 24, 24, 24), exits=3)
    timing = TimingModel.proportional(net, per_flop=2e-6, noise_sigma=0.0, seed=0)
    base = exit_base_times(net, timing)
    want = 2e-6 * np.array(net.exit_flops)
    assert np.allclose(base, want, rtol=1e-12)
    assert (np.diff(base) > 0).all()


def test_timing_model_validation():
    with pytest.raises(ContractError):
        TimingModel(block_costs=(), head_costs=(1.0,), noise_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        TimingModel(block_costs=(1.0,), head_costs=(0.0,), noise_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        TimingModel(block_costs=(1.0,), head_costs=(1.0,), noise_sigma=-0.1, seed=0)
    nan, inf = float("nan"), float("inf")
    for costs in (((nan,), (1.0,)), ((1.0,), (nan,)), ((inf,), (1.0,))):
        with pytest.raises(ContractError, match="costs must be finite and positive"):
            TimingModel(*costs, noise_sigma=0.0, seed=0)
    for sigma in (nan, inf):
        with pytest.raises(ContractError, match="noise_sigma must be finite"):
            TimingModel(block_costs=(1.0,), head_costs=(1.0,), noise_sigma=sigma, seed=0)
    net = small_net()
    with pytest.raises(ContractError):
        TimingModel.proportional(net, per_flop=0.0, noise_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        exit_base_times(net, TimingModel((1.0,), (1.0, 1.0), 0.0, 0))


# ---------------------------------------------------------------------------
# deployment and queries


def deploy(seed=0, noise=0.0, tau=0.9):
    net = small_net(seed=seed)
    timing = TimingModel.proportional(net, per_flop=1e-6, noise_sigma=noise, seed=seed)
    return VictimDeployment(net, OutputStrategy.uniform(tau, 2), timing)


def test_query_returns_only_probabilities():
    dep = deploy()
    x = np.random.default_rng(0).normal(size=(16, 8))
    probs, runtimes = query_timed_many(dep, x)
    assert probs.shape == (16, 4)
    assert runtimes.shape == (16,)
    assert np.allclose(probs.sum(axis=1), 1.0)
    single, _ = query_timed_many(dep, x[3:4])
    assert single.shape == (1, 4)
    with pytest.raises(ContractError, match="batch"):
        query_timed_many(dep, x[3])


def test_runtime_noise_statistics():
    dep = deploy(noise=0.002)
    # route everything to the last exit so runtime - base is pure noise
    dep.strategy = OutputStrategy.never_early(2)
    x = np.random.default_rng(1).normal(size=(4000, 8))
    _, runtimes = query_timed_many(dep, x)
    noise = runtimes - exit_base_times(dep.net, dep.timing)[-1]
    assert abs(float(noise.mean())) < 0.002 * 0.1
    assert abs(float(noise.std()) - 0.002) < 0.002 * 0.15


def test_noiseless_runtimes_are_exact_base_times():
    dep = deploy(noise=0.0)
    x = np.random.default_rng(2).normal(size=(64, 8))
    exits = cascade(dep.net, x, dep.strategy)[0]
    _, runtimes = query_timed_many(dep, x)
    assert np.array_equal(runtimes, exit_base_times(dep.net, dep.timing)[exits - 1])


def test_single_queries_consume_stream_like_batch():
    dep_a = deploy(seed=3, noise=0.001)
    dep_b = deploy(seed=3, noise=0.001)
    x = np.random.default_rng(3).normal(size=(32, 8))
    probs_a, times_a = query_timed_many(dep_a, x)
    singles = [query_timed_many(dep_b, x[i : i + 1]) for i in range(len(x))]
    probs_b = np.concatenate([p for p, _ in singles])
    times_b = np.concatenate([t for _, t in singles])
    assert np.array_equal(times_a, times_b)
    assert np.allclose(probs_a, probs_b, rtol=0, atol=1e-12)


def test_deployment_freezes_the_network():
    net = small_net(seed=4)
    timing = TimingModel.proportional(net, per_flop=1e-6, noise_sigma=0.0, seed=0)
    dep = VictimDeployment(net, OutputStrategy.uniform(0.9, 2), timing)
    x = np.random.default_rng(4).normal(size=(8, 8))
    before, _ = query_timed_many(dep, x)
    net.parameters()[0][:] += 100.0
    after, _ = query_timed_many(dep, x)
    assert np.array_equal(before, after)
    with pytest.raises((ValueError, RuntimeError)):
        dep.net.parameters()[0][:] = 0.0


def test_deployment_validates_strategy_size():
    net = small_net()
    timing = TimingModel.proportional(net, per_flop=1e-6, noise_sigma=0.0, seed=0)
    with pytest.raises(ContractError):
        VictimDeployment(net, OutputStrategy.uniform(0.9, 3), timing)


def test_tau_grid_shape():
    assert TAU_GRID[0] == 0.50
    assert TAU_GRID[-1] == 0.99
    assert 0.95 in TAU_GRID
    assert len(TAU_GRID) == 11
