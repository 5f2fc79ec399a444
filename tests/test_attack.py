"""Attack-side tests: query building, exit-label estimation, the two loss
terms of `substitute_losses` (against hand-worked values), and substitute
training."""

import math

import numpy as np
import pytest

from exitsteal import numerics as nm
from exitsteal.attack import (
    AttackConfig,
    QueryRecord,
    RecordBatch,
    build_query_set,
    substitute_losses,
    train_baseline,
    train_substitute,
    write_loss_trace,
)
from exitsteal.changepoint import assign_exits, detect_changepoints
from exitsteal.errors import ContractError
from exitsteal.multiexit import (
    BackboneSpec,
    MultiExitNet,
    OutputStrategy,
    cascade,
    forward_all_exits,
)
from exitsteal.victimlab import (
    TimingModel,
    VictimDeployment,
    exit_base_times,
    query_timed_many,
    train_victim,
)

from _utils import (
    assert_bitwise,
    bias_only_net,
    binary_conf_logit,
    chain_exit_margins,
    chain_mean_kl,
    conv_net,
    dense_net,
    fused_vs_chain,
    use_unfused_chains,
)


def conf_driven_net(predicted_class: int = 0) -> MultiExitNet:
    """Two-exit, two-class net on 1-d inputs whose exit-1 (and exit-2)
    logits are [x, 0] for x > 0 ([0, x] with predicted_class=1): feeding
    binary_conf_logit(p) makes the head's confidence exactly p, always on
    `predicted_class`."""
    spec = BackboneSpec.dense((1, 1, 1))
    head = np.array([[1.0, 0.0]]) if predicted_class == 0 else np.array([[0.0, 1.0]])
    params = [
        np.array([[1.0]]), np.zeros(1),   # block 1
        np.array([[1.0]]), np.zeros(1),   # block 2
        head, np.zeros(2),  # head 1
        head.copy(), np.zeros(2),  # head 2
    ]
    return MultiExitNet(spec, (1, 2), 2, params)


def records_for(xs, exits, probs=None):
    xs = np.asarray(xs, dtype=float)
    if probs is None:
        probs = np.full((xs.shape[0], 2), 0.5)
    return RecordBatch(xs, probs, np.asarray(exits))


# -- configuration and record plumbing --------------------------------------


def test_attack_config_validation():
    AttackConfig()  # defaults are legal
    with pytest.raises(ContractError):
        AttackConfig(phi1=1.5)
    with pytest.raises(ContractError):
        AttackConfig(phi2=0.0)
    with pytest.raises(ContractError):
        AttackConfig(phi1=0.8, phi2=0.9)
    with pytest.raises(ContractError):
        AttackConfig(lambda_strategy=-0.1)
    with pytest.raises(ContractError):
        AttackConfig(lambda_strategy=float("nan"))


def test_query_record_validation():
    ok = QueryRecord(
        input=np.zeros(3), victim_probs=np.array([0.2, 0.8]), runtime=0.1, estimated_exit=1
    )
    assert ok.estimated_exit == 1
    with pytest.raises(ContractError):
        QueryRecord(np.zeros(3), np.array([0.2, 0.9]), 0.1, 1)  # sums to 1.1
    with pytest.raises(ContractError):
        QueryRecord(np.zeros(3), np.array([-0.1, 1.1]), 0.1, 1)
    with pytest.raises(ContractError):
        QueryRecord(np.zeros(3), np.array([1.0]), 0.1, 1)  # not a distribution
    with pytest.raises(ContractError):
        QueryRecord(np.zeros(3), np.array([0.5, 0.5]), 0.1, 0)  # exits are 1-based
    with pytest.raises(ContractError):
        QueryRecord(np.zeros(3), np.array([np.nan, 0.5]), 0.1, 1)
    for exit_label in (1.5, True):  # exit labels are integers, not bools
        with pytest.raises(ContractError):
            QueryRecord(np.zeros(3), np.array([0.5, 0.5]), 0.1, exit_label)


def test_build_query_set_layout():
    rng = np.random.default_rng(0)
    iid = rng.normal(size=(40, 5))
    unrel = rng.normal(loc=10.0, size=(60, 5))
    qs = build_query_set(iid, unrel, n_iid=10, n_unrelated=20, seed=7)
    assert qs.inputs.shape == (30, 5)
    assert qs.is_iid.sum() == 10
    # i.i.d. samples come first and really come from the i.i.d. pool
    assert np.all(qs.is_iid[:10]) and not np.any(qs.is_iid[10:])
    assert np.all(qs.inputs[:10] < 5.0) and np.all(qs.inputs[10:] > 5.0)
    # without replacement: all rows distinct
    assert np.unique(qs.inputs, axis=0).shape[0] == 30

    again = build_query_set(iid, unrel, n_iid=10, n_unrelated=20, seed=7)
    assert np.array_equal(qs.inputs, again.inputs)
    other = build_query_set(iid, unrel, n_iid=10, n_unrelated=20, seed=8)
    assert not np.array_equal(qs.inputs, other.inputs)

    only_unrel = build_query_set(iid, unrel, n_iid=0, n_unrelated=5, seed=1)
    assert not np.any(only_unrel.is_iid)


def test_build_query_set_rejects_bad_requests():
    iid = np.zeros((4, 3))
    unrel = np.ones((4, 3))
    with pytest.raises(ContractError):
        build_query_set(iid, unrel, n_iid=5, n_unrelated=0, seed=0)
    with pytest.raises(ContractError):
        build_query_set(iid, unrel, n_iid=0, n_unrelated=5, seed=0)
    with pytest.raises(ContractError):
        build_query_set(iid, unrel, n_iid=0, n_unrelated=0, seed=0)
    with pytest.raises(ContractError):
        build_query_set(iid, unrel, n_iid=-1, n_unrelated=2, seed=0)
    with pytest.raises(ContractError):
        build_query_set(np.zeros((4, 3)), np.ones((4, 2)), n_iid=1, n_unrelated=1, seed=0)


def test_record_batch_roundtrip():
    xs = np.arange(6.0).reshape(3, 2) + 1.0
    recs = [
        QueryRecord(input=x, victim_probs=np.array([0.5, 0.5]), runtime=1.0, estimated_exit=e)
        for x, e in zip(xs, [1, 2, 1])
    ]
    batch = RecordBatch.from_records(recs)
    assert batch.inputs.shape == (3, 2)
    assert batch.victim_probs.shape == (3, 2)
    assert np.array_equal(batch.exits, [1, 2, 1])
    sub = batch.subset([2, 0])
    assert np.array_equal(sub.exits, [1, 1])
    assert np.array_equal(sub.inputs, batch.inputs[[2, 0]])
    with pytest.raises(ContractError):
        RecordBatch.from_records([])
    with pytest.raises(ContractError):
        RecordBatch(np.zeros((3, 2)), np.full((2, 2), 0.5), np.array([1, 1, 1]))


@pytest.mark.parametrize(
    "exits", [[0, -1, 1.7], [1.0, 2.0, 1.0], [1, 0, 2], [True, True, True]],
    ids=["mixed", "float", "zero", "bool"],
)
def test_record_batch_rejects_bad_exit_labels(exits):
    with pytest.raises(ContractError, match="exit labels must be integers >= 1"):
        RecordBatch(np.zeros((3, 2)), np.full((3, 2), 0.5), np.array(exits))
    RecordBatch(np.zeros((3, 2)), np.full((3, 2), 0.5), np.array([1, 3, 2], dtype=np.uint8))


def test_substitute_losses_share_one_forward_pass(monkeypatch):
    net = dense_net(widths=(2, 4, 4), exits=2, classes=2, seed=0)
    batch = RecordBatch(np.ones((3, 2)), np.full((3, 2), 0.5), np.array([1, 2, 2]))
    calls = []
    forward = MultiExitNet.forward_exit_logits
    monkeypatch.setattr(
        MultiExitNet, "forward_exit_logits", lambda *a, **kw: calls.append(1) or forward(*a, **kw)
    )
    substitute_losses(net, batch, 0.95, 0.90)
    assert len(calls) == 1


def test_record_batch_checks_victim_probs_once(monkeypatch):
    x = np.zeros((3, 2))
    with pytest.raises(ContractError, match="victim_probs"):
        RecordBatch(x, np.array([[0.5, 0.6], [0.5, 0.5], [1.0, 0.0]]), np.array([1, 1, 2]))
    with pytest.raises(ContractError, match="victim_probs"):
        RecordBatch(x, np.array([[1.5, -0.5]] * 3), np.array([1, 1, 2]))
    batch = RecordBatch(x, np.full((3, 2), 0.5), np.array([1, 1, 2]))
    net = dense_net(widths=(2, 4, 4), exits=2, classes=2, seed=0)
    checked = []
    monkeypatch.setattr(nm, "check_prob", lambda v, who: checked.append(who))
    sub = batch.subset([2, 0])
    assert np.array_equal(sub.exits, [2, 1])
    substitute_losses(net, sub, 0.95, 0.90)
    # the substitute's prediction stack, once for both exits; never the
    # victim rows again
    assert checked == ["mean_kl pred"]


# -- loss terms against hand-worked values ----------------------------------


def test_performance_loss_hand_value():
    # exit 1 emits [1/4, 3/4] (logits [0, ln 3]), exit 2 emits [1/2, 1/2];
    # against a victim answer of [1/2, 1/2] the summed KL is
    #   (1/2 ln 2 + 1/2 ln(2/3)) + 0 = ln(4/3)/2
    net = bias_only_net([[0.0, math.log(3.0)], [0.0, 0.0]])
    recs = records_for(np.zeros((1, 3)), [1])
    val = float(nm.value_of(substitute_losses(net, recs, 0.95, 0.90)[0]))
    assert val == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-12)
    # a batch repeating the same sample averages to the same value
    recs4 = records_for(np.zeros((4, 3)), [1, 2, 1, 2])
    val4 = float(nm.value_of(substitute_losses(net, recs4, 0.95, 0.90)[0]))
    assert val4 == pytest.approx(val, rel=1e-12)


def test_performance_loss_matches_manual_kl():
    rng = np.random.default_rng(3)
    net = dense_net(widths=(3, 6, 6), exits=2, classes=3, seed=2)
    x = rng.normal(size=(9, 3))
    victim = rng.dirichlet(np.ones(3), size=9)
    recs = RecordBatch(x, victim, rng.integers(1, 3, size=9))
    probs = forward_all_exits(net, x)
    manual = sum(
        float(np.mean(np.sum(victim * np.log(victim / p), axis=1))) for p in probs
    )
    val = float(nm.value_of(substitute_losses(net, recs, 0.95, 0.90)[0]))
    assert val == pytest.approx(manual, rel=1e-10)


def test_strategy_loss_hand_value():
    # sample A: victim exited at 1, substitute conf there 0.90 -> pays
    # phi1 - 0.90 = 0.05; sample B: victim exited later, conf at exit 1
    # 0.93 -> pays 0.93 - phi2 = 0.03; total 0.08
    net = conf_driven_net()
    xs = np.array([[binary_conf_logit(0.90)], [binary_conf_logit(0.93)]])
    recs = records_for(xs, [1, 2])
    val = float(nm.value_of(substitute_losses(net, recs, 0.95, 0.90)[1]))
    assert val == pytest.approx(0.08, rel=1e-12)


def test_strategy_loss_zero_when_margins_met():
    net = conf_driven_net()
    xs = np.array([[binary_conf_logit(0.99)], [binary_conf_logit(0.80)]])
    recs = records_for(xs, [1, 2])
    assert float(nm.value_of(substitute_losses(net, recs, 0.95, 0.90)[1])) == 0.0


def test_strategy_loss_groups_average_separately():
    net = conf_driven_net()
    # two exit-1 samples at conf 0.90 and 0.99: own-exit term is the mean
    # hinge (0.05 + 0)/2; one later sample at conf 0.92 adds 0.02
    xs = np.array(
        [[binary_conf_logit(0.90)], [binary_conf_logit(0.99)], [binary_conf_logit(0.92)]]
    )
    recs = records_for(xs, [1, 1, 2])
    val = float(nm.value_of(substitute_losses(net, recs, 0.95, 0.90)[1]))
    assert val == pytest.approx(0.05 / 2 + 0.02, rel=1e-12)


def test_strategy_loss_absent_groups_contribute_nothing():
    net = conf_driven_net()
    only_own = records_for(np.array([[binary_conf_logit(0.90)]]), [1])
    assert float(
        nm.value_of(substitute_losses(net, only_own, 0.95, 0.90)[1])
    ) == pytest.approx(0.05, rel=1e-12)
    only_later = records_for(np.array([[binary_conf_logit(0.93)]]), [2])
    assert float(
        nm.value_of(substitute_losses(net, only_later, 0.95, 0.90)[1])
    ) == pytest.approx(0.03, rel=1e-12)


def test_strategy_loss_rejects_bad_inputs():
    net = conf_driven_net()
    recs = records_for(np.array([[1.0]]), [3])  # labeled past the last exit
    with pytest.raises(ContractError):
        substitute_losses(net, recs, 0.95, 0.90)
    ok = records_for(np.array([[1.0]]), [1])
    with pytest.raises(ContractError):
        substitute_losses(net, ok, 0.8, 0.9)


# -- substitute training -----------------------------------------------------


def training_records(n=48, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    victim = rng.dirichlet(np.ones(3), size=n)
    exits = rng.integers(1, 3, size=n)
    return RecordBatch(x, victim, exits)


def test_lambda_zero_is_bitwise_the_baseline():
    recs = training_records()
    cfg = AttackConfig(epochs=3, lr=0.1, batch_size=16, seed=11, lambda_strategy=0.0)
    a = dense_net(widths=(3, 6, 6), exits=2, classes=3, seed=4)
    b = dense_net(widths=(3, 6, 6), exits=2, classes=3, seed=4)
    _, trace_a = train_substitute(a, recs, cfg)
    # the baseline ignores whatever lambda the config carries
    _, trace_b = train_baseline(b, recs, AttackConfig(
        epochs=3, lr=0.1, batch_size=16, seed=11, lambda_strategy=0.7,
    ))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    for ra, rb in zip(trace_a, trace_b):
        assert ra.total == rb.total == ra.performance
        assert ra.strategy == rb.strategy  # measured either way, just not used


def test_training_is_deterministic_and_learns():
    recs = training_records()
    cfg = AttackConfig(epochs=6, lr=0.2, batch_size=16, seed=3, lambda_strategy=0.5)
    a = dense_net(widths=(3, 8, 8), exits=2, classes=3, seed=9)
    b = dense_net(widths=(3, 8, 8), exits=2, classes=3, seed=9)
    _, trace_a = train_substitute(a, recs, cfg)
    _, trace_b = train_substitute(b, recs, cfg)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    assert trace_a[-1].total < trace_a[0].total
    assert [r.total for r in trace_a] == [r.total for r in trace_b]

    c = dense_net(widths=(3, 8, 8), exits=2, classes=3, seed=9)
    _, _ = train_substitute(c, recs, AttackConfig(
        epochs=6, lr=0.2, batch_size=16, seed=4, lambda_strategy=0.5,
    ))
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.parameters(), c.parameters()))


def test_training_zero_epochs_is_a_no_op():
    recs = training_records()
    net = dense_net(widths=(3, 6, 6), exits=2, classes=3, seed=1)
    before = [p.copy() for p in net.parameters()]
    _, trace = train_substitute(net, recs, AttackConfig(epochs=0))
    assert trace == []
    for p, q in zip(net.parameters(), before):
        assert np.array_equal(p, q)


@pytest.mark.parametrize(
    "knobs",
    [
        {"epochs": -1},
        {"lr": 0.0},
        {"batch_size": 0},
        {"lr": float("nan")},
        {"lr": float("inf")},
    ],
    ids=["epochs", "lr_zero", "batch_size", "lr_nan", "lr_inf"],
)
def test_training_rejects_bad_sgd_knobs(knobs):
    # AttackConfig holds them; numerics.sgd checks them
    recs = training_records()
    net = dense_net(widths=(3, 6, 6), exits=2, classes=3, seed=1)
    before = [p.copy() for p in net.parameters()]
    with pytest.raises(ContractError):
        train_substitute(net, recs, AttackConfig(**knobs))
    for p, q in zip(net.parameters(), before):
        assert np.array_equal(p, q)


def test_training_rejects_labels_past_the_last_exit():
    recs = training_records()
    recs = RecordBatch(recs.inputs, recs.victim_probs, np.full(len(recs), 5))
    net = dense_net(widths=(3, 6, 6), exits=2, classes=3, seed=1)
    with pytest.raises(ContractError):
        train_substitute(net, recs, AttackConfig(epochs=1))


def test_write_loss_trace_format(tmp_path):
    recs = training_records()
    net = dense_net(widths=(3, 6, 6), exits=2, classes=3, seed=1)
    _, trace = train_substitute(net, recs, AttackConfig(epochs=2, seed=0))
    path = tmp_path / "trace.csv"
    write_loss_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,performance_loss,strategy_loss,total"
    assert len(lines) == 3
    for row, line in zip(trace, lines[1:]):
        assert line == f"{row.epoch},{row.performance!r},{row.strategy!r},{row.total!r}"
        # full repr round-trips the float exactly
        assert float(line.split(",")[3]) == row.total


# -- fused records against the primitive chains ------------------------------


def margin_probs(rng, n, exit_count, classes=3):
    """A stack of per-exit probability rows rounded to 2 decimals: many
    exact ties (also of the row max) and maxima sitting on phi1/phi2."""
    probs = []
    for _ in range(exit_count):
        p = np.round(rng.dirichlet(np.full(classes, 0.5), size=n), 2)
        for row, head in zip(p, ([0.95, 0.05], [0.05, 0.9, 0.05], [0.4, 0.4, 0.2])):
            row[:] = 0.0
            row[: len(head)] = head
        probs.append(p)
    return np.stack(probs)


@pytest.mark.parametrize("exit_count", [2, 3, 4, 5])
@pytest.mark.parametrize("groups", ["all", "gaps", "single_first", "single_last", "none"])
def test_exit_margins_is_bitwise_the_margin_chain(exit_count, groups):
    rng = np.random.default_rng(exit_count)
    n = 12
    probs = margin_probs(rng, n, exit_count)
    exits = {
        "all": np.arange(n) % exit_count + 1,
        "gaps": np.where(np.arange(n) % 2 == 0, 1, exit_count),  # middle groups empty
        "single_first": np.ones(n, dtype=int),
        "single_last": np.full(n, exit_count),
        "none": np.full(n, exit_count + 1),  # no group: the constant 0.0
    }[groups]

    def make_args(tape):
        node = tape.param(probs)
        return (node, exits, 0.95, 0.90), [node]

    for scale in (0.5, -1.0):
        value = fused_vs_chain(nm.exit_margins, chain_exit_margins, make_args, scale)
    assert (value == 0.0) if groups == "none" else (value > 0.0)
    assert_bitwise(
        nm.exit_margins(probs, exits, 0.95, 0.90), chain_exit_margins(probs, exits, 0.95, 0.90)
    )


def test_exit_margins_rejects_bad_exit_labels():
    probs = margin_probs(np.random.default_rng(0), 4, 2)
    for exits in (np.array([1.0, 2.0, 1.5, 2.0]), np.array([1, 2, 2])):
        with pytest.raises(ContractError, match="exit labels must be integers"):
            nm.exit_margins(probs, exits, 0.95, 0.90)


MARGIN_GROUPS = {
    "all": lambda n, k: np.arange(n) % k + 1,
    "gaps": lambda n, k: np.where(np.arange(n) % 2 == 0, 1, k),
    "first_only": lambda n, k: np.ones(n, dtype=int),
}


@pytest.mark.parametrize("batch", [1, 3, 129, 512])
@pytest.mark.parametrize("classes", [3, 10])
@pytest.mark.parametrize("groups", sorted(MARGIN_GROUPS))
def test_substitute_loss_records_are_bitwise_the_chains_at_size(batch, classes, groups):
    # both loss records on one probability stack, as in training: 10
    # classes make row sums pairwise, batches past 128 the batch means. The
    # target's zeros give -0.0 KL gradients; with "gaps" and "first_only"
    # the margins reach only some exits, whose other slabs must add nothing
    rng = np.random.default_rng(batch * classes)
    exit_count = 4
    probs = margin_probs(rng, batch, exit_count, classes)
    probs /= probs.sum(axis=2, keepdims=True)
    target = rng.dirichlet(np.ones(classes), size=batch)
    target[::2, 0] = 0.0
    target /= target.sum(axis=1, keepdims=True)
    exits = MARGIN_GROUPS[groups](batch, exit_count)

    def losses(mean_kl, exit_margins):
        return lambda p: mean_kl(target, p) + 0.5 * exit_margins(p, exits, 0.95, 0.90)

    def make_args(tape):
        node = tape.param(probs)
        return (node,), [node]

    for scale in (1.0, -0.7):
        fused_vs_chain(
            losses(nm.mean_kl, nm.exit_margins),
            losses(chain_mean_kl, chain_exit_margins),
            make_args,
            scale,
        )


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_training_is_bitwise_the_unfused_path(kind, monkeypatch):
    rng = np.random.default_rng(21)
    n, classes = 40, 3
    if kind == "dense":
        make = lambda seed: dense_net(widths=(5, 8, 8, 8), exits=3, classes=classes, seed=seed)
        x = rng.normal(size=(n, 5))
    else:
        make = lambda seed: conv_net(classes=classes, seed=seed)
        x = rng.normal(size=(n, 2, 6, 6))
    labels = rng.integers(0, classes, size=n)
    exit_count = make(0).exit_count
    batch = RecordBatch(x, rng.dirichlet(np.ones(classes), size=n),
                        rng.integers(1, exit_count + 1, size=n))
    cfg = AttackConfig(epochs=1, lr=0.1, batch_size=16, seed=5, lambda_strategy=0.5)

    def one_epoch_each():
        victim = train_victim(make(1), x, labels, epochs=1, lr=0.1, seed=4, batch_size=16)
        ours, trace_ours = train_substitute(make(2), batch, cfg)
        base, trace_base = train_baseline(make(2), batch, cfg)
        nets = [victim, ours, base]
        return [p.copy() for net in nets for p in net.parameters()], trace_ours + trace_base

    fused_params, fused_trace = one_epoch_each()
    calls = use_unfused_chains(monkeypatch)
    chain_params, chain_trace = one_epoch_each()
    # every fused record of the training step went through its chain
    blocks = {"dense"} if kind == "dense" else {"conv2d", "dense"}
    assert set(calls) == blocks | {"softmax", "mean_kl", "cross_entropy_sum", "exit_margins"}
    for a, b in zip(fused_params, chain_params):
        assert_bitwise(a, b)
    assert fused_trace == chain_trace


# -- exit-label estimation against a live deployment -------------------------


def noiseless_deployment(strategy=None):
    net = conf_driven_net()
    timing = TimingModel.proportional(net, per_flop=1e-3, noise_sigma=0.0, seed=0)
    return VictimDeployment(
        net, strategy or OutputStrategy.uniform(0.9, 2), timing
    )


def label_queries(dep, calib, queries):
    """The pipeline's query -> estimate_exits -> training-batch composition:
    time the calibration probes, then the queries (one noise stream, in
    that order), segment the calibration runtimes, label every query."""
    _, calib_runtimes = query_timed_many(dep, calib)
    result = detect_changepoints(calib_runtimes)
    probs, runtimes = query_timed_many(dep, queries)
    batch = RecordBatch(queries, probs, assign_exits(runtimes, result))
    return result, batch, runtimes


def test_estimate_exit_labels_noiseless_exact():
    dep = noiseless_deployment()
    # calibration covers both exits: conf 0.99 stops at exit 1, 0.60 falls
    # through to exit 2
    calib = np.array(
        [[binary_conf_logit(0.99)]] * 20 + [[binary_conf_logit(0.60)]] * 20
    )
    rng = np.random.default_rng(0)
    queries = rng.choice(
        [binary_conf_logit(0.99), binary_conf_logit(0.60)], size=(30, 1)
    )
    result, batch, runtimes = label_queries(dep, calib, queries)
    assert result.exit_count == 2

    true_exits, _, _, true_probs = cascade(dep.net, queries, dep.strategy)
    base = exit_base_times(dep.net, dep.timing)
    assert len(batch) == 30
    for i in range(30):
        assert batch.exits[i] == int(true_exits[i])
        assert np.allclose(batch.victim_probs[i], true_probs[i], atol=1e-12)
        assert runtimes[i] == base[true_exits[i] - 1]
        assert np.array_equal(batch.inputs[i], queries[i])


def test_estimate_exit_labels_single_cluster():
    # a victim that never exits early produces one runtime cluster; the
    # attacker then sees a single-exit model
    dep = noiseless_deployment(OutputStrategy.never_early(2))
    calib = np.linspace(0.5, 2.0, 25)[:, None]
    queries = np.linspace(0.7, 1.8, 10)[:, None]
    result, batch, _ = label_queries(dep, calib, queries)
    assert result.exit_count == 1
    assert np.all(batch.exits == 1)


def test_estimated_labels_match_victim_probs_stream():
    # the batch carries exactly the probabilities a query of the same
    # inputs returns
    dep = noiseless_deployment()
    calib = np.array(
        [[binary_conf_logit(0.99)]] * 15 + [[binary_conf_logit(0.60)]] * 15
    )
    queries = np.array([[binary_conf_logit(p)] for p in (0.95, 0.7, 0.99, 0.55)])
    _, batch, _ = label_queries(dep, calib, queries)
    probs, _ = query_timed_many(dep, queries)
    for row, p in zip(batch.victim_probs, probs):
        assert np.allclose(row, p, atol=1e-12)
