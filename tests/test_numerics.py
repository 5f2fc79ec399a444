"""Gradient and value oracles for the reverse-mode tape.

Closed-form fixtures are frozen as literals computed by hand; gradients are
checked against central finite differences.
"""

import weakref

import numpy as np
import pytest

from exitsteal import numerics as nm
from exitsteal.attack import AttackConfig, RecordBatch, train_substitute
from exitsteal.errors import ContractError
from exitsteal.multiexit import BackboneSpec, build_evenly_partitioned
from exitsteal.victimlab import train_victim

from _utils import (
    assert_bitwise,
    chain_conv2d,
    chain_cross_entropy_sum,
    chain_dense,
    chain_mean_kl,
    chain_softmax,
    check_grads,
    cyclic_garbage,
    dense_net,
    fused_vs_chain,
    sum_all,
    tanh,
    traced_peak,
)

# hand values: ln 2 = 0.6931471805599453, ln 3 = 1.0986122886681098
LN2 = 0.6931471805599453
LN3 = 1.0986122886681098


# ---------------------------------------------------------------------------
# tape basics


def test_grad_requires_scalar_loss():
    tape = nm.GradTape()
    a = tape.param(np.ones(3))
    vec = nm.mul(a, 2.0)
    with pytest.raises(ContractError):
        nm.grad(vec, tape)


def test_tape_serves_one_backward_pass():
    tape = nm.GradTape()
    a = tape.param(np.array([1.0, 2.0]))
    loss = sum_all(nm.mul(a, a))
    assert np.array_equal(nm.grad(loss, tape)[a], [2.0, 4.0])
    # the replay released the records: a second grad must not quietly
    # return zero gradients, and the tape takes no new records
    with pytest.raises(ContractError, match="already replayed"):
        nm.grad(loss, tape)
    with pytest.raises(ContractError, match="already replayed"):
        nm.mul(a, 2.0)
    with pytest.raises(ContractError, match="already replayed"):
        tape.param(np.ones(2))


def _train(trainer, net):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 5))
    if trainer == "victim":
        return train_victim(net, x, rng.integers(0, 3, size=40), epochs=2, lr=0.1, seed=1,
                            batch_size=16)
    batch = RecordBatch(x, rng.dirichlet(np.ones(3), size=40), rng.integers(1, 3, size=40))
    cfg = AttackConfig(epochs=2, lr=0.1, batch_size=16, seed=1, lambda_strategy=0.5)
    return train_substitute(net, batch, cfg)[0]


@pytest.mark.parametrize("trainer", ["victim", "substitute"])
def test_training_leaves_no_cyclic_garbage(trainer):
    # each step's tape, nodes and closures are freed by reference counting
    # when sgd moves on, and the trained net's arrays when the net goes
    with cyclic_garbage() as garbage:
        net = _train(trainer, dense_net(widths=(5, 8, 8, 8), exits=2, classes=3, seed=0))
        refs = [weakref.ref(p) for p in net.parameters()]
        del net
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} of {len(refs)} parameter arrays outlived the net"
    left = {type(o).__name__ for o in garbage if isinstance(o, (nm.GradTape, nm.Node))}
    assert left == set()


def test_sgd_matches_hand_rolled_steps():
    # one parameter, loss = sum((p - t[take])^2) over each mini-batch:
    # the shared loop must visit the rows in the seeded permutation order
    # and apply p -= lr * g
    t = np.array([1.0, -2.0, 3.0, 0.5, -1.0])

    def batch_loss(bound, take):
        d = nm.add(bound[0], -t[take])
        return sum_all(nm.mul(d, d))

    p = np.array(0.25)
    seen = []
    nm.sgd([p], 5, batch_loss, epochs=2, lr=0.1, seed=3, batch_size=2, end_epoch=seen.append)
    want = 0.25
    rng = np.random.default_rng(3)
    for _ in range(2):
        order = rng.permutation(5)
        for start in range(0, 5, 2):
            want -= 0.1 * float(np.sum(2.0 * (want - t[order[start : start + 2]])))
    assert float(p) == want
    assert seen == [0, 1]


def test_sgd_step_holds_one_gradient_set():
    # an 8 x 256 dense net at batch 512: one gradient set is 3.6 MiB. A step
    # whose backward pass ran beside the previous step's gradients would
    # peak a whole set above the first step; the previous set is released
    # after the forward pass, before `grad`
    net = build_evenly_partitioned(BackboneSpec.dense((16,) + (256,) * 8), 4, 4, seed=2)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(3 * 512, 16)), rng.integers(0, 4, size=3 * 512)
    grad_set = sum(p.nbytes for p in net.parameters())
    assert 3.5 * 2**20 < grad_set < 3.7 * 2**20

    def batch_loss(bound, take):
        return nm.cross_entropy_sum(net.forward_exit_logits(x[take], params=bound), y[take])

    def peak(steps):
        params = [p.copy() for p in net.parameters()]
        return traced_peak(
            lambda: nm.sgd(params, steps * 512, batch_loss, epochs=1, lr=0.01, seed=0, batch_size=512)
        )

    one, three = peak(1), peak(3)
    assert three - one < grad_set / 2, f"three steps peak {(three - one) / 2**20:.2f} MiB higher"


@pytest.mark.parametrize(
    "knob, value",
    [
        ("epochs", -1),
        ("lr", 0.0),
        ("lr", -1.0),
        ("lr", float("inf")),
        ("lr", float("nan")),
        ("batch_size", 0),
        ("epochs", 1.5),
        ("epochs", True),
        ("epochs", "2"),
        ("batch_size", 1.5),
        ("batch_size", True),
        ("batch_size", np.float64(2.0)),
    ],
)
def test_sgd_rejects_bad_hyperparameters(knob, value):
    p = np.array(0.25)
    knobs = {"epochs": 1, "lr": 0.1, "batch_size": 2, knob: value}
    with pytest.raises(ContractError, match=f"{knob} must be "):
        nm.sgd([p], 5, None, seed=3, **knobs)
    assert float(p) == 0.25


def test_unused_parameter_gets_zero_gradient():
    tape = nm.GradTape()
    a = tape.param(np.array([1.0, 2.0]))
    b = tape.param(np.array([3.0]))
    loss = sum_all(nm.mul(a, a))
    grads = nm.grad(loss, tape)
    assert np.array_equal(grads[b], np.zeros(1))
    assert np.allclose(grads[a], [2.0, 4.0])


def test_node_reuse_accumulates_like_product_rule():
    # f = (a*b) + (a*b): both branches share the same intermediate node
    tape = nm.GradTape()
    a = tape.param(np.array(3.0))
    b = tape.param(np.array(5.0))
    ab = nm.mul(a, b)
    loss = nm.add(ab, ab)
    grads = nm.grad(loss, tape)
    assert grads[a] == pytest.approx(10.0, abs=0)
    assert grads[b] == pytest.approx(6.0, abs=0)


def test_operator_sugar_matches_functions():
    tape = nm.GradTape()
    a = tape.param(np.array([1.0, -2.0]))
    out = 2.0 * a + 1.0 - (-a)
    assert np.allclose(nm.value_of(out), [4.0, -5.0])
    grads = nm.grad(sum_all(out), tape)
    assert np.allclose(grads[a], [3.0, 3.0])


# ---------------------------------------------------------------------------
# value fixtures


def test_softmax_hand_values():
    p = nm.softmax(np.array([LN2, 0.0]))
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_overflow_guard():
    p = nm.softmax(np.array([1000.0, 1000.0]))
    assert np.array_equal(p, [0.5, 0.5])
    q = nm.softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(q)) and abs(q.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance_is_bitwise_on_dyadic_grids():
    # logits k * 2^-20 and a power-of-two shift: both the shifted logits and
    # the max-subtracted differences are exactly representable, so the two
    # softmax results must agree bit for bit
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.integers(-(2**20), 2**20, size=(4, 5)).astype(np.float64) * 2.0**-20
        shifted = z + 2.0
        a = nm.softmax(z)
        b = nm.softmax(shifted)
        assert np.array_equal(a, b)


def test_softmax_rejects_single_class_and_non_finite():
    with pytest.raises(ContractError):
        nm.softmax(np.array([1.0]))
    with pytest.raises(ContractError):
        nm.softmax(np.array([np.nan, 0.0]))


def test_kl_hand_value():
    # KL([1/2,1/2] || [1/4,3/4]) = 0.5 ln 2 + 0.5 ln(2/3)
    target = np.array([0.5, 0.5])
    pred = np.array([0.25, 0.75])
    val = nm.value_of(nm.kl_div(target, pred))
    assert val == pytest.approx(0.14384103622589045, abs=1e-12)


def test_kl_zero_when_equal():
    p = np.array([0.3, 0.7])
    assert nm.value_of(nm.kl_div(p, p)) == pytest.approx(0.0, abs=1e-15)


def test_kl_clamp_on_zero_prediction():
    # predicted mass 0 is clamped at 1e-12: KL([1,0] || [0,1]) -> ln(1e12)
    val = nm.value_of(nm.kl_div(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert val == pytest.approx(27.631021115928547, abs=1e-9)


def test_kl_rowwise_on_matrices():
    target = np.array([[0.5, 0.5], [1.0, 0.0]])
    pred = np.array([[0.25, 0.75], [1.0, 0.0]])
    rows = nm.value_of(nm.kl_div(target, pred))
    assert rows.shape == (2,)
    assert rows[0] == pytest.approx(0.14384103622589045, abs=1e-12)
    assert rows[1] == pytest.approx(0.0, abs=1e-15)


def test_kl_rejects_non_distributions():
    with pytest.raises(ContractError):
        nm.kl_div(np.array([0.9, 0.2]), np.array([0.5, 0.5]))
    with pytest.raises(ContractError):
        nm.kl_div(np.array([0.5, 0.5]), np.array([0.7, 0.7]))


def test_cross_entropy_hand_value():
    logits = np.zeros((2, 3))
    labels = np.array([0, 2])
    val = nm.value_of(nm.cross_entropy(logits, labels))
    assert val == pytest.approx(LN3, abs=1e-12)


def test_cross_entropy_label_validation():
    with pytest.raises(ContractError):
        nm.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ContractError):
        nm.cross_entropy(np.zeros((2, 3)), np.array([0.5, 1.0]))


def test_hinge_values_and_kink():
    tape = nm.GradTape()
    v = tape.param(np.array([0.90]))
    # below the bar: hinge(0.95, 0.90) = 0.05, gradient -1
    loss = sum_all(nm.hinge(0.95, v))
    assert nm.value_of(loss) == pytest.approx(0.05, abs=1e-12)
    assert np.allclose(nm.grad(loss, tape)[v], [-1.0])
    # at the kink the subgradient is 0
    tape2 = nm.GradTape()
    v2 = tape2.param(np.array([0.95]))
    loss2 = sum_all(nm.hinge(0.95, v2))
    assert nm.value_of(loss2) == 0.0
    assert np.array_equal(nm.grad(loss2, tape2)[v2], [0.0])


def test_hinge_excess_values_and_kink():
    tape = nm.GradTape()
    v = tape.param(np.array([0.93, 0.80]))
    loss = sum_all(nm.hinge_excess(v, 0.90))
    assert nm.value_of(loss) == pytest.approx(0.03, abs=1e-12)
    g = nm.grad(loss, tape)[v]
    assert np.array_equal(g, [1.0, 0.0])


def test_max_last_takes_first_argmax():
    tape = nm.GradTape()
    x = tape.param(np.array([[0.2, 0.5, 0.5]]))
    m = nm.max_last(x)
    assert nm.value_of(m) == pytest.approx(0.5)
    g = nm.grad(sum_all(m), tape)[x]
    assert np.array_equal(g, [[0.0, 1.0, 0.0]])


def test_take_rows_accumulates_duplicates():
    tape = nm.GradTape()
    x = tape.param(np.arange(6.0).reshape(3, 2))
    picked = nm.take_rows(x, np.array([0, 0, 2]))
    loss = sum_all(picked)
    g = nm.grad(loss, tape)[x]
    assert np.array_equal(g, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_mean_all_empty_rejected():
    with pytest.raises(ContractError):
        nm.mean_all(np.zeros((0,)))


def test_matmul_requires_2d():
    with pytest.raises(ContractError):
        nm.matmul(np.zeros((2, 3, 4)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# finite-difference gradient checks


def test_grad_matmul_chain():
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(4, 5))
    w2 = rng.normal(size=(5, 3))
    x = rng.normal(size=(2, 4))

    def build(nodes):
        h = nm.relu(nm.matmul(x, nodes[0]))
        return sum_all(tanh(nm.matmul(h, nodes[1])))

    check_grads(build, [w1, w2])


def test_grad_softmax_kl():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(3, 4))
    target = nm.softmax(rng.normal(size=(3, 4)))

    def build(nodes):
        return nm.mean_all(nm.kl_div(target, nm.softmax(nodes[0])))

    check_grads(build, [logits])


def test_grad_cross_entropy():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])

    def build(nodes):
        return nm.cross_entropy(nodes[0], labels)

    check_grads(build, [logits])


def test_grad_hinge_terms():
    rng = np.random.default_rng(3)
    # keep values away from the kink so finite differences are valid
    v = 0.5 + 0.4 * rng.uniform(size=6)
    v[v > 0.93] -= 0.05

    def build(nodes):
        a = nm.mean_all(nm.hinge(0.95, nodes[0]))
        b = nm.mean_all(nm.hinge_excess(nodes[0], 0.40))
        return nm.add(a, b)

    check_grads(build, [v])


def test_grad_max_last_and_take_rows():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 4))
    idx = np.array([1, 1, 3])

    def build(nodes):
        return sum_all(nm.max_last(nm.take_rows(nodes[0], idx)))

    check_grads(build, [x])


def test_grad_conv2d_and_gap():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3)) * 0.3
    b = rng.normal(size=(3,)) * 0.1

    def build(nodes):
        out = nm.relu(nm.conv2d(nodes[0], nodes[1], nodes[2], stride=1))
        return sum_all(nm.global_avg_pool(out))

    check_grads(build, [x, w, b])


def test_grad_conv2d_stride_two():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 2, 6, 6))
    w = rng.normal(size=(2, 2, 3, 3)) * 0.3
    b = np.zeros(2)

    def build(nodes):
        return sum_all(nm.conv2d(nodes[0], nodes[1], nodes[2], stride=2))

    check_grads(build, [x, w, b])


def test_grad_broadcast_add_bias():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))

    def build(nodes):
        return sum_all(tanh(nm.add(x, nodes[0])))

    check_grads(build, [b])


# ---------------------------------------------------------------------------
# fused records against the primitive chains they replace, bit for bit


def freeze(*arrays):
    """The arrays made read-only, as a deployed victim's parameters are,
    and copies to check afterwards that nothing wrote into them."""
    for a in arrays:
        a.setflags(write=False)
    return [a.copy() for a in arrays]


@pytest.mark.parametrize("input_is_node", [False, True])
@pytest.mark.parametrize("activation", [None, "relu", "tanh"])
def test_dense_is_bitwise_the_matmul_add_activation_chain(activation, input_is_node):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 4))
    x[0] = 0.0  # with a zero bias entry below, relu sits exactly on its kink
    w = rng.normal(size=(4, 3))
    b = np.array([0.0, 0.3, -0.0])
    # row 2 against column 2 is a dot product of products that underflow
    # below the smallest subnormal; the BLAS kernel's fused multiply-adds
    # round it to -0.0, which the -0.0 bias keeps: a pre-activation of -0.0
    x[2] = -1e-200
    w[:, 2] = 1e-200
    pre = x @ w + b
    assert pre[0, 0] == 0.0 and not np.signbit(pre[0, 0])
    assert pre[2, 2] == 0.0 and np.signbit(pre[2, 2])
    # a downstream weight with zeros and negatives makes the incoming
    # gradient uneven and produces signed zeros
    scale = rng.normal(size=(6, 3))
    scale[1] = 0.0
    before = freeze(x, w, b)

    def make_args(tape):
        params = [tape.param(w), tape.param(b)]
        if input_is_node:
            params.insert(0, tape.param(x))
            return (params[0], params[1], params[2], activation), params
        return (x, params[0], params[1], activation), params

    fused_vs_chain(nm.dense, chain_dense, make_args, scale)
    # plain arrays: the value alone
    assert_bitwise(nm.dense(x, w, b, activation), chain_dense(x, w, b, activation))
    for a, copy in zip((x, w, b), before):
        assert_bitwise(a, copy)
    with pytest.raises(ContractError):
        nm.dense(x[0], w, b)
    with pytest.raises(ContractError):
        nm.dense(x, w, b, "sigmoid")


@pytest.mark.parametrize("input_is_node", [False, True])
@pytest.mark.parametrize("activation", [None, "relu", "tanh"])
def test_conv2d_is_bitwise_the_conv_activation_chain(activation, input_is_node):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(3, 2, 6, 6))
    x[0, :, :3, :3] = 0.0  # with the zero bias below, relu sits on its kink
    w = rng.normal(size=(4, 2, 3, 3)) * 0.5
    b = np.array([0.0, 0.3, -0.2, 0.1])
    scale = rng.normal(size=(3, 4, 4, 4))
    scale[1] = 0.0
    before = freeze(x, w, b)

    def make_args(tape):
        params = [tape.param(w), tape.param(b)]
        if input_is_node:
            params.insert(0, tape.param(x))
            return (params[0], params[1], params[2], 1, activation), params
        return (x, params[0], params[1], 1, activation), params

    fused_vs_chain(nm.conv2d, chain_conv2d, make_args, scale)
    for stride in (1, 2):
        fused = nm.conv2d(x, w, b, stride=stride, activation=activation)
        assert_bitwise(fused, chain_conv2d(x, w, b, stride=stride, activation=activation))
    # the convolution's arithmetic itself: the einsum, then the bias
    windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
    plain = np.einsum("bcyxij,ocij->boyx", windows, w) + b[None, :, None, None]
    assert_bitwise(nm.conv2d(x, w, b), plain)
    for a, copy in zip((x, w, b), before):
        assert_bitwise(a, copy)
    with pytest.raises(ContractError):
        nm.conv2d(x, w, b, activation="sigmoid")


@pytest.mark.parametrize("activation", [None, "relu", "tanh"])
def test_dense_allocates_one_output_array(activation):
    # past the output there is only the ufunc iterator's fixed 64 KiB
    # buffer for the broadcast bias add; a second (B, W) array would add 4 MB
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2000, 256))
    w = rng.normal(size=(256, 256))
    b = rng.normal(size=256)
    out_bytes = x.shape[0] * w.shape[1] * 8
    peak = traced_peak(lambda: nm.dense(x, w, b, activation))
    assert out_bytes <= peak <= out_bytes + 128 * 1024


@pytest.mark.parametrize("scale", [1.0, 0.7, -1.3])
def test_mean_kl_is_bitwise_mean_all_of_kl_div(scale):
    rng = np.random.default_rng(12)
    target = rng.dirichlet(np.ones(4), size=5)
    target[0] = [0.0, 0.5, 0.5, 0.0]  # zero targets contribute no term
    target[1] = [1.0, 0.0, 0.0, 0.0]
    pred = rng.dirichlet(np.ones(4), size=5)
    # predictions under LOG_CLAMP (and exact zeros) are clamped, with a zero
    # gradient there
    pred[2] = [1.0 - 3e-13, 1e-13, 2e-13, 0.0]
    pred[3] = [0.0, 0.0, 1.0, 0.0]

    stack = np.stack([pred, pred[::-1]])  # two exits

    def make_args(tape):
        p = tape.param(stack)
        return (target, p), [p]

    fused_vs_chain(nm.mean_kl, chain_mean_kl, make_args, scale)

    def make_row_args(tape):  # one probability vector per exit: scalar KLs
        p = tape.param(stack[:, 2])
        return (target[0], p), [p]

    fused_vs_chain(nm.mean_kl, chain_mean_kl, make_row_args, scale)
    with pytest.raises(ContractError):
        nm.mean_kl(target, stack[:, :, :3] / stack[:, :, :3].sum(axis=2, keepdims=True))
    with pytest.raises(ContractError):
        nm.mean_kl(target, stack * 2.0)
    with pytest.raises(ContractError, match="shapes differ"):
        nm.mean_kl(target, pred)  # one exit's predictions, not a stack


@pytest.mark.parametrize("exits", [1, 2, 4])
def test_cross_entropy_sum_is_bitwise_the_added_cross_entropies(exits):
    rng = np.random.default_rng(13)
    logits = [rng.normal(size=(7, 3)) * 4.0 for _ in range(exits)]
    labels = rng.integers(0, 3, size=7)

    def make_args(tape):
        # the second exit's logits stay constant: they get no gradient
        nodes = [l if k == 1 else tape.param(l) for k, l in enumerate(logits)]
        return (nm.stack(nodes), labels), [n for n in nodes if isinstance(n, nm.Node)]

    fused_vs_chain(nm.cross_entropy_sum, chain_cross_entropy_sum, make_args, 0.5)
    with pytest.raises(ContractError):
        nm.cross_entropy_sum(np.stack(logits), labels + 3)
    with pytest.raises(ContractError):
        nm.cross_entropy_sum(np.empty((0, 7, 3)), labels)
    with pytest.raises(ContractError):
        nm.cross_entropy_sum(logits[0], labels)  # one exit, not a stack


# batch sizes around numpy's pairwise-sum block of 128, and 10 classes,
# where row sums over the class axis are pairwise too
STACK_SIZES = [(b, c) for b in (1, 3, 129, 512) for c in (3, 10)]


def logits_stack(rng, exits, batch, classes):
    return rng.normal(size=(exits, batch, classes)) * 4.0


@pytest.mark.parametrize("batch,classes", STACK_SIZES)
def test_stacked_records_are_bitwise_the_per_exit_chains(batch, classes):
    rng = np.random.default_rng(batch + classes)
    logits = logits_stack(rng, 4, batch, classes)
    labels = rng.integers(0, classes, size=batch)
    target = rng.dirichlet(np.ones(classes), size=batch)
    target[::3, -1] = 0.0  # zero targets: -0.0 gradients
    target /= target.sum(axis=1, keepdims=True)

    def make_args_of(*rest):
        def make_args(tape):
            node = tape.param(logits)
            return (node, *rest), [node]

        return make_args

    fused_vs_chain(nm.softmax, chain_softmax, make_args_of(), 1.0)
    fused_vs_chain(nm.cross_entropy_sum, chain_cross_entropy_sum, make_args_of(labels), -0.5)

    def make_probs(tape):
        node = tape.param(logits)
        return (target, nm.softmax(node)), [node]

    fused_vs_chain(nm.mean_kl, chain_mean_kl, make_probs, 0.7)


def test_stacked_records_add_many_exits_left_to_right():
    # past 8 exits numpy's own sum of the per-exit terms would go pairwise
    rng = np.random.default_rng(38)
    logits = logits_stack(rng, 12, 40, 5)
    labels = rng.integers(0, 5, size=40)
    target = rng.dirichlet(np.ones(5), size=40)

    def make_args(tape):
        node = tape.param(logits)
        return (node, labels), [node]

    def make_probs(tape):
        node = tape.param(logits)
        return (target, nm.softmax(node)), [node]

    fused_vs_chain(nm.cross_entropy_sum, chain_cross_entropy_sum, make_args, 1.0)
    fused_vs_chain(nm.mean_kl, chain_mean_kl, make_probs, 1.0)
    # the premise: at this seed numpy's sum differs from both chains'
    terms = [nm.mean_all(nm.kl_div(target, p)) for p in nm.softmax(logits)]
    assert sum(terms[1:], terms[0]) != np.sum(terms)
    terms = [nm.cross_entropy(l, labels) for l in logits]
    assert sum(terms[1:], terms[0]) != np.sum(terms)


def test_batch_means_of_a_strided_gather_are_not_the_per_exit_means():
    # the regression the stacked records guard against: picking each
    # row's label entry from a (K, B, C) stack gives a strided (K, B)
    # array whose batch means numpy adds in another order than one exit's
    # 1-D mean, so they differ in the last bit; a C-contiguous copy agrees
    rng = np.random.default_rng(17)
    logp = logits_stack(rng, 4, 512, 10)
    labels = rng.integers(0, 10, size=512)
    per_exit = [l[np.arange(512), labels].mean() for l in logp]
    gathered = logp[:, np.arange(512), labels]
    assert not gathered.flags.c_contiguous
    assert any(a != b for a, b in zip(gathered.mean(axis=1), per_exit))
    assert_bitwise(np.ascontiguousarray(gathered).mean(axis=1), np.array(per_exit))
    # and the record is the chain at that size and gather
    fused = nm.cross_entropy_sum(logp, labels)
    assert_bitwise(fused, np.asarray(chain_cross_entropy_sum(logp, labels)))


def test_stack_gives_each_input_its_slab():
    rng = np.random.default_rng(18)
    parts = [rng.normal(size=(3, 2)) for _ in range(3)]
    tape = nm.GradTape()
    nodes = [tape.param(parts[0]), parts[1], tape.param(parts[2])]
    out = nm.stack(nodes)
    assert out.value.flags.c_contiguous
    assert_bitwise(out.value, np.stack(parts))
    weights = rng.normal(size=(3, 3, 2))
    grads = nm.grad(sum_all(nm.mul(out, weights)), tape)
    assert_bitwise(grads[nodes[0]], weights[0])
    assert_bitwise(grads[nodes[2]], weights[2])
    assert_bitwise(nm.stack(parts), np.stack(parts))
    with pytest.raises(ContractError):
        nm.stack([])
