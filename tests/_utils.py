"""Shared test helpers: finite-difference gradient checks and tiny nets."""

from collections import Counter

import numpy as np

from exitsteal import numerics as nm
from exitsteal.multiexit import (
    BackboneSpec,
    MultiExitNet,
    build_evenly_partitioned,
)


def numeric_grad(fn, arrays, h=1e-5):
    """Central finite differences of fn(list-of-arrays) -> float."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn(arrays)
            flat[i] = orig - h
            lo = fn(arrays)
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom) if a.size else 0.0


def check_grads(build, arrays, tol=1e-4, h=1e-5):
    """build(list-of-Nodes) -> scalar Node; compares analytic to numeric.

    Returns the worst relative error so callers can assert against tol."""
    tape = nm.GradTape()
    nodes = [tape.param(a.copy()) for a in arrays]
    loss = build(nodes)
    grads = nm.grad(loss, tape)
    analytic = [grads[n] for n in nodes]

    def fn(arrs):
        t2 = nm.GradTape()
        ns = [t2.param(a) for a in arrs]
        return float(nm.value_of(build(ns)))

    numeric = numeric_grad(fn, [a.copy() for a in arrays], h=h)
    worst = max(rel_err(an, nu) for an, nu in zip(analytic, numeric))
    assert worst <= tol, f"gradient mismatch: worst relative error {worst:.3e}"
    return worst


def dense_net(widths=(5, 8, 8, 8), exits=2, classes=3, seed=0) -> MultiExitNet:
    spec = BackboneSpec.dense(widths)
    return build_evenly_partitioned(spec, exits, classes, seed)


def conv_net(channels=(2, 4, 4), exits=2, classes=3, seed=0, hw=(6, 6)) -> MultiExitNet:
    spec = BackboneSpec.conv(channels, kernel=3, stride=1)
    return build_evenly_partitioned(spec, exits, classes, seed, input_hw=hw)


def bias_only_net(head_logits, in_dim=3) -> MultiExitNet:
    """A dense net whose every weight is zero and whose head biases are the
    given per-exit logit vectors, so each exit emits a constant softmax.

    head_logits: sequence of 1-D logit vectors, one per exit (equal length).
    """
    head_logits = [np.asarray(h, dtype=float) for h in head_logits]
    k = len(head_logits)
    classes = head_logits[0].shape[0]
    assert all(h.shape == (classes,) for h in head_logits)
    width = 4
    widths = (in_dim,) + (width,) * k
    net = build_evenly_partitioned(BackboneSpec.dense(widths), k, classes, seed=0)
    for p in net.parameters():
        p[...] = 0.0
    params = net.parameters()
    # head parameters sit after the 2*B block entries: weight, bias per head
    b = len(widths) - 1
    for j, logits in enumerate(head_logits):
        params[2 * b + 2 * j + 1][...] = logits
    return net


def binary_conf_logit(p):
    """Logit a with softmax([a, 0]) = [p, 1-p]; conf of the 2-class head."""
    return float(np.log(p / (1.0 - p)))


# ---------------------------------------------------------------------------
# unfused primitive chains: the references the fused records must equal bit
# for bit (same signatures as the fused records they stand for). The stacked
# records take (K, batch, classes) stacks; their chains work exit by exit on
# the stack's slabs.

_CHAIN_ACTIVATIONS = {None: lambda h: h, "relu": nm.relu, "tanh": nm.tanh}

# the records themselves, kept before any monkeypatch
_conv2d = nm.conv2d
_softmax = nm.softmax


def exit_slab(x, k):
    """Slab k of a stack, as a record. Its gradient is -0.0 off the slab:
    -0.0 is the additive identity, so the slabs' gradients add up to the
    stack's bit for bit, signed zeros included."""
    xn, xv = nm._split(x)

    def backward(g):
        z = np.full_like(xv, -0.0)
        z[k] = g
        return (z,)

    return nm._emit(nm._tape_of(xn), xv[k], (xn,), backward)


def exit_slabs(x):
    return [exit_slab(x, k) for k in range(nm.value_of(x).shape[0])]


def add_left(terms):
    """terms[0] + terms[1] + ... as a chain of `add` records."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def chain_dense(x, w, b, activation=None):
    return _CHAIN_ACTIVATIONS[activation](nm.add(nm.matmul(x, w), b))


def chain_conv2d(x, weight, bias, stride=1, activation=None):
    return _CHAIN_ACTIVATIONS[activation](_conv2d(x, weight, bias, stride=stride))


def chain_softmax(x):
    return nm.stack([_softmax(s) for s in exit_slabs(x)])


def chain_mean_kl(target, probs):
    return add_left([nm.mean_all(nm.kl_div(target, p)) for p in exit_slabs(probs)])


def chain_cross_entropy_sum(logits, labels):
    return add_left([nm.cross_entropy(lg, labels) for lg in exit_slabs(logits)])


def chain_exit_margins(probs, exits, phi1, phi2):
    """The strategy loss's margin terms built from primitive records."""
    conf = [nm.max_last(p) for p in exit_slabs(probs)]
    exit_count = len(conf)
    groups = [np.flatnonzero(exits == i) for i in range(1, exit_count + 1)]
    total = None
    for i in range(exit_count - 1):  # exit i+1, 1-based
        own = groups[i]
        if own.size:
            term = nm.mean_all(nm.hinge(phi1, nm.take_rows(conf[i], own)))
            total = term if total is None else total + term
        for j in range(i + 1, exit_count):
            later = groups[j]
            if later.size:
                term = nm.mean_all(nm.hinge_excess(nm.take_rows(conf[i], later), phi2))
                total = term if total is None else total + term
    if total is None:
        total = np.float64(0.0)
    return total


CHAINS = {
    "dense": chain_dense,
    "conv2d": chain_conv2d,
    "softmax": chain_softmax,
    "mean_kl": chain_mean_kl,
    "cross_entropy_sum": chain_cross_entropy_sum,
    "exit_margins": chain_exit_margins,
}


def use_unfused_chains(monkeypatch) -> Counter:
    """Route every fused record through its primitive chain. Returns a
    Counter of the calls each routed name receives from then on."""
    calls = Counter()

    def counted(name, chain):
        def routed(*args, **kwargs):
            calls[name] += 1
            return chain(*args, **kwargs)

        return routed

    for name, chain in CHAINS.items():
        monkeypatch.setattr(nm, name, counted(name, chain))
    return calls


def assert_bitwise(a, b) -> None:
    """Same dtype, shape and bytes (so also the same signed zeros)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def fused_vs_chain(fused, chain, make_args, scale=1.0):
    """Build the loss `fused(*args) * scale` and `chain(*args) * scale` on
    fresh tapes, where `make_args(tape)` returns (args, parameter nodes).
    Asserts equal values and equal parameter gradients, bit for bit, and
    returns the fused value."""
    results = []
    for fn in (fused, chain):
        tape = nm.GradTape()
        args, params = make_args(tape)
        out = fn(*args)
        grads = None
        if isinstance(out, nm.Node):
            g = nm.grad(nm.sum_all(nm.mul(out, scale)), tape)
            grads = [g[p] for p in params]
        results.append((nm.value_of(out), grads))
    (fused_value, fused_grads), (chain_value, chain_grads) = results
    assert_bitwise(fused_value, chain_value)
    assert (fused_grads is None) == (chain_grads is None)
    for a, b in zip(fused_grads or [], chain_grads or []):
        assert_bitwise(a, b)
    return fused_value
