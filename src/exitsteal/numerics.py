"""Dense float64 arrays plus a small reverse-mode tape.

Every op in this module is polymorphic: called on plain numpy arrays it just
computes the value; called with at least one `Node` argument it also appends
a gradient-pull record to that node's `GradTape`. Training code wraps
parameters in nodes via `GradTape.param`, runs the forward pass through the
same functions used for inference, and calls `grad`; `sgd` is the one
mini-batch loop built on that.

Everything is float64. Gradients are accumulated in reverse record order,
which makes the accumulation order deterministic for a fixed forward pass.

A tape step costs mostly per-record Python overhead, so the training hot
chains each have one fused record, and the K exits of a multi-exit net
travel as one C-contiguous (K, batch, classes) stack from the heads on
(`stack` makes it, and one `softmax` runs over it):

- `dense(x, w, b, activation)` for matmul -> add -> relu/tanh (or none),
  and `conv2d(x, w, b, stride, activation)` for its conv -> relu/tanh;
- `mean_kl(target, probs)` for the sum over the exits of a probability
  stack of mean_all(kl_div(target, probs[k])), added left to right like a
  chain of `add`s;
- `cross_entropy_sum(logits, labels)` for the sum of cross_entropy over
  the exits of a logits stack, added the same way;
- `exit_margins(probs, exits, phi1, phi2)` for the strategy loss's
  max_last -> take_rows -> hinge/hinge_excess -> mean_all -> add chain
  over the exits of a probability stack.

A fused record does the same arithmetic, in the same order, as the chain it
replaces, forward and backward, and hands each input the gradient the chain
would have accumulated for it (none where the chain gives none). Values and
gradients are therefore bit-identical to the primitive chain, which the
tests keep as the reference: per exit, on the stack's slabs. Two rules keep
the stacked records exact. A reduction over the batch axis runs on a
C-contiguous (K, batch) array, whose rows numpy sums like the 1-D array of
one exit (a strided gather would be summed in another order); reductions
over the class axis stay whole-row reductions. And where a stacked record
gives no gradient to an exit that the per-exit chain never reached, it
gives -0.0, the additive identity, so that adding another record's
gradient for that exit changes no bit.

Memory: `dense` and `conv2d`, the layers of every forward pass, allocate
one fresh array per call and finish it in place (bias add, activation).
They never write into their inputs, which may be read-only (a deployed
victim's parameters are), and their backward passes read the activation's
derivative from that output, so a tape holds one array per layer.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError

Array = np.ndarray

# Floor applied to predicted probabilities before taking logs. Keeps
# kl_div finite when a predicted class probability underflows to zero.
LOG_CLAMP = 1e-12

# Probability vectors must sum to one within this tolerance.
PROB_ATOL = 1e-9


class Node:
    """A value recorded on a GradTape. Holds the forward array and the tape
    that owns it; gradients are materialized by `grad`, not stored here."""

    __slots__ = ("value", "tape")

    def __init__(self, value: Array, tape: "GradTape"):
        self.value = value
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __repr__(self):
        return f"Node(shape={self.shape})"


class GradTape:
    """Ordered record of primitive ops plus a parameter registry.

    Single-writer: one forward pass per tape. `param` registers an array as
    a differentiable leaf; `grad` replays the records backward, releasing
    them as it goes, and returns one gradient per registered parameter
    (zeros if the parameter never reached the loss). A replayed tape takes
    no further records and no second `grad`.
    """

    def __init__(self):
        # Each record is (out_node, input_nodes, backward) where backward
        # maps the output gradient to one gradient per input node (None for
        # constant inputs). None once `grad` has replayed the tape.
        self._records: list[tuple[Node, tuple, Callable]] | None = []
        self._params: list[Node] = []

    def param(self, value) -> Node:
        arr = np.asarray(value, dtype=np.float64)
        node = Node(arr, self)
        self._params.append(node)
        return node

    def _record(self, out: Node, inputs: tuple, backward: Callable) -> None:
        if self._records is None:
            raise ContractError("tape was already replayed by grad; record on a new tape")
        self._records.append((out, inputs, backward))


def grad(loss: Node, tape: GradTape) -> dict[Node, Array]:
    """Reverse-mode gradients of a scalar loss for every registered parameter.

    Replays the tape once, accumulating exactly one contribution per recorded
    use of each node, in reverse record order. Parameters that never fed the
    loss get a zero gradient of their own shape. Each record is dropped as
    soon as it has been replayed: records and nodes point at each other, so
    a tape kept whole would wait for the cyclic garbage collector, holding
    every activation of the step. A second `grad` on the same tape raises.
    """
    if not isinstance(loss, Node):
        raise ContractError("loss must be a tape Node")
    if loss.tape is not tape:
        raise ContractError("loss was recorded on a different tape")
    if loss.value.shape != ():
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    records = tape._records
    if records is None:
        raise ContractError("tape was already replayed by grad")
    tape._records = None
    acc: dict[int, Array] = {id(loss): np.ones((), dtype=np.float64)}
    while records:
        out, inputs, backward = records.pop()
        g = acc.pop(id(out), None)
        if g is None:
            continue  # this record never reached the loss
        for node, gin in zip(inputs, backward(g)):
            if node is None or gin is None:
                continue
            cur = acc.get(id(node))
            acc[id(node)] = gin if cur is None else cur + gin
    out_map: dict[Node, Array] = {}
    for p in tape._params:
        g = acc.get(id(p))
        if g is None:
            g = np.zeros_like(p.value)
        out_map[p] = np.asarray(g, dtype=np.float64)
    return out_map


def sgd(params, n, batch_loss, *, epochs, lr, seed, batch_size, momentum=0.0, end_epoch=None):
    """Mini-batch SGD on the arrays `params`, updated in place.

    Each epoch draws one permutation of the `n` rows from a generator seeded
    with `seed` and walks it in slices of `batch_size`. For each slice
    `take`, `batch_loss(bound, take)` builds the loss on a fresh tape from
    the parameters bound as nodes (in `params` order); the update is
    p -= lr * g, with g replaced by the velocity momentum * v + g only when
    momentum > 0; `momentum` must lie in [0, 1). `end_epoch(epoch)` runs
    after each epoch's last update.
    """
    if not 0.0 <= momentum < 1.0:  # chained, so NaN fails too
        raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
    rng = np.random.default_rng(seed)
    velocity = [np.zeros_like(p) for p in params] if momentum > 0.0 else None
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            tape = GradTape()
            bound = [tape.param(p) for p in params]
            grads = grad(batch_loss(bound, take), tape)
            for i, (arr, node) in enumerate(zip(params, bound)):
                g = grads[node]
                if velocity is not None:
                    velocity[i] = momentum * velocity[i] + g
                    g = velocity[i]
                arr -= lr * g
        if end_epoch is not None:
            end_epoch(epoch)


# ---------------------------------------------------------------------------
# op plumbing


def as_array(x) -> Array:
    """Coerce an array-like constant to a float64 ndarray."""
    if isinstance(x, Node):
        raise ContractError("expected a constant value, got a tape Node")
    return np.asarray(x, dtype=np.float64)


def _split(x) -> tuple[Node | None, Array]:
    if isinstance(x, Node):
        return x, x.value
    return None, np.asarray(x, dtype=np.float64)


def _tape_of(*nodes: Node | None) -> GradTape | None:
    tape = None
    for n in nodes:
        if n is None:
            continue
        if tape is None:
            tape = n.tape
        elif n.tape is not tape:
            raise ContractError("inputs live on different tapes")
    return tape


def _emit(tape, value, inputs, backward):
    if tape is None:
        return value
    out = Node(value, tape)
    tape._record(out, inputs, backward)
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a, b):
    an, av = _split(a)
    bn, bv = _split(b)
    out = av + bv

    def backward(g):
        return (
            _unbroadcast(g, av.shape) if an is not None else None,
            _unbroadcast(g, bv.shape) if bn is not None else None,
        )

    return _emit(_tape_of(an, bn), out, (an, bn), backward)


def mul(a, b):
    an, av = _split(a)
    bn, bv = _split(b)
    out = av * bv

    def backward(g):
        return (
            _unbroadcast(g * bv, av.shape) if an is not None else None,
            _unbroadcast(g * av, bv.shape) if bn is not None else None,
        )

    return _emit(_tape_of(an, bn), out, (an, bn), backward)


def matmul(a, b):
    an, av = _split(a)
    bn, bv = _split(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ContractError("matmul expects 2-D operands")
    out = av @ bv

    def backward(g):
        return (
            g @ bv.T if an is not None else None,
            av.T @ g if bn is not None else None,
        )

    return _emit(_tape_of(an, bn), out, (an, bn), backward)


def relu(x):
    xn, xv = _split(x)
    out = np.maximum(xv, 0.0)

    def backward(g):
        return (g * (xv > 0.0),)

    return _emit(_tape_of(xn), out, (xn,), backward)


def tanh(x):
    xn, xv = _split(x)
    out = np.tanh(xv)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _emit(_tape_of(xn), out, (xn,), backward)


def _activate(z: Array, activation) -> None:
    """Apply `activation` ("relu", "tanh" or None) to `z` in place; `z` is
    the caller's own fresh array."""
    if activation == "relu":
        np.maximum(z, 0.0, out=z)
    elif activation == "tanh":
        np.tanh(z, out=z)
    elif activation is not None:
        raise ContractError(f"unknown activation {activation!r}")


def _activation_grad(g: Array, out: Array, activation) -> Array:
    """g times the activation's derivative, read from the activated output:
    relu's mask out > 0 equals z > 0 for every z, signed zeros included."""
    if activation == "relu":
        return g * (out > 0.0)
    if activation == "tanh":
        return g * (1.0 - out * out)
    return g


def dense(x, w, b, activation=None):
    """act(x @ w + b) as one record; `activation` is "relu", "tanh" or None.

    Same arithmetic as `relu`/`tanh` of `add(matmul(x, w), b)`. Allocates one
    array: the bias add and the activation run in place on the fresh matmul
    output, `x`, `w` and `b` are never written (they may be read-only), and
    the backward pass reads its relu mask from that output, so a tape keeps
    one array per call.
    """
    xn, xv = _split(x)
    wn, wv = _split(w)
    bn, bv = _split(b)
    if xv.ndim != 2 or wv.ndim != 2:
        raise ContractError("dense expects 2-D input and weight")
    out = xv @ wv
    out += bv
    _activate(out, activation)

    def backward(g):
        g = _activation_grad(g, out, activation)
        return (
            g @ wv.T if xn is not None else None,
            xv.T @ g if wn is not None else None,
            _unbroadcast(g, bv.shape) if bn is not None else None,
        )

    return _emit(_tape_of(xn, wn, bn), out, (xn, wn, bn), backward)


def stack(xs):
    """Equal-shape arrays or nodes stacked on a new leading axis, as one
    record: a fresh C-contiguous array whose slab k is xs[k]. Input k's
    gradient is slab k of the output's gradient."""
    split = [_split(x) for x in xs]
    if not split:
        raise ContractError("stack needs at least one array")
    out = np.stack([v for _, v in split])

    def backward(g):
        return tuple(g[k] if n is not None else None for k, (n, _) in enumerate(split))

    nodes = tuple(n for n, _ in split)
    return _emit(_tape_of(*nodes), out, nodes, backward)


def sum_all(x):
    xn, xv = _split(x)
    out = xv.sum()

    def backward(g):
        return (np.broadcast_to(g, xv.shape).astype(np.float64, copy=False),)

    return _emit(_tape_of(xn), out, (xn,), backward)


def mean_all(x):
    xn, xv = _split(x)
    if xv.size == 0:
        raise ContractError("mean of an empty value")
    out = xv.mean()
    inv = 1.0 / xv.size

    def backward(g):
        return (np.broadcast_to(g * inv, xv.shape).astype(np.float64, copy=False),)

    return _emit(_tape_of(xn), out, (xn,), backward)


def take_rows(x, indices):
    """Gather rows by integer index; gradient scatter-adds back."""
    xn, xv = _split(x)
    idx = np.asarray(indices, dtype=np.intp)
    out = xv[idx]

    def backward(g):
        z = np.zeros_like(xv)
        np.add.at(z, idx, g)
        return (z,)

    return _emit(_tape_of(xn), out, (xn,), backward)


def max_last(x):
    """Maximum over the last axis. Gradient routes to the first argmax."""
    xn, xv = _split(x)
    out = xv.max(axis=-1)
    idx = np.expand_dims(xv.argmax(axis=-1), -1)

    def backward(g):
        z = np.zeros_like(xv)
        np.put_along_axis(z, idx, np.expand_dims(g, -1), axis=-1)
        return (z,)

    return _emit(_tape_of(xn), out, (xn,), backward)


# ---------------------------------------------------------------------------
# probability / loss primitives


def softmax(x):
    """Row-wise softmax over the last axis, shifted by the row max.

    Rejects non-finite input and class counts < 2. Adding a constant to all
    logits leaves the output unchanged because the shift removes it before
    exponentiation.
    """
    xn, xv = _split(x)
    if xv.shape[-1] < 2:
        raise ContractError("softmax needs at least 2 classes")
    if not np.all(np.isfinite(xv)):
        raise ContractError("softmax input must be finite")
    shifted = xv - xv.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _emit(_tape_of(xn), out, (xn,), backward)


def check_prob(v: Array, who: str) -> None:
    """Raise ContractError unless the rows of `v` are probability vectors:
    at least 2 classes, nonnegative, summing to 1 within PROB_ATOL."""
    if v.shape[-1] < 2:
        raise ContractError(f"{who} needs at least 2 classes")
    if np.any(v < 0.0):
        raise ContractError(f"{who} must be nonnegative")
    sums = v.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= PROB_ATOL):
        raise ContractError(f"{who} rows must sum to 1 within {PROB_ATOL}")


def _kl_rows(tv: Array, pv: Array) -> tuple[Array, Array]:
    """KL(target || pred) over the last axis, and pred clamped at LOG_CLAMP."""
    clamped = np.maximum(pv, LOG_CLAMP)
    safe_t = np.where(tv > 0.0, tv, 1.0)
    terms = np.where(tv > 0.0, tv * (np.log(safe_t) - np.log(clamped)), 0.0)
    return terms.sum(axis=-1), clamped


def _kl_local_grad(tv: Array, pv: Array, clamped: Array) -> Array:
    # d/dp_j = -t_j / p_j where the clamp is inactive, else 0.
    return np.where(pv > LOG_CLAMP, -tv / clamped, 0.0)


def kl_div(target, pred):
    """KL(target || pred) over the last axis: sum target * ln(target/pred).

    `target` is always treated as constant data (victim outputs); only
    `pred` is differentiable. `pred` is clamped at LOG_CLAMP before the log,
    and the gradient is zero where the clamp is active. Both arguments must
    be probability vectors (rows summing to 1, nonnegative). 1-D input gives
    a scalar, 2-D input gives one KL value per row.
    """
    tv = target.value if isinstance(target, Node) else as_array(target)
    pn, pv = _split(pred)
    check_prob(tv, "kl_div target")
    check_prob(pv, "kl_div pred")
    if tv.shape != pv.shape:
        raise ContractError(f"kl_div shapes differ: {tv.shape} vs {pv.shape}")
    out, clamped = _kl_rows(tv, pv)

    def backward(g):
        local = _kl_local_grad(tv, pv, clamped)
        return (local * np.expand_dims(g, -1) if out.ndim else local * g,)

    return _emit(_tape_of(pn), out, (pn,), backward)


def _sum_left(values: Array):
    """values[0] + values[1] + ... added left to right, as a chain of `add`s
    would (numpy's own sum goes pairwise from 8 entries on)."""
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def mean_kl(target, probs):
    """The sum over exits of mean_all(kl_div(target, probs[k])), as one
    record: `probs` is a (K, ...) stack of predictions of the target's
    shape, and the K means are added left to right.

    `target` is constant data that is not checked again here: callers pass
    targets already checked with `check_prob` (`attack.RecordBatch` checks
    its victim probabilities once, when it is built). `probs` is checked as
    in `kl_div`, once for the whole stack.
    """
    tv = as_array(target)
    pn, pv = _split(probs)
    check_prob(pv, "mean_kl pred")
    if pv.shape[1:] != tv.shape:
        raise ContractError(f"mean_kl shapes differ: {tv.shape} vs stack {pv.shape}")
    rows, clamped = _kl_rows(tv, pv)
    if rows.size == 0:
        raise ContractError("mean of an empty value")
    per_exit = rows.reshape(rows.shape[0], -1)  # (K, batch), C-contiguous
    out = _sum_left(per_exit.mean(axis=1))
    inv = 1.0 / per_exit.shape[1]

    def backward(g):
        return (_kl_local_grad(tv, pv, clamped) * (g * inv),)

    return _emit(_tape_of(pn), out, (pn,), backward)


def hinge(threshold, value):
    """max(0, threshold - value), elementwise.

    Penalizes `value` falling short of `threshold`. Subgradient with respect
    to `value` is 0 at the kink (value == threshold); threshold is constant.
    """
    tv = as_array(threshold)
    vn, vv = _split(value)
    out = np.maximum(0.0, tv - vv)

    def backward(g):
        return (_unbroadcast(-g * (vv < tv), vv.shape),)

    return _emit(_tape_of(vn), out, (vn,), backward)


def hinge_excess(value, threshold):
    """max(0, value - threshold): the amount by which `value` exceeds
    `threshold`. Same kink convention as `hinge` (zero subgradient at
    equality); threshold is constant."""
    tv = as_array(threshold)
    vn, vv = _split(value)
    out = np.maximum(0.0, vv - tv)

    def backward(g):
        return (_unbroadcast(g * (vv > tv), vv.shape),)

    return _emit(_tape_of(vn), out, (vn,), backward)


def exit_margins(probs, exits, phi1, phi2):
    """The strategy loss's margin terms over exit groups, as one record.

    `probs` is the (K, batch, classes) probability stack of K exits;
    `exits` labels each row with its 1-based exit. With conf_i the row max
    of probs[i-1] and D_j the rows labeled j, the result adds up, for i = 1
    .. K-1 and in this order,

        mean over D_i of max(0, phi1 - conf_i)
        and, for each j > i, mean over D_j of max(0, conf_i - phi2).

    Empty groups add nothing; with no term at all the result is the
    constant 0.0. Same arithmetic as max_last -> take_rows -> hinge /
    hinge_excess -> mean_all -> add on each exit's slab. The rows are
    sorted by group once; the terms of D_j are then the row means of one
    C-contiguous (exits, |D_j|) block. Since the groups are disjoint, one
    scatter equals the chain's sum of per-term scatters.
    """
    pn, pv = _split(probs)
    if pv.ndim != 3:
        raise ContractError("exit_margins expects a (exits, batch, classes) stack")
    k = pv.shape[0]
    t1, t2 = as_array(phi1), as_array(phi2)
    labels = np.asarray(exits)
    if labels.dtype.kind not in "iu" or labels.shape != pv.shape[1:2]:
        raise ContractError("exit labels must be integers, one per batch row")
    order = np.argsort(labels, kind="stable")  # row order within each group
    bounds = np.searchsorted(labels[order], np.arange(1, k + 2))  # D_j: bounds[j - 1:j + 1]
    order = order[bounds[0] : bounds[-1]]  # the rows labeled 1..K
    counts = np.diff(bounds)
    group = labels[order]
    conf = np.take(pv[:-1].max(axis=-1), order, axis=1)  # (K-1, rows), by group
    own = group == np.arange(1, k)[:, None]  # D_i's rows at exit i
    hinged = np.maximum(0.0, np.where(own, t1 - conf, conf - t2))
    means = {}  # (exit i, group j), both 0-based -> that term's value
    start = 0
    for j, count in enumerate(counts):
        if count:
            block = np.ascontiguousarray(hinged[: min(j + 1, k - 1), start : start + count])
            for i, term in enumerate(block.mean(axis=1)):
                means[i, j] = term
        start += count
    if not means:
        return np.float64(0.0)
    total = _sum_left([means[key] for key in sorted(means)])
    reached = max(i for i, _ in means) + 1  # exits 0..reached-1 get a gradient

    def backward(g):
        # 1 / |D_j| per row; an empty group's entry is repeated 0 times
        gm = np.repeat(g * (1.0 / np.maximum(counts, 1)), counts)
        later = group > np.arange(1, reached + 1)[:, None]
        z = np.where(
            own[:reached],
            -gm * (conf[:reached] < t1),
            np.where(later, gm * (conf[:reached] > t2), 0.0),
        )
        dp = np.empty_like(pv)
        dp[:reached] = 0.0
        dp[reached:] = -0.0  # exits the chain never reaches: add nothing to other gradients
        argmax = pv[:reached].argmax(axis=-1)[:, order]
        # + 0.0: the chain scatters onto zeros, turning -0.0 into 0.0
        dp[np.arange(reached)[:, None], order, argmax] = z + 0.0
        return (dp,)

    return _emit(_tape_of(pn), total, (pn,), backward)


def _log_softmax_rows(lv: Array, y: Array) -> Array:
    """Checked log-softmax of (..., batch, classes) logits for integer
    labels, one per batch row."""
    if y.ndim != 1 or y.shape[0] != lv.shape[-2]:
        raise ContractError("labels must be 1-D and match the batch size")
    if not np.issubdtype(y.dtype, np.integer):
        raise ContractError("labels must be integers")
    c = lv.shape[-1]
    if np.any(y < 0) or np.any(y >= c):
        raise ContractError(f"labels must lie in [0, {c})")
    shifted = lv - lv.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def _cross_entropy_grad(logp: Array, y: Array, g) -> Array:
    b = logp.shape[-2]
    p = np.exp(logp)
    p[..., np.arange(b), y] -= 1.0
    return p * (g / b)


def cross_entropy(logits, labels):
    """Mean cross-entropy of integer labels under softmax(logits).

    Fused log-softmax formulation, so large logits do not overflow. Returns
    a scalar (mean over the batch).
    """
    ln, lv = _split(logits)
    if lv.ndim != 2:
        raise ContractError("cross_entropy expects (batch, classes) logits")
    y = np.asarray(labels)
    logp = _log_softmax_rows(lv, y)
    out = np.float64(-logp[np.arange(lv.shape[0]), y].mean())

    def backward(g):
        return (_cross_entropy_grad(logp, y, g),)

    return _emit(_tape_of(ln), np.asarray(out), (ln,), backward)


def cross_entropy_sum(logits, labels):
    """cross_entropy(logits[0], labels) + cross_entropy(logits[1], labels)
    + ... over a (K, batch, classes) logits stack, as one record, added left
    to right like a chain of `add`s. The labels are checked once."""
    ln, lv = _split(logits)
    if lv.ndim != 3 or lv.shape[0] == 0:
        raise ContractError("cross_entropy_sum expects (exits, batch, classes) logits")
    y = np.asarray(labels)
    logp = _log_softmax_rows(lv, y)
    # the (K, batch) gather is strided; its means need a C-contiguous copy
    picked = np.ascontiguousarray(logp[:, np.arange(lv.shape[1]), y])
    total = _sum_left(-picked.mean(axis=1))

    def backward(g):
        return (_cross_entropy_grad(logp, y, g),)

    return _emit(_tape_of(ln), np.asarray(total), (ln,), backward)


# ---------------------------------------------------------------------------
# 2-D convolution (small fixed kernels, NCHW layout)


def _conv_windows(xv: Array, kh: int, kw: int, stride: int) -> Array:
    win = np.lib.stride_tricks.sliding_window_view(xv, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]  # (B, C, Ho, Wo, kh, kw)


def conv2d(x, weight, bias, stride: int = 1, activation=None):
    """act(conv(x) + bias) as one record, valid padding: x (B,Cin,H,W),
    weight (Cout,Cin,kh,kw); `activation` is "relu", "tanh" or None.

    Same arithmetic as `relu`/`tanh` of the plain convolution, and the same
    memory contract as `dense`: the bias add and the activation run in place
    on the fresh einsum output, the inputs are never written, and the
    backward pass reads the activation's derivative from the output.
    """
    xn, xv = _split(x)
    wn, wv = _split(weight)
    bn, bv = _split(bias)
    if xv.ndim != 4 or wv.ndim != 4:
        raise ContractError("conv2d expects NCHW input and OIHW weight")
    cout, cin, kh, kw = wv.shape
    if xv.shape[1] != cin:
        raise ContractError(f"conv2d channel mismatch: {xv.shape[1]} vs {cin}")
    if xv.shape[2] < kh or xv.shape[3] < kw:
        raise ContractError("conv2d input smaller than kernel")
    win = _conv_windows(xv, kh, kw, stride)
    out = np.einsum("bcyxij,ocij->boyx", win, wv)
    out += bv[None, :, None, None]
    _activate(out, activation)
    ho, wo = out.shape[2], out.shape[3]

    def backward(g):
        g = _activation_grad(g, out, activation)
        gx = None
        if xn is not None:
            gx = np.zeros_like(xv)
            for i in range(kh):
                for j in range(kw):
                    patch = np.einsum("boyx,oc->bcyx", g, wv[:, :, i, j])
                    gx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += patch
        gw = np.einsum("boyx,bcyxij->ocij", g, win) if wn is not None else None
        gb = g.sum(axis=(0, 2, 3)) if bn is not None else None
        return (gx, gw, gb)

    return _emit(_tape_of(xn, wn, bn), out, (xn, wn, bn), backward)


def global_avg_pool(x):
    """(B, C, H, W) -> (B, C), mean over the spatial axes."""
    xn, xv = _split(x)
    if xv.ndim != 4:
        raise ContractError("global_avg_pool expects NCHW input")
    out = xv.mean(axis=(2, 3))
    inv = 1.0 / (xv.shape[2] * xv.shape[3])

    def backward(g):
        return (np.broadcast_to((g * inv)[:, :, None, None], xv.shape).astype(np.float64, copy=False),)

    return _emit(_tape_of(xn), out, (xn,), backward)


def value_of(x) -> Array:
    """The plain array behind a Node / array-like."""
    if isinstance(x, Node):
        return x.value
    return np.asarray(x, dtype=np.float64)
