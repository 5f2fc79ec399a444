"""Multi-exit classifier: a backbone of blocks with exit heads attached.

A network with K exits evaluates its blocks in order; after the block that
carries exit i, a lightweight head (global average pool for conv features,
then a single dense layer) produces class probabilities. Inference under an
`OutputStrategy` takes the first exit whose top confidence reaches that
exit's threshold; the last exit is unconditional. `taken_exits` is the one
implementation of that rule, called by `cascade`, by the victim's threshold
scan and by the search's `evaluate_strategy` (the exhaustive search oracle
in the tests keeps its own loop on purpose). The forward pass takes
batches only: (B, d) for dense backbones, (B, C, H, W) for conv ones.
The K exits' logits and probabilities travel as one (K, B, classes)
stack, which training's losses and every inference path read directly.
A forward pass without a tape runs the batch in row spans, each through
the backbone in row chunks and then through the heads; a span is never
shorter than the rows at which every head's product passes OpenBLAS's
small-matrix cut (SMALL_GEMM_CUT), above which a product's rows do not
change bits with the row count. So every pass gives the bits of one pass
over the batch with the installed OpenBLAS, and a BLAS whose small-matrix
kernel reaches past that cut fails the canary test in
tests/test_multiexit.py.
`cascade` returns a batch's outcomes as arrays: exits, predicted classes,
FLOPs and the taken exit's probabilities.

FLOPs convention, used for every cost number in the package: a dense map
m -> n costs 2*m*n + n (multiply-adds plus bias), a conv costs
Ho*Wo*Cout*(2*Cin*kh*kw) + Ho*Wo*Cout, a global average pool costs C*H*W.
Activations are free. The cost of stopping at exit k charges every backbone
block up to and including the exit's block plus every head evaluated on the
way (heads 1..k); `exit_costs` is the one implementation of that rule. A net
carries these as `block_flops`, `head_flops` and `exit_flops`, and the
victim's timing model applies the same rule to its block and head costs.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass
from typing import Sequence, get_args, get_origin

import numpy as np

from . import numerics as nm
from .errors import ContractError, FormatError

Array = np.ndarray

# Threshold value meaning "never exit here"; anything > 1 behaves the same
# because confidences cannot exceed 1.
SENTINEL = 2.0

_CHECKPOINT_MAGIC = b"MXCKPT01"

# Most rows per chunk of a forward pass without a tape, dense or conv. A
# chunk of 1,024 rows is a full-speed BLAS product, and at width 256 it
# holds 2 MiB, against 16.6 MiB for the 8,500 rows of a wide victim's
# queries. Block products and conv einsums on 2 or more rows are bitwise
# the full batch's rows; a 1-row product takes numpy's vector path and is
# not, so the backbone's chunks are the near-equal spans of
# `_row_spans(rows, 2)`. A head's product with few output columns is
# bitwise the full batch's rows only above SMALL_GEMM_CUT, so the heads run
# per row span of at least the rows that cut needs, at most one span per
# CHUNK_ROWS rows.
CHUNK_ROWS = 1024

# OpenBLAS's small-matrix cut: a product of M*N*K multiply-adds at or under
# it takes the small-matrix kernel, whose bits change with the row count M;
# above it, each output row has the same bits at any M and any thread count.
# Measured with the OpenBLAS 0.3.31 that numpy 2.4.6 ships: a 256 -> 4 head
# product on 977 rows is bitwise those rows of a 2,000-row product, on 976
# rows it is not. tests/test_multiexit.py checks this on the installed BLAS.
SMALL_GEMM_CUT = 10**6


def _row_spans(rows: int, need: int) -> list[tuple[int, int]]:
    """(start, stop) of near-equal row spans of a batch, in order: one per
    CHUNK_ROWS rows, but as few as keep every span at `need` rows or more,
    and one span when the batch has fewer than `need` rows."""
    count = max(1, min(-(-rows // CHUNK_ROWS), rows // need))
    bounds = [rows * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


# backbone kinds: blocks of numerics.dense or numerics.conv2d, each with a relu
KINDS = ("dense", "conv")


@dataclass(frozen=True)
class BackboneSpec:
    """A chain of blocks of one kind: `widths` = (input, w1, ..., wB) are
    the widths (channels, for conv) into the first block and out of each
    block. Every conv block has the same square `kernel` and `stride`; a
    dense spec has kernel = stride = 1. A relu follows every block."""

    kind: str
    widths: tuple[int, ...]
    kernel: int = 1
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.kind not in KINDS:
            raise ContractError(f"unknown backbone kind {self.kind!r}")
        if len(self.widths) < 2:
            raise ContractError(f"{self.kind} backbone needs an input width and one block")
        if min(self.widths + (self.kernel, self.stride)) < 1:
            raise ContractError("backbone widths, kernel and stride must be >= 1")
        if self.kind == "dense" and (self.kernel, self.stride) != (1, 1):
            raise ContractError("a dense backbone has kernel = stride = 1")

    @property
    def block_count(self) -> int:
        return len(self.widths) - 1

    @classmethod
    def dense(cls, widths: Sequence[int]) -> "BackboneSpec":
        """Chain of dense blocks: widths = (input, w1, w2, ..., wB)."""
        return cls("dense", tuple(widths))

    @classmethod
    def conv(cls, channels: Sequence[int], kernel: int, stride: int = 1) -> "BackboneSpec":
        """Chain of conv blocks: channels = (input, c1, ..., cB)."""
        return cls("conv", tuple(channels), int(kernel), int(stride))


@dataclass(frozen=True)
class OutputStrategy:
    """Per-exit confidence thresholds for the first K-1 exits.

    thresholds[i] is the bar the max softmax confidence at exit i+1 must
    reach (inclusive) to stop there; a value > 1 is a sentinel meaning
    "never exit here". The final exit has no threshold. `fallback` marks a
    strategy produced by a selection that found no feasible threshold and
    fell back to routing everything to the last exit.
    """

    thresholds: tuple[float, ...]
    fallback: bool = False

    def __post_init__(self):
        ts = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", ts)
        if not ts:
            raise ContractError("a strategy needs at least one threshold")
        arr = np.asarray(ts)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ContractError("thresholds must be finite and >= 0")

    @property
    def exit_count(self) -> int:
        return len(self.thresholds) + 1

    @classmethod
    def uniform(cls, tau: float, exit_count: int) -> "OutputStrategy":
        if exit_count < 2:
            raise ContractError("exit_count must be >= 2")
        return cls(thresholds=(float(tau),) * (exit_count - 1))

    @classmethod
    def never_early(cls, exit_count: int, fallback: bool = False) -> "OutputStrategy":
        if exit_count < 2:
            raise ContractError("exit_count must be >= 2")
        return cls(thresholds=(SENTINEL,) * (exit_count - 1), fallback=fallback)


def _dense_flops(m: int, n: int) -> int:
    return 2 * m * n + n


def feature_dims(spec: BackboneSpec, input_hw: tuple[int, int] | None = None) -> list:
    """Feature description after each block: width for dense backbones,
    (channels, h, w) for conv ones, which need the input's (h, w)."""
    if spec.kind == "dense":
        return list(spec.widths[1:])
    if input_hw is None:
        raise ContractError("conv backbones need input_hw")
    h, w = input_hw
    dims = []
    for c in spec.widths[1:]:
        h = (h - spec.kernel) // spec.stride + 1
        w = (w - spec.kernel) // spec.stride + 1
        if h < 1 or w < 1:
            raise ContractError("conv backbone shrinks features below 1x1")
        dims.append((c, h, w))
    return dims


def _head_width(feature) -> int:
    """Input width of an exit head reading `feature` (conv features are
    pooled to their channel count first)."""
    return feature[0] if isinstance(feature, tuple) else feature


def param_shapes(
    spec: BackboneSpec,
    exit_indices: Sequence[int],
    class_count: int,
    input_hw: tuple[int, int] | None = None,
) -> list[tuple[int, ...]]:
    """Parameter array shapes in declaration order: (W, b) per backbone
    block, then (W, b) per exit head at the given 1-based block indices."""
    shapes = []
    for m, n in zip(spec.widths, spec.widths[1:]):
        shapes.append((m, n) if spec.kind == "dense" else (n, m, spec.kernel, spec.kernel))
        shapes.append((n,))
    dims = feature_dims(spec, input_hw)
    for bi in exit_indices:
        shapes.append((_head_width(dims[bi - 1]), class_count))
        shapes.append((class_count,))
    return shapes


def exit_costs(block_costs, head_costs, exit_indices: Sequence[int]) -> Array:
    """The cost of stopping at each exit, shallowest first: every block up
    to and including the exit's block, plus heads 1..k."""
    cum_blocks = np.cumsum(block_costs)
    cum_heads = np.cumsum(head_costs)
    return cum_blocks[np.asarray(exit_indices) - 1] + cum_heads[: len(exit_indices)]


def _check_exit_indices(exit_indices: Sequence[int], block_count: int) -> None:
    """At least 2 exit heads sit at strictly increasing 1-based block
    indices, the last one after the final block."""
    if len(exit_indices) < 2:
        raise ContractError("a multi-exit net needs at least 2 exits")
    if any(i < 1 or i > block_count for i in exit_indices):
        raise ContractError(f"exit indices must lie in [1, {block_count}]")
    if any(j <= i for i, j in zip(exit_indices, exit_indices[1:])):
        raise ContractError("exit indices must be strictly increasing")
    if exit_indices[-1] != block_count:
        raise ContractError("the last exit must sit after the final block")


class MultiExitNet:
    """A backbone with K >= 2 exit heads at strictly increasing block indices.

    Parameters are float64 numpy arrays owned by the instance, in declaration
    order: (W, b) per backbone block, then (W, b) per exit head (see
    `param_shapes`). `block_flops` and `head_flops` are the FLOPs of each
    block and head, and `exit_flops[k]` is the cost of stopping at exit
    k + 1.
    """

    def __init__(
        self,
        backbone: BackboneSpec,
        exit_indices: Sequence[int],
        class_count: int,
        params: Sequence[Array],
        input_hw: tuple[int, int] | None = None,
    ):
        exit_indices = tuple(int(i) for i in exit_indices)
        class_count = int(class_count)
        if class_count < 2:
            raise ContractError("class_count must be >= 2")
        _check_exit_indices(exit_indices, backbone.block_count)
        if backbone.kind == "conv" and input_hw is not None:
            input_hw = (int(input_hw[0]), int(input_hw[1]))

        self.backbone = backbone
        self.exit_indices = exit_indices
        self.class_count = class_count
        self.input_hw = input_hw if backbone.kind == "conv" else None

        shapes = param_shapes(backbone, exit_indices, class_count, self.input_hw)
        params = list(params)
        if len(params) != len(shapes):
            raise ContractError(f"expected {len(shapes)} parameter arrays, got {len(params)}")
        owned = []
        for arr, shape in zip(params, shapes):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != shape:
                raise ContractError(f"parameter shape {arr.shape} != expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ContractError("parameters must be finite")
            owned.append(np.ascontiguousarray(arr))
        self._params = owned

        dims = feature_dims(backbone, self.input_hw)
        # one row's shape out of each block, for the forward walker
        self._block_shapes = tuple(d if isinstance(d, tuple) else (d,) for d in dims)
        # the fewest rows at which every exit head's product is above
        # SMALL_GEMM_CUT: the shortest row span a pass without a tape uses
        self._span_rows = max(
            SMALL_GEMM_CUT // (_head_width(dims[bi - 1]) * class_count) + 1 for bi in exit_indices
        )
        if backbone.kind == "dense":
            self.block_flops = tuple(_dense_flops(m, n) for m, n in zip(backbone.widths, dims))
        else:
            self.block_flops = tuple(
                h * w * c * (2 * m * backbone.kernel**2) + h * w * c
                for m, (c, h, w) in zip(backbone.widths, dims)
            )
        # a head is a dense map, after a global average pool on conv features
        self.head_flops = tuple(
            _dense_flops(_head_width(dims[bi - 1]), class_count)
            + (int(np.prod(dims[bi - 1])) if backbone.kind == "conv" else 0)
            for bi in exit_indices
        )
        self.exit_flops = tuple(
            int(c) for c in exit_costs(self.block_flops, self.head_flops, exit_indices)
        )

    # -- parameter access ------------------------------------------------------

    @property
    def exit_count(self) -> int:
        return len(self.exit_indices)

    def parameters(self) -> list[Array]:
        """The live parameter arrays, in declaration order."""
        return self._params

    def copy(self, frozen: bool = False) -> "MultiExitNet":
        dup = MultiExitNet(
            self.backbone,
            self.exit_indices,
            self.class_count,
            [p.copy() for p in self._params],
            input_hw=self.input_hw,
        )
        if frozen:
            for p in dup._params:
                p.setflags(write=False)
        return dup

    # -- forward ---------------------------------------------------------------

    @property
    def input_shape(self) -> tuple[int, ...]:
        """The shape of one input: (d,) or (C, H, W)."""
        if self.backbone.kind == "dense":
            return self.backbone.widths[:1]
        return (self.backbone.widths[0], *self.input_hw)

    def _check_input(self, x: Array) -> Array:
        """The input, which must be a batch: (B, d) or (B, C, H, W)."""
        want = self.input_shape
        if x.shape[1:] != want:
            dims = ", ".join(map(str, want))
            raise ContractError(f"input must be a (B, {dims}) batch, got shape {x.shape}")
        return x

    def forward_exit_logits(self, x, params=None):
        """Logits at every exit, shallowest first, as one (K, B, classes)
        stack. `params` is an optional list of the parameters bound as tape
        nodes, in `parameters()` order (see `numerics.sgd`); without it the
        forward pass is plain numpy.

        A taped pass runs `_exit_logits` once on the whole batch, so the
        tape holds one record per block and head. A pass without a tape
        splits the batch into the near-equal row spans of `_row_spans` and
        runs `_exit_logits` on each span, writing its logits into one
        preallocated stack. Every span has at least `_span_rows` rows, so
        each head's product is above SMALL_GEMM_CUT and gives each row the
        bits of one pass over the batch; a batch too short for two such
        spans is one span, the whole batch. At most one span per CHUNK_ROWS
        rows: a wide net's pass never holds a full-height activation or
        hands BLAS a tall head product."""
        if not isinstance(x, nm.Node):
            x = self._check_input(nm.as_array(x))
        p = self._params if params is None else list(params)
        taped = isinstance(x, nm.Node) or any(isinstance(a, nm.Node) for a in p)
        rows = x.shape[0]
        spans = [(0, rows)] if taped else _row_spans(rows, self._span_rows)
        if len(spans) == 1:
            return nm.stack(self._exit_logits(x, p, taped))
        out = np.empty((self.exit_count, rows, self.class_count))
        for start, stop in spans:
            for k, logits in enumerate(self._exit_logits(x[start:stop], p, False)):
                out[k, start:stop] = logits
        return out

    def _exit_logits(self, x, p, taped):
        """The walker: the blocks in order and each exit's head right after
        its block, returning the K exits' logits as a list. A taped pass
        runs every block once on `x`. A pass without a tape runs each block
        over the row chunks of `_row_spans(rows, 2)`, each 2 to CHUNK_ROWS
        rows, into one activation of `x`'s height, dense or conv alike; a
        block whose output has its input's shape overwrites that activation
        in place, a chunk's rows being read before they are written. Each
        head reads the activation whole, after `global_avg_pool` for conv.
        Returning drops the last activation before the caller stacks the
        logits: on a narrow net the stack outweighs a chunk, so holding
        both would set the peak."""
        logits = []
        h = x
        for i, row_shape in enumerate(self._block_shapes):
            w, b = p[2 * i], p[2 * i + 1]
            if taped:
                h = self._block(h, w, b)
            else:
                shape = (x.shape[0], *row_shape)
                out = h if h is not x and h.shape == shape else np.empty(shape)
                for start, stop in _row_spans(x.shape[0], 2):
                    out[start:stop] = self._block(h[start:stop], w, b)
                h = out
            if i + 1 in self.exit_indices:
                j = 2 * self.backbone.block_count + 2 * len(logits)
                pooled = h if self.backbone.kind == "dense" else nm.global_avg_pool(h)
                logits.append(nm.dense(pooled, p[j], p[j + 1]))
        return logits

    def _block(self, h, w, b):
        if self.backbone.kind == "dense":
            return nm.dense(h, w, b, "relu")
        return nm.conv2d(h, w, b, stride=self.backbone.stride, activation="relu")

    def __repr__(self):
        return (
            f"MultiExitNet(kind={self.backbone.kind}, blocks={self.backbone.block_count}, "
            f"exits={self.exit_indices}, classes={self.class_count})"
        )


def forward_all_exits(net: MultiExitNet, x, params=None):
    """Probability vectors from every exit head, shallowest first: one
    softmax over the logits stack gives a (K, batch, classes) stack whose
    rows sum to 1. A tape node when `params` are bound nodes; otherwise the
    backbone runs in row chunks and the heads in row spans above OpenBLAS's
    small-matrix cut (see `MultiExitNet.forward_exit_logits`), and the
    softmax on the whole stack: bit for bit the values of one pass over the
    batch, with the installed OpenBLAS."""
    return nm.softmax(net.forward_exit_logits(x, params=params))


def taken_exits(confidences: Array, strategy: OutputStrategy) -> Array:
    """Vectorized first-passing-exit rule: confidences is (batch, K) of
    per-exit max-softmax values; returns 1-based exit indices."""
    conf = np.asarray(confidences, dtype=np.float64)
    if conf.ndim != 2 or conf.shape[1] != strategy.exit_count:
        raise ContractError(
            f"confidence shape {conf.shape} does not match {strategy.exit_count} exits"
        )
    thr = np.asarray(strategy.thresholds)
    hits = conf[:, :-1] >= thr[None, :]
    full = np.concatenate([hits, np.ones((conf.shape[0], 1), dtype=bool)], axis=1)
    return full.argmax(axis=1) + 1


def cascade(net: MultiExitNet, x, strategy: OutputStrategy):
    """Batched cascade evaluation on the (K, B, C) probability stack of
    `forward_all_exits`.

    Returns (exit_idx, predicted, flops, probs): 1-based exits, argmax
    classes, per-sample FLOPs and the taken exit's probability rows, (B, C).
    The backbone, dense or conv, runs in row chunks and the exit heads in
    row spans whose head products are all above SMALL_GEMM_CUT, so a
    head's bits do not depend on the span and the outcomes do not depend
    on the batch. Besides the (K, B, C) stack, a pass holds one span's
    activation: at most CHUNK_ROWS rows when the heads are wide (256 -> 4
    needs 977 rows), the whole batch when they are narrow (48 -> 4 needs
    5,209).
    """
    if strategy.exit_count != net.exit_count:
        raise ContractError(
            f"strategy has {strategy.exit_count} exits, net has {net.exit_count}"
        )
    probs = forward_all_exits(net, x)
    exits = taken_exits(probs.max(axis=2).T, strategy)
    taken = probs[exits - 1, np.arange(probs.shape[1])]
    predicted = taken.argmax(axis=1)
    flops = np.asarray(net.exit_flops)[exits - 1]
    return exits, predicted, flops, taken


def build_evenly_partitioned(
    backbone: BackboneSpec,
    exit_count: int,
    class_count: int,
    seed: int,
    input_hw: tuple[int, int] | None = None,
) -> MultiExitNet:
    """Attach `exit_count` heads at evenly spaced depths: exit j sits after
    block ceil(j*B/K), so the last exit lands on the final block. Parameters
    are He-style initialized from `seed`; the same seed rebuilds the same
    net bit for bit."""
    exit_count = int(exit_count)
    if exit_count < 2:
        raise ContractError("exit_count must be >= 2")
    b = backbone.block_count
    if exit_count > b:
        raise ContractError(f"cannot place {exit_count} exits on {b} blocks")
    indices = sorted({-(-j * b // exit_count) for j in range(1, exit_count + 1)})
    if len(indices) != exit_count:
        raise ContractError("even partition collapsed two exits onto one block")
    # He-style scale sqrt(2 / fan_in) on backbone weights, sqrt(1 / width)
    # on head weights; biases start at zero. Draw order is declaration order.
    rng = np.random.default_rng(seed)
    shapes = param_shapes(backbone, indices, class_count, input_hw)
    backbone_arrays = 2 * b
    params: list[Array] = []
    for i, shape in enumerate(shapes):
        if len(shape) == 1:
            params.append(np.zeros(shape))
            continue
        fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
        gain = 2.0 if i < backbone_arrays else 1.0
        params.append(rng.normal(0.0, np.sqrt(gain / fan_in), shape))
    return MultiExitNet(backbone, indices, class_count, params, input_hw=input_hw)


# ---------------------------------------------------------------------------
# checkpoint container


def _backbone_to_json(spec: BackboneSpec):
    """The v1 descriptor: one entry per block and the blocks' activation,
    always relu, so every checkpoint written since v1 reads back."""
    conv = {"kernel": spec.kernel, "stride": spec.stride} if spec.kind == "conv" else {}
    blocks = [
        {"kind": spec.kind, "in": m, "out": n, **conv}
        for m, n in zip(spec.widths, spec.widths[1:])
    ]
    return {"activation": "relu", "blocks": blocks}


def _is_json(value, kind) -> bool:
    """isinstance for parsed JSON: an int is never a bool, and list[T] and
    dict[str, T] hold only items of type T."""
    if get_origin(kind) in (list, dict):
        items = value.values() if isinstance(value, dict) else value
        return isinstance(value, get_origin(kind)) and all(
            _is_json(item, get_args(kind)[-1]) for item in items
        )
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def json_field(obj, key: str, kind, label: str = "checkpoint descriptor"):
    """obj[key] of type `kind` (see `_is_json`), else FormatError naming
    `label`, the file or object `obj` was read from, and `key`."""
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{label} lacks {key!r}")
    value = obj[key]
    if not _is_json(value, kind):
        name = kind.__name__ if isinstance(kind, type) else kind  # e.g. float | None, list[int]
        raise FormatError(f"{label} {key!r} must be {name}, got {value!r}")
    return value


def _backbone_from_json(obj) -> BackboneSpec:
    """The spec of a v1 descriptor, whose blocks must share one kind, kernel
    and stride and chain their widths (else ContractError), and whose
    activation must be relu (else FormatError)."""
    blocks = []  # (kind, kernel, stride, in, out)
    for b in json_field(obj, "blocks", list):
        kind = json_field(b, "kind", str)
        if kind not in KINDS:
            raise FormatError(f"unknown block kind {kind!r}")
        geometry = [json_field(b, k, int) for k in ("kernel", "stride") if kind == "conv"]
        in_out = (json_field(b, "in", int), json_field(b, "out", int))
        blocks.append((kind, *(geometry or (1, 1)), *in_out))
    if not blocks:
        raise ContractError("backbone needs at least one block")
    if len({b[:3] for b in blocks}) > 1:
        raise ContractError("backbone blocks must share one kind, kernel and stride")
    for prev, cur in zip(blocks, blocks[1:]):
        if prev[4] != cur[3]:
            raise ContractError(f"block widths do not chain: {prev[4]} -> {cur[3]}")
    kind, kernel, stride, first, _ = blocks[0]
    activation = json_field(obj, "activation", str)
    if activation != "relu":
        raise FormatError(f"checkpoint descriptor 'activation' must be relu, got {activation!r}")
    widths = (first, *(b[4] for b in blocks))
    return BackboneSpec(kind, widths, kernel, stride)


def _descriptor_fields(desc):
    """Backbone, exit indices, class count, input (h, w) and parameter
    shapes of a checkpoint descriptor; FormatError unless they describe a
    net."""
    backbone_obj = json_field(desc, "backbone", dict)
    exit_indices = json_field(desc, "exit_indices", list[int])
    class_count = json_field(desc, "class_count", int)
    if class_count < 2:
        raise FormatError(f"checkpoint descriptor 'class_count' must be >= 2, got {class_count}")
    input_hw = desc.get("input_hw")
    if input_hw is not None:
        input_hw = tuple(json_field(desc, "input_hw", list[int]))
        if len(input_hw) != 2:
            raise FormatError(f"checkpoint descriptor 'input_hw' must hold 2 integers, got {input_hw}")
    try:
        backbone = _backbone_from_json(backbone_obj)
        _check_exit_indices(exit_indices, backbone.block_count)
        shapes = param_shapes(backbone, exit_indices, class_count, input_hw)
    except ContractError as exc:
        raise FormatError(f"bad checkpoint descriptor: {exc}") from exc
    return backbone, exit_indices, class_count, input_hw, shapes


def save_checkpoint(net: MultiExitNet, path) -> None:
    """Versioned binary container: magic, a JSON descriptor of the
    architecture, then every parameter array as little-endian float64 in
    declaration order. Round-trips bit-exactly."""
    desc = {
        "format_version": 1,
        "backbone": _backbone_to_json(net.backbone),
        "exit_indices": list(net.exit_indices),
        "class_count": net.class_count,
        "input_hw": list(net.input_hw) if net.input_hw else None,
    }
    blob = json.dumps(desc, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    for arr in net.parameters():
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> MultiExitNet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_CHECKPOINT_MAGIC) + 4:
        raise FormatError(f"checkpoint too short ({len(raw)} bytes)")
    if raw[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
        raise FormatError(
            f"bad checkpoint magic {raw[:len(_CHECKPOINT_MAGIC)]!r}, expected {_CHECKPOINT_MAGIC!r}"
        )
    off = len(_CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    if off + hlen > len(raw):
        raise FormatError("checkpoint descriptor truncated")
    try:
        desc = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint descriptor: {exc}") from exc
    off += hlen
    version = desc.get("format_version") if isinstance(desc, dict) else None
    if version != 1:
        raise FormatError(f"unsupported checkpoint version {version!r}")
    # Reconstruct the expected parameter shapes, then check the payload size
    # before touching the data.
    backbone, exit_indices, class_count, input_hw, shapes = _descriptor_fields(desc)
    expected = sum(int(np.prod(s)) * 8 for s in shapes)
    actual = len(raw) - off
    if expected != actual:
        raise FormatError(f"checkpoint payload: expected {expected} bytes, got {actual}")
    params = []
    for shape in shapes:
        n = int(np.prod(shape)) * 8
        arr = np.frombuffer(raw[off : off + n], dtype="<f8").reshape(shape)
        params.append(arr.astype(np.float64))
        off += n
    try:
        return MultiExitNet(backbone, exit_indices, class_count, params, input_hw=input_hw)
    except ContractError as exc:
        raise FormatError(f"checkpoint does not hold a valid net: {exc}") from exc
