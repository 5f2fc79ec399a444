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
`cascade` returns a batch's outcomes as arrays: exits, predicted classes,
FLOPs and the taken exit's probabilities.

FLOPs convention, used for every cost number in the package: a dense map
m -> n costs 2*m*n + n (multiply-adds plus bias), a conv costs
Ho*Wo*Cout*(2*Cin*kh*kw) + Ho*Wo*Cout, a global average pool costs C*H*W.
Activations are free. The cost of stopping at exit k charges every backbone
block up to and including the exit's block plus every head evaluated on the
way (heads 1..k). A net carries these as `block_flops`, `head_flops` and
`exit_flops`.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass
from typing import Sequence, Union, get_args, get_origin

import numpy as np

from . import numerics as nm
from .errors import ContractError, FormatError

Array = np.ndarray

# Threshold value meaning "never exit here"; anything > 1 behaves the same
# because confidences cannot exceed 1.
SENTINEL = 2.0

_CHECKPOINT_MAGIC = b"MXCKPT01"


@dataclass(frozen=True)
class DenseBlockSpec:
    in_width: int
    out_width: int

    def __post_init__(self):
        if self.in_width < 1 or self.out_width < 1:
            raise ContractError("dense block widths must be >= 1")


@dataclass(frozen=True)
class ConvBlockSpec:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1:
            raise ContractError("conv block fields must be >= 1")


BlockSpec = Union[DenseBlockSpec, ConvBlockSpec]

# activation names, applied by numerics.dense and numerics.conv2d
_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class BackboneSpec:
    """Ordered block descriptors plus the shared activation tag."""

    blocks: tuple[BlockSpec, ...]
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ContractError("backbone needs at least one block")
        if self.activation not in _ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")
        kinds = {type(b) for b in self.blocks}
        if len(kinds) != 1:
            raise ContractError("backbone blocks must be all dense or all conv")
        for prev, cur in zip(self.blocks, self.blocks[1:]):
            if isinstance(prev, DenseBlockSpec):
                if prev.out_width != cur.in_width:
                    raise ContractError(
                        f"block widths do not compose: {prev.out_width} -> {cur.in_width}"
                    )
            else:
                if prev.out_channels != cur.in_channels:
                    raise ContractError(
                        f"block channels do not compose: {prev.out_channels} -> {cur.in_channels}"
                    )

    @property
    def kind(self) -> str:
        return "dense" if isinstance(self.blocks[0], DenseBlockSpec) else "conv"

    @classmethod
    def dense(cls, widths: Sequence[int], activation: str = "relu") -> "BackboneSpec":
        """Chain of dense blocks: widths = (input, w1, w2, ..., wB)."""
        widths = [int(w) for w in widths]
        if len(widths) < 2:
            raise ContractError("dense backbone needs an input width and one block")
        blocks = tuple(
            DenseBlockSpec(widths[i], widths[i + 1]) for i in range(len(widths) - 1)
        )
        return cls(blocks=blocks, activation=activation)

    @classmethod
    def conv(
        cls,
        channels: Sequence[int],
        kernel: int,
        stride: int = 1,
        activation: str = "relu",
    ) -> "BackboneSpec":
        """Chain of conv blocks: channels = (input, c1, ..., cB)."""
        channels = [int(c) for c in channels]
        if len(channels) < 2:
            raise ContractError("conv backbone needs input channels and one block")
        blocks = tuple(
            ConvBlockSpec(channels[i], channels[i + 1], int(kernel), int(stride))
            for i in range(len(channels) - 1)
        )
        return cls(blocks=blocks, activation=activation)


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
        return [blk.out_width for blk in spec.blocks]
    if input_hw is None:
        raise ContractError("conv backbones need input_hw")
    h, w = input_hw
    dims = []
    for blk in spec.blocks:
        h = (h - blk.kernel) // blk.stride + 1
        w = (w - blk.kernel) // blk.stride + 1
        if h < 1 or w < 1:
            raise ContractError("conv backbone shrinks features below 1x1")
        dims.append((blk.out_channels, h, w))
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
    for blk in spec.blocks:
        if isinstance(blk, DenseBlockSpec):
            shapes.append((blk.in_width, blk.out_width))
            shapes.append((blk.out_width,))
        else:
            shapes.append((blk.out_channels, blk.in_channels, blk.kernel, blk.kernel))
            shapes.append((blk.out_channels,))
    dims = feature_dims(spec, input_hw)
    for bi in exit_indices:
        shapes.append((_head_width(dims[bi - 1]), class_count))
        shapes.append((class_count,))
    return shapes


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
        _check_exit_indices(exit_indices, len(backbone.blocks))
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
        if backbone.kind == "dense":
            self.block_flops = tuple(_dense_flops(b.in_width, b.out_width) for b in backbone.blocks)
        else:
            self.block_flops = tuple(
                h * w * c * (2 * b.in_channels * b.kernel * b.kernel) + h * w * c
                for b, (c, h, w) in zip(backbone.blocks, dims)
            )
        # a head is a dense map, after a global average pool on conv features
        self.head_flops = tuple(
            _dense_flops(_head_width(dims[bi - 1]), class_count)
            + (int(np.prod(dims[bi - 1])) if backbone.kind == "conv" else 0)
            for bi in exit_indices
        )
        cum_blocks = np.cumsum(self.block_flops)
        cum_heads = np.cumsum(self.head_flops)
        self.exit_flops = tuple(
            int(cum_blocks[bi - 1] + cum_heads[k]) for k, bi in enumerate(exit_indices)
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

    def _check_input(self, x: Array) -> Array:
        """The input, which must be a batch: (B, d) or (B, C, H, W)."""
        first = self.backbone.blocks[0]
        if self.backbone.kind == "dense":
            want = (first.in_width,)
        else:
            want = (first.in_channels, *self.input_hw)
        if x.shape[1:] != want:
            dims = ", ".join(map(str, want))
            raise ContractError(f"input must be a (B, {dims}) batch, got shape {x.shape}")
        return x

    def forward_exit_logits(self, x, params=None):
        """Logits at every exit, shallowest first, as one (K, B, classes)
        stack. `params` is an optional list of the parameters bound as tape
        nodes, in `parameters()` order (see `numerics.sgd`); without it the
        forward pass is plain numpy."""
        if not isinstance(x, nm.Node):
            x = self._check_input(nm.as_array(x))
        p = self._params if params is None else list(params)
        activation = self.backbone.activation
        dense_kind = self.backbone.kind == "dense"
        nblocks = len(self.backbone.blocks)
        exit_at = {bi: k for k, bi in enumerate(self.exit_indices)}
        logits: list = [None] * self.exit_count
        h = x
        for i, blk in enumerate(self.backbone.blocks):
            w, b = p[2 * i], p[2 * i + 1]
            if dense_kind:
                h = nm.dense(h, w, b, activation)
            else:
                h = nm.conv2d(h, w, b, stride=blk.stride, activation=activation)
            k = exit_at.get(i + 1)
            if k is not None:
                # no name is bound to the head's input, so a block's output
                # is freed as soon as the next block has read it
                hw, hb = p[2 * nblocks + 2 * k], p[2 * nblocks + 2 * k + 1]
                logits[k] = nm.dense(h if dense_kind else nm.global_avg_pool(h), hw, hb)
        return nm.stack(logits)

    def __repr__(self):
        return (
            f"MultiExitNet(kind={self.backbone.kind}, blocks={len(self.backbone.blocks)}, "
            f"exits={self.exit_indices}, classes={self.class_count})"
        )


def forward_all_exits(net: MultiExitNet, x, params=None):
    """Probability vectors from every exit head, shallowest first: one
    softmax over the logits stack gives a (K, batch, classes) stack whose
    rows sum to 1. A tape node when `params` are bound nodes."""
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
    b = len(backbone.blocks)
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
    blocks = []
    for blk in spec.blocks:
        if isinstance(blk, DenseBlockSpec):
            blocks.append({"kind": "dense", "in": blk.in_width, "out": blk.out_width})
        else:
            blocks.append(
                {
                    "kind": "conv",
                    "in": blk.in_channels,
                    "out": blk.out_channels,
                    "kernel": blk.kernel,
                    "stride": blk.stride,
                }
            )
    return {"activation": spec.activation, "blocks": blocks}


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
    blocks = []
    for b in json_field(obj, "blocks", list):
        kind = json_field(b, "kind", str)
        if kind == "dense":
            blocks.append(DenseBlockSpec(json_field(b, "in", int), json_field(b, "out", int)))
        elif kind == "conv":
            blocks.append(
                ConvBlockSpec(*(json_field(b, k, int) for k in ("in", "out", "kernel", "stride")))
            )
        else:
            raise FormatError(f"unknown block kind {kind!r}")
    return BackboneSpec(blocks=tuple(blocks), activation=json_field(obj, "activation", str))


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
        _check_exit_indices(exit_indices, len(backbone.blocks))
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
