"""Network construction, cascade semantics, FLOPs accounting, checkpoints."""

import json
import struct
from collections import Counter

import numpy as np
import pytest

from exitsteal import numerics as nm
from exitsteal.errors import ContractError, FormatError
from exitsteal.multiexit import (
    CHUNK_ROWS,
    SENTINEL,
    SMALL_GEMM_CUT,
    BackboneSpec,
    MultiExitNet,
    OutputStrategy,
    build_evenly_partitioned,
    cascade,
    forward_all_exits,
    load_checkpoint,
    save_checkpoint,
    _row_spans,
    taken_exits,
)

from _utils import (
    assert_bitwise,
    bias_only_net,
    binary_conf_logit,
    conv_net,
    dense_net,
    one_batch_exit_logits,
    traced_peak,
)


# ---------------------------------------------------------------------------
# specs and placement


def test_backbone_spec_validation():
    with pytest.raises(ContractError):
        BackboneSpec.dense((8,))  # needs at least input + one block
    with pytest.raises(ContractError):
        BackboneSpec.dense((8, 4), activation="sigmoid")
    with pytest.raises(ContractError):
        BackboneSpec.conv((2, 4), kernel=0)
    with pytest.raises(ContractError, match="unknown backbone kind 'rnn'"):
        BackboneSpec("rnn", (2, 4))
    with pytest.raises(ContractError, match="must be >= 1"):
        BackboneSpec.dense((8, 0, 4))
    with pytest.raises(ContractError, match="dense backbone has kernel = stride = 1"):
        BackboneSpec("dense", (8, 4), kernel=3)


def test_even_partition_placements():
    spec8 = BackboneSpec.dense((6,) + (8,) * 8)
    net = build_evenly_partitioned(spec8, 4, 3, seed=0)
    assert net.exit_indices == (2, 4, 6, 8)
    spec7 = BackboneSpec.dense((6,) + (8,) * 7)
    net7 = build_evenly_partitioned(spec7, 4, 3, seed=0)
    assert net7.exit_indices == (2, 4, 6, 7)


def test_even_partition_rejects_impossible():
    spec = BackboneSpec.dense((6, 8, 8))
    with pytest.raises(ContractError):
        build_evenly_partitioned(spec, 3, 3, seed=0)
    with pytest.raises(ContractError):
        build_evenly_partitioned(spec, 1, 3, seed=0)


def test_exit_indices_must_end_at_last_block():
    spec = BackboneSpec.dense((4, 6, 6))
    probe = build_evenly_partitioned(spec, 2, 3, seed=0)
    with pytest.raises(ContractError):
        MultiExitNet(spec, (1,), 3, probe.parameters())
    with pytest.raises(ContractError):
        MultiExitNet(spec, (2, 1), 3, probe.parameters())


def test_same_seed_same_net():
    a = dense_net(seed=42)
    b = dense_net(seed=42)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    c = dense_net(seed=43)
    assert any(
        not np.array_equal(pa, pc) for pa, pc in zip(a.parameters(), c.parameters())
    )


# ---------------------------------------------------------------------------
# output strategies and the first-exit rule


def test_output_strategy_validation():
    with pytest.raises(ContractError):
        OutputStrategy(())
    with pytest.raises(ContractError):
        OutputStrategy((-0.1,))
    with pytest.raises(ContractError):
        OutputStrategy((np.nan,))
    s = OutputStrategy.uniform(0.9, 4)
    assert s.thresholds == (0.9, 0.9, 0.9)
    assert s.exit_count == 4
    n = OutputStrategy.never_early(3, fallback=True)
    assert n.thresholds == (SENTINEL, SENTINEL)
    assert n.fallback


def test_threshold_is_inclusive():
    conf = np.array([[0.9, 0.1], [0.89999, 0.5]])
    s = OutputStrategy((0.9,))
    assert np.array_equal(taken_exits(conf, s), [1, 2])


def test_cascade_trace_hand_example():
    # constant per-exit confidences 0.80 / 0.96 / 0.99 against T = (0.95, 0.95):
    # exit 1 misses the bar, exit 2 clears it
    net = bias_only_net(
        [
            [binary_conf_logit(0.80), 0.0],
            [binary_conf_logit(0.96), 0.0],
            [binary_conf_logit(0.99), 0.0],
        ]
    )
    x = np.ones((1, 3))
    strategy = OutputStrategy((0.95, 0.95))
    exits, preds, flops, probs = cascade(net, x, strategy)
    assert exits[0] == 2
    assert preds[0] == 0
    assert probs[0, 0] == pytest.approx(0.96, abs=1e-12)
    assert flops[0] == net.exit_flops[1]


def test_last_exit_is_unconditional():
    net = bias_only_net([[0.0, 0.0], [0.0, 0.0]])  # uniform everywhere
    exits, _, _, probs = cascade(net, np.ones((1, 3)), OutputStrategy((0.9,)))
    assert exits[0] == 2
    assert np.allclose(probs[0], [0.5, 0.5])


def test_zero_heads_give_uniform_probs():
    net = dense_net()
    for p in net.parameters():
        p[...] = 0.0
    probs = forward_all_exits(net, np.ones((4, 5)))
    for p in probs:
        assert np.allclose(p, 1.0 / 3.0)


def test_cascade_fuzz_first_exit_rule():
    # vectorized exit picking must match the obvious per-sample loop
    rng = np.random.default_rng(123)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 8))
        conf = rng.uniform(0.0, 1.0, size=(n, k))
        thresholds = tuple(rng.uniform(0.0, 1.1, size=k - 1))
        got = taken_exits(conf, OutputStrategy(thresholds))
        for i in range(n):
            expect = k
            for j in range(k - 1):
                if conf[i, j] >= thresholds[j]:
                    expect = j + 1
                    break
            assert got[i] == expect


def test_cascade_holds_one_backbone_activation():
    # the backbone runs in row chunks into one activation of a span's
    # height; a pass over the whole batch holds a block's input and output
    # at once (2.08 activations at 4,000 x 128, 34.05 MiB at 8,500 x 256).
    # Per span, a pass holds two span-high activations and the stack: 0.91
    # activations at 4,000 x 128 (two spans) and 4.47 MiB at 8,500 x 256
    # (eight), against 1.34 and 19.45 MiB with full-height heads. At width
    # 48 a span is the whole batch and the logits stack outweighs a chunk:
    # 1.44 activations, 1.67 if the last activation is still held when the
    # stack is allocated
    cases = (  # rows, backbone widths, exits, bound in activations of (rows, width)
        (4000, (128,) * 7, 3, 1.5),
        (8500, (16,) + (256,) * 8, 4, 6.5 * 2**20 / (8500 * 256 * 8)),
        (8500, (16,) + (48,) * 8, 4, 1.55),
    )
    for rows, widths, exits, bound in cases:
        net = build_evenly_partitioned(BackboneSpec.dense(widths), exits, 4, seed=2)
        x = np.random.default_rng(3).normal(size=(rows, widths[0]))
        activation = rows * widths[-1] * 8
        peak = traced_peak(lambda: cascade(net, x, OutputStrategy.uniform(0.9, exits)))
        assert peak <= bound * activation, (rows, f"peak is {peak / activation:.2f} activations")


def test_untaped_wide_pass_holds_no_full_height_activation():
    # 8,000 rows of an 8 x 256 net: 15.6 MiB for one full-height activation,
    # 18.42 MiB traced when the heads read one (19.45 at 8,500 rows); per
    # span, two 1,000-row activations and the stack, 5.07 MiB
    net = build_evenly_partitioned(BackboneSpec.dense((16,) + (256,) * 8), 4, 4, seed=2)
    x = np.random.default_rng(3).normal(size=(8000, 16))
    assert traced_peak(lambda: net.forward_exit_logits(x)) <= 6.5 * 2**20


def test_blas_head_product_is_row_stable_above_the_small_gemm_cut():
    # the canary for the span rule: with the installed OpenBLAS, a product
    # of more than SMALL_GEMM_CUT multiply-adds gives each row the bits of
    # a taller product. A BLAS whose small-matrix kernel reaches past the
    # cut fails here. At or under the cut the bits may differ (on x86-64
    # SKYLAKEX kernels, 976 rows do), but the spans never go there
    rng = np.random.default_rng(7)
    a, w = rng.normal(size=(2000, 256)), rng.normal(size=(256, 4))
    need = SMALL_GEMM_CUT // (256 * 4) + 1
    assert need == 977
    full = a @ w
    assert_bitwise(a[:need] @ w, full[:need])


@pytest.mark.parametrize("rows, spans", [(1953, 1), (1954, 2), (2000, 2), (8000, 8), (8500, 8)])
def test_head_spans_are_bitwise_the_one_batch_pass(rows, spans):
    # 256-wide heads need spans of 977 rows: 1,953 rows are one span, 1,954
    # two of 977, and 8,500 rows eight (nine would be under 977 rows)
    net = build_evenly_partitioned(BackboneSpec.dense((16,) + (256,) * 4), 2, 4, seed=5)
    assert net._span_rows == 977
    assert len(_row_spans(rows, net._span_rows)) == spans
    x = np.random.default_rng(rows).normal(size=(rows, 16))
    assert_bitwise(net.forward_exit_logits(x), one_batch_exit_logits(net, x))


def test_cascade_runs_on_a_frozen_copy():
    # a deployed victim's parameters are read-only; the forward pass never
    # writes into them and gives the writable net's outcome bit for bit
    net = dense_net(exits=3, widths=(5, 6, 6, 6), seed=4)
    x = np.random.default_rng(6).normal(size=(9, 5))
    strategy = OutputStrategy((0.5, 0.6))
    frozen = net.copy(frozen=True)
    for got, want in zip(cascade(frozen, x, strategy), cascade(net, x, strategy)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "rows", [1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 8500]
)
@pytest.mark.parametrize("kind", ["dense_relu", "dense_tanh_widths", "conv_stride2"])
def test_chunked_pass_is_bitwise_the_one_batch_pass(kind, rows, monkeypatch):
    # the tape-free pass runs the backbone, dense or conv, in near-equal row
    # chunks of 2 rows or more (1,025 rows as 512 and 513), and the heads per row
    # span (two spans for dense_tanh_widths at 8,500 rows). On frozen
    # parameters and a read-only input it equals one pass over the whole
    # batch byte for byte, and writes into neither
    if kind == "dense_relu":
        net = dense_net(widths=(48,) * 9, exits=4, classes=4, seed=1)  # keeps the input width
    elif kind == "dense_tanh_widths":  # width changes inside and at the end of a segment
        spec = BackboneSpec.dense((16, 48, 64, 64, 32, 32, 256), activation="tanh")
        net = build_evenly_partitioned(spec, 3, 4, seed=2)
    else:
        spec = BackboneSpec.conv((2, 4, 6, 6), kernel=3, stride=2)
        net = build_evenly_partitioned(spec, 3, 4, seed=3, input_hw=(17, 17))
    net = net.copy(frozen=True)
    x = np.random.default_rng(rows).normal(size=(rows, *net.input_shape))
    x.setflags(write=False)
    before = [a.copy() for a in (x, *net.parameters())]
    strategy = OutputStrategy.uniform(0.6, net.exit_count)
    logits = net.forward_exit_logits(x)
    outcome = cascade(net, x, strategy)
    for a, copy in zip((x, *net.parameters()), before):
        assert_bitwise(a, copy)
    assert_bitwise(logits, one_batch_exit_logits(net, x))
    monkeypatch.setattr(MultiExitNet, "forward_exit_logits", one_batch_exit_logits)
    for got, want in zip(outcome, cascade(net, x, strategy)):
        assert_bitwise(got, want)


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_forward_walker_calls_each_layer_once_per_chunk(kind, monkeypatch):
    # a taped pass runs each block and head once on the whole batch; a pass
    # without a tape runs each block once per row chunk and each head once
    # per row span, here one span: an 8 -> 3 head needs 41,667 rows for
    # two. Counted by (layer, rows)
    calls = Counter()

    def counting(name, real):
        def layer(x, *args, **kwargs):
            calls[name, nm.value_of(x).shape[0]] += 1
            return real(x, *args, **kwargs)
        return layer

    for name in ("dense", "conv2d"):
        monkeypatch.setattr(nm, name, counting(name, getattr(nm, name)))
    if kind == "dense":
        net = dense_net(widths=(5, 8, 8, 8), exits=2)
    else:
        net = conv_net(channels=(2, 4, 4, 4), exits=2, hw=(8, 8))
    block = "dense" if kind == "dense" else "conv2d"
    x = np.random.default_rng(0).normal(size=(2 * CHUNK_ROWS + 1, *net.input_shape))

    tape = nm.GradTape()
    net.forward_exit_logits(x[: CHUNK_ROWS + 1], [tape.param(p) for p in net.parameters()])
    heads = Counter({("dense", CHUNK_ROWS + 1): 2})
    assert calls == Counter({(block, CHUNK_ROWS + 1): 3}) + heads

    calls.clear()
    net.forward_exit_logits(x)
    blocks = Counter({(block, 683): 9})  # three near-equal chunks of 2,049 rows
    assert calls == blocks + Counter({("dense", 2 * CHUNK_ROWS + 1): 2})


def test_single_sample_is_rejected():
    # the forward pass takes batches only: (B, d) or (B, C, H, W)
    net = dense_net(exits=3, widths=(5, 6, 6, 6), seed=9)
    x = np.random.default_rng(5).normal(size=(7, 5))
    strategy = OutputStrategy((0.5, 0.6))
    for bad in (x[0], x[None], x[:, :4]):
        with pytest.raises(ContractError, match=r"input must be a \(B, 5\) batch"):
            cascade(net, bad, strategy)
    conv = conv_net(channels=(2, 4, 4), hw=(6, 6))
    image = np.zeros((2, 6, 6))
    with pytest.raises(ContractError, match=r"input must be a \(B, 2, 6, 6\) batch"):
        forward_all_exits(conv, image)
    assert len(forward_all_exits(conv, image[None])[0]) == 1


def test_outcome_consistent_with_forward_all_exits():
    net = dense_net(exits=2, seed=3)
    x = np.random.default_rng(0).normal(size=(5, 5))
    strategy = OutputStrategy((0.6,))
    all_probs = forward_all_exits(net, x)
    exits, preds, _, probs = cascade(net, x, strategy)
    for i in range(5):
        k = exits[i] - 1
        assert np.allclose(probs[i], all_probs[k][i], atol=1e-12)
        assert preds[i] == np.argmax(all_probs[k][i])


# ---------------------------------------------------------------------------
# FLOPs accounting


def test_dense_flops_hand_value():
    spec = BackboneSpec.dense((64, 32, 32))
    net = build_evenly_partitioned(spec, 2, 10, seed=0)
    # head at block 1 maps width 32 -> 10 classes: 2*32*10 + 10 = 650
    assert net.head_flops[0] == 650
    # block 1 maps 64 -> 32: 2*64*32 + 32 = 4128
    assert net.block_flops[0] == 4128


def test_flops_to_exit_counts_all_heads_on_the_way():
    # stopping at exit k costs every block up to k's depth plus every head
    # evaluated on the way (heads 1..k), mirroring cascaded execution
    net = dense_net(widths=(5, 7, 9, 11), exits=3, classes=4)
    assert len(net.exit_flops) == net.exit_count
    for k in range(1, 4):
        expect = sum(net.block_flops[: net.exit_indices[k - 1]]) + sum(net.head_flops[:k])
        assert net.exit_flops[k - 1] == expect


def test_flops_strictly_increase_with_exit_index():
    for seed in range(5):
        net = dense_net(widths=(4, 6, 6, 6, 6), exits=4, seed=seed)
        values = net.exit_flops
        assert all(a < b for a, b in zip(values, values[1:]))


def test_conv_flops_hand_value():
    # 3->8 channels, 3x3 valid conv on 8x8 input: out 6x6,
    # mults+adds = 6*6*8*(2*3*9) = 15552, bias adds = 6*6*8 = 288
    spec = BackboneSpec.conv((3, 8, 8), kernel=3, stride=1)
    net = build_evenly_partitioned(spec, 2, 4, seed=0, input_hw=(8, 8))
    assert net.block_flops[0] == 15552 + 288
    # head 1: GAP over 6x6x8 = 288 flops, then dense 8 -> 4: 2*8*4 + 4 = 68
    assert net.head_flops[0] == 288 + 68


def test_conv_forward_shapes_and_cascade():
    net = conv_net(channels=(2, 4, 4), exits=2, classes=3, hw=(6, 6))
    x = np.random.default_rng(1).normal(size=(3, 2, 6, 6))
    probs = forward_all_exits(net, x)
    assert len(probs) == 2
    assert probs[0].shape == (3, 3)
    exits, preds, flops, taken = cascade(net, x, OutputStrategy((0.5,)))
    assert exits.shape == (3,)
    assert taken.shape == (3, 3)
    assert np.allclose(taken.sum(axis=1), 1.0)


def test_conv_block_is_looked_up_at_call_time(monkeypatch):
    # a wrapped numerics.conv2d (a tracer, say) must see every conv block,
    # each applying the backbone's activation in its own record
    calls = []
    real_conv2d = nm.conv2d

    def counting_conv2d(*args, **kwargs):
        calls.append(kwargs.get("activation"))
        return real_conv2d(*args, **kwargs)

    monkeypatch.setattr(nm, "conv2d", counting_conv2d)
    net = conv_net(channels=(2, 4, 4, 4), exits=2, classes=3, hw=(8, 8))
    forward_all_exits(net, np.random.default_rng(1).normal(size=(3, 2, 8, 8)))
    assert calls == ["relu"] * 3


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = dense_net(widths=(6, 8, 8, 8), exits=3, classes=4, seed=11)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.exit_indices == net.exit_indices
    assert loaded.class_count == net.class_count
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)
    # a second save of the loaded net is byte-identical
    path2 = tmp_path / "net2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_round_trip_conv(tmp_path):
    net = conv_net(seed=2)
    path = tmp_path / "conv.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    x = np.random.default_rng(0).normal(size=(2, 2, 6, 6))
    for a, b in zip(forward_all_exits(net, x), forward_all_exits(loaded, x)):
        assert np.array_equal(a, b)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    net = dense_net()
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(FormatError, match="expected"):
        load_checkpoint(path)


def _descriptor_text(path) -> str:
    """The JSON descriptor of a saved checkpoint, as written."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    return raw[12 : 12 + hlen].decode("utf-8")


def test_checkpoint_descriptor_is_pinned(tmp_path):
    # one entry per block, as every checkpoint since format 1 has it, so old
    # checkpoints keep loading
    dense, conv = tmp_path / "dense.ckpt", tmp_path / "conv.ckpt"
    save_checkpoint(dense_net(), dense)
    save_checkpoint(conv_net(channels=(2, 4, 4, 8), exits=3, hw=(9, 9)), conv)
    assert _descriptor_text(dense) == (
        '{"backbone": {"activation": "relu", "blocks": [{"in": 5, "kind": "dense", "out": 8}, '
        '{"in": 8, "kind": "dense", "out": 8}, {"in": 8, "kind": "dense", "out": 8}]}, '
        '"class_count": 3, "exit_indices": [2, 3], "format_version": 1, "input_hw": null}'
    )
    assert _descriptor_text(conv) == (
        '{"backbone": {"activation": "relu", "blocks": ['
        '{"in": 2, "kernel": 3, "kind": "conv", "out": 4, "stride": 1}, '
        '{"in": 4, "kernel": 3, "kind": "conv", "out": 4, "stride": 1}, '
        '{"in": 4, "kernel": 3, "kind": "conv", "out": 8, "stride": 1}]}, '
        '"class_count": 3, "exit_indices": [1, 2, 3], "format_version": 1, "input_hw": [9, 9]}'
    )


def _rewrite_descriptor(path, edit):
    """Apply `edit` to the JSON descriptor of a saved checkpoint in place."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    desc = json.loads(raw[12 : 12 + hlen])
    edit(desc)
    blob = json.dumps(desc).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])


def _set_exits(indices):
    return lambda desc: desc.__setitem__("exit_indices", indices)


def _set_blocks(*fields):
    """An edit giving block i of the descriptor the fields fields[i] too."""

    def edit(desc):
        for block, extra in zip(desc["backbone"]["blocks"], fields):
            block.update(extra)

    return edit


_CONV = {"kind": "conv", "kernel": 1, "stride": 1}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_exits([2, 9]), r"exit indices must lie in \[1, 3\]"),
        (_set_exits([0, 3]), r"exit indices must lie in \[1, 3\]"),
        (_set_exits([3, 2]), "strictly increasing"),
        (_set_exits(["a", 3]), r"'exit_indices' must be list\[int\], got \['a', 3\]"),
        (_set_exits([True, 3]), r"'exit_indices' must be list\[int\], got \[True, 3\]"),
        (lambda desc: desc.pop("backbone"), "lacks 'backbone'"),
        (lambda desc: desc["backbone"]["blocks"][1].pop("in"), "lacks 'in'"),
        (_set_blocks({}, _CONV), "blocks must share one kind, kernel and stride"),
        (_set_blocks(_CONV, _CONV, dict(_CONV, kernel=3)), "share one kind, kernel and stride"),
        (_set_blocks(_CONV, dict(_CONV, stride=2), _CONV), "share one kind, kernel and stride"),
        (_set_blocks({}, {"in": 7}), "block widths do not chain: 8 -> 7"),
    ],
    ids=["index_past_last_block", "index_zero", "decreasing", "non_integer", "bool_index",
         "no_backbone", "block_without_in", "mixed_kinds", "mixed_kernels", "mixed_strides",
         "widths_do_not_chain"],
)
def test_checkpoint_malformed_descriptor_is_a_format_error(tmp_path, edit, message):
    path = tmp_path / "net.ckpt"
    save_checkpoint(dense_net(widths=(6, 8, 8, 8), exits=3, classes=4, seed=1), path)
    _rewrite_descriptor(path, edit)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


def test_checkpoint_forward_identical_after_reload(tmp_path):
    net = dense_net(seed=21)
    x = np.random.default_rng(4).normal(size=(6, 5))
    before = forward_all_exits(net, x)
    path = tmp_path / "n.ckpt"
    save_checkpoint(net, path)
    after = forward_all_exits(load_checkpoint(path), x)
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# misc contracts


def test_net_validates_input_width():
    net = dense_net()
    with pytest.raises(ContractError):
        forward_all_exits(net, np.ones((2, 4)))  # net expects width 5


def test_class_count_minimum():
    spec = BackboneSpec.dense((4, 6, 6))
    with pytest.raises(ContractError):
        build_evenly_partitioned(spec, 2, 1, seed=0)


def test_frozen_copy_is_write_protected():
    net = dense_net()
    frozen = net.copy(frozen=True)
    with pytest.raises(ValueError):
        frozen.parameters()[0][...] = 1.0
    # original stays writable
    net.parameters()[0][...] = 1.0
