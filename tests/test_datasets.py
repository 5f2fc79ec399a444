"""Data sources: the seeded tiered generator, its argument checks, and IDX
files written byte by byte with struct."""

import struct

import numpy as np
import pytest

from exitsteal.errors import ContractError, FormatError
from exitsteal.harness.datasets import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    TieredDataset,
    generate_tiered_dataset,
    generate_unrelated_uniform,
    load_idx_dataset,
    load_idx_file,
)

TIERED = dict(class_count=3, noise_schedule=(0.1, 0.5, 1.0), sample_count=10)


def test_same_seed_same_dataset_with_balanced_tiers():
    a = generate_tiered_dataset(**TIERED, seed=5, dim=4)
    b = generate_tiered_dataset(**TIERED, seed=5, dim=4)
    for x, y in ((a.inputs, b.inputs), (a.labels, b.labels), (a.tiers, b.tiers)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert a.inputs.shape == (10, 4) and a.n == 10
    # 10 samples over 3 tiers: sizes within one of each other, extras first
    assert np.bincount(a.tiers, minlength=4)[1:].tolist() == [4, 3, 3]
    assert set(a.labels.tolist()) <= {0, 1, 2}
    other = generate_tiered_dataset(**TIERED, seed=6, dim=4)
    assert not np.array_equal(a.inputs, other.inputs)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"class_count": 1}, "class_count must be >= 2"),
        ({"noise_schedule": ()}, "noise schedule needs at least one tier"),
        ({"sample_count": 2}, "sample_count must cover every tier"),
        # one tier per schedule entry: 11 tiers need more than 10 samples
        ({"noise_schedule": [0.1 * t for t in range(1, 12)]}, "sample_count must cover every tier"),
        ({"noise_schedule": (0.0, 0.5, 1.0)}, "noise scales must be positive"),
        ({"noise_schedule": (0.1, 0.5, 0.5)}, "must be strictly increasing"),
        ({"dim": 0}, "dim must be >= 1"),
        ({"noise_schedule": (0.1, float("nan"), 1.0)}, "noise scales must be finite"),
        ({"noise_schedule": (0.1, 0.5, float("inf"))}, "noise scales must be finite"),
        ({"sample_count": 10.5}, "sample_count must be an integer"),
        ({"sample_count": True}, "sample_count must be an integer"),
        ({"sample_count": -4}, "sample_count must be >= 1"),
        ({"dim": 2.0}, "dim must be an integer"),
        ({"class_count": 2.5}, "class_count must be an integer"),
        ({"center_scale": float("nan")}, "center_scale must be finite"),
    ],
)
def test_tiered_generator_rejects_bad_arguments(overrides, message):
    with pytest.raises(ContractError, match=message):
        generate_tiered_dataset(**{**TIERED, "seed": 0, **overrides})


def test_tiered_dataset_fields_must_align():
    with pytest.raises(ContractError, match="must align"):
        TieredDataset(inputs=np.zeros((3, 2)), labels=np.zeros(3), tiers=np.zeros(2))


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"dim": 0}, "dim must be >= 1"),
        ({"dim": True}, "dim must be an integer"),
        ({"sample_count": -1}, "sample_count must be >= 1"),
        ({"sample_count": 5.0}, "sample_count must be an integer"),
    ],
)
def test_uniform_generator_rejects_bad_sizes(overrides, message):
    args = {"low": 0.0, "high": 1.0, "sample_count": 5, "seed": 0, **overrides}
    with pytest.raises(ContractError, match=message):
        generate_unrelated_uniform(**args)


def test_uniform_bounds_must_be_ordered():
    with pytest.raises(ContractError, match="low < high"):
        generate_unrelated_uniform(1.0, 1.0, 5, seed=0)


@pytest.mark.parametrize(
    "low, high", [(float("nan"), 1.0), (0.0, float("inf")), (-float("inf"), 0.0)]
)
def test_uniform_bounds_must_be_finite(low, high):
    with pytest.raises(ContractError, match="must be finite"):
        generate_unrelated_uniform(low, high, 5, seed=0)


def write_images(path, images):
    n, rows, cols = images.shape
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + images.tobytes())
    return str(path)


def write_labels(path, labels):
    path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + labels.tobytes())
    return str(path)


def idx_pair(tmp_path, n=4, rows=3, cols=2):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    return (
        images,
        labels,
        write_images(tmp_path / "images.idx", images),
        write_labels(tmp_path / "labels.idx", labels),
    )


def test_idx_round_trip(tmp_path):
    images, labels, images_path, labels_path = idx_pair(tmp_path)
    got_x, got_y = load_idx_dataset(images_path, labels_path)
    assert got_x.dtype == np.float64 and got_x.shape == (4, 3, 2)
    assert np.array_equal(got_x, images / 255.0)
    assert got_y.dtype == np.int64
    assert got_y.tolist() == labels.tolist()


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"\x00\x00\x08", "too short for an IDX header"),
        (struct.pack(">II", 0x00000802, 1) + b"\x00", "bad IDX magic 0x00000802"),
        (struct.pack(">III", IDX_IMAGES_MAGIC, 1, 2), "truncated IDX header"),
        (struct.pack(">II", IDX_LABELS_MAGIC, 3) + b"\x01\x02", "expected 3 payload bytes, got 2"),
    ],
    ids=["short", "magic", "header", "payload"],
)
def test_idx_file_format_errors(tmp_path, raw, message):
    path = tmp_path / "bad.idx"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=message):
        load_idx_file(str(path))


def test_idx_dataset_format_errors(tmp_path):
    _, _, images_path, labels_path = idx_pair(tmp_path)
    with pytest.raises(FormatError, match="not an IDX image file"):
        load_idx_dataset(labels_path, labels_path)
    with pytest.raises(FormatError, match="not an IDX label file"):
        load_idx_dataset(images_path, images_path)
    short = write_labels(tmp_path / "short.idx", np.zeros(3, dtype=np.uint8))
    with pytest.raises(FormatError, match="image/label count mismatch: 4 vs 3"):
        load_idx_dataset(images_path, short)
