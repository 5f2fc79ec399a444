"""Data sources for the laboratory: tiered synthetic blobs and IDX files.

The tiered generator draws one center per (class, tier) pair, then samples
each tier with its own noise scale. A strictly increasing schedule makes
early tiers easy (tight clusters, confident at shallow exits) and late tiers
hard. Because a class is a union of per-tier clusters rather than a single
blob, the class regions are not linearly separable: shallow exits can nail
the tight easy clusters but genuinely lack the capacity for the diffuse hard
ones, which is what gives a trained victim a spread-out exit distribution.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, FormatError

Array = np.ndarray

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class TieredDataset:
    inputs: Array
    labels: Array
    tiers: Array  # 1-based difficulty tier per sample

    def __post_init__(self):
        n = self.inputs.shape[0]
        if self.labels.shape != (n,) or self.tiers.shape != (n,):
            raise ContractError("labels and tiers must align with inputs")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def _check_count(name: str, value) -> None:
    """Sample counts and dimensions are integers >= 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ContractError(f"{name} must be >= 1, got {value}")


def generate_tiered_dataset(
    class_count: int,
    noise_schedule,
    sample_count: int,
    seed: int,
    *,
    dim: int = 16,
    center_scale: float = 3.0,
) -> TieredDataset:
    """Gaussian class blobs with per-tier centers and per-tier noise.

    One tier per entry of the noise schedule, which must be non-empty,
    strictly increasing and positive. Tier sizes are balanced to within one
    sample; classes are uniform. Same seed, same dataset, bit for bit.
    """
    schedule = tuple(float(s) for s in noise_schedule)
    n_tiers = len(schedule)
    _check_count("class_count", class_count)
    _check_count("sample_count", sample_count)
    _check_count("dim", dim)
    if class_count < 2:
        raise ContractError("class_count must be >= 2")
    if not np.isfinite(center_scale):
        raise ContractError("center_scale must be finite")
    if not schedule:
        raise ContractError("noise schedule needs at least one tier")
    if sample_count < n_tiers:
        raise ContractError("sample_count must cover every tier")
    if not np.all(np.isfinite(schedule)):
        raise ContractError("noise scales must be finite")
    if any(s <= 0.0 for s in schedule):
        raise ContractError("noise scales must be positive")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ContractError("noise schedule must be strictly increasing")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (class_count, n_tiers, dim)) * (
        center_scale / np.sqrt(dim)
    )
    base, extra = divmod(sample_count, n_tiers)
    counts = [base + (1 if t < extra else 0) for t in range(n_tiers)]
    tiers = rng.permutation(np.repeat(np.arange(1, n_tiers + 1), counts))
    labels = rng.integers(0, class_count, size=sample_count)
    sigma = np.asarray(schedule)[tiers - 1]
    inputs = centers[labels, tiers - 1] + sigma[:, None] * rng.standard_normal(
        (sample_count, dim)
    )
    return TieredDataset(inputs=inputs, labels=labels, tiers=tiers)


def generate_unrelated_blobs(
    class_count: int,
    noise: float,
    sample_count: int,
    seed: int,
    *,
    dim: int = 16,
    center_scale: float = 3.0,
) -> Array:
    """Inputs from a *different* blob distribution (fresh centers), standing
    in for a public surrogate dataset the attacker can query with."""
    ds = generate_tiered_dataset(
        class_count=class_count,
        noise_schedule=(noise,),
        sample_count=sample_count,
        seed=seed,
        dim=dim,
        center_scale=center_scale,
    )
    return ds.inputs


def generate_unrelated_uniform(
    low: float, high: float, sample_count: int, seed: int, *, dim: int = 16
) -> Array:
    _check_count("sample_count", sample_count)
    _check_count("dim", dim)
    if not -np.inf < low < high < np.inf:  # chained, so NaN fails it too
        raise ContractError("uniform bounds must be finite and satisfy low < high")
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(sample_count, dim))


# ---------------------------------------------------------------------------
# IDX ingestion


def load_idx_file(path) -> Array:
    """One IDX file: images (magic 0x00000803) scaled into [0, 1] as
    (n, rows, cols) float64, or labels (magic 0x00000801) as (n,) ints.
    Dimension sizes are big-endian u32; the payload length must match."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: too short for an IDX header ({len(raw)} bytes)")
    (magic,) = struct.unpack_from(">I", raw, 0)
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise FormatError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x} "
            f"(images) or 0x{IDX_LABELS_MAGIC:08x} (labels)"
        )
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: truncated IDX header")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    expected = 1
    for d in dims:
        expected *= d
    actual = len(raw) - header
    if actual != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, got {actual}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if magic == IDX_LABELS_MAGIC:
        return data.astype(np.int64)
    return data.reshape(dims).astype(np.float64) / 255.0


def load_idx_dataset(images_path, labels_path) -> tuple[Array, Array]:
    """Paired images + labels. Images come back as (n, rows, cols) in
    [0, 1]; a conv backbone takes them as one channel."""
    images = load_idx_file(images_path)
    labels = load_idx_file(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: not an IDX image file")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: not an IDX label file")
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}"
        )
    return images, labels
