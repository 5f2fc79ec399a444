"""Experiment harness: datasets, config files, the staged pipeline, the
experiment grid over it, CLI."""

from .config import ExperimentConfig, build_config, load_config, seed_overrides
from .datasets import (
    TieredDataset,
    generate_tiered_dataset,
    generate_unrelated_blobs,
    generate_unrelated_uniform,
    load_idx_dataset,
    load_idx_file,
)
from .experiment import run_experiment, run_grid, run_stage

__all__ = [
    "ExperimentConfig",
    "TieredDataset",
    "build_config",
    "generate_tiered_dataset",
    "generate_unrelated_blobs",
    "generate_unrelated_uniform",
    "load_config",
    "load_idx_dataset",
    "load_idx_file",
    "run_experiment",
    "run_grid",
    "run_stage",
    "seed_overrides",
]
