"""Victim side of the laboratory: training, deployment, timed queries.

A deployed victim exposes exactly two things to the outside: the taken
exit's probability vectors and the runtimes, one of each per query. Its
only query path, `query_timed_many`, returns just those two arrays; its
return type cannot express the exit index or intermediate activations, so
opacity holds by construction. Runtimes come from a simulated timing model:
per-block and per-head costs plus Gaussian noise from a seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError
from .multiexit import (
    MultiExitNet,
    OutputStrategy,
    cascade,
    forward_all_exits,
    taken_exits,
)

Array = np.ndarray

# Grid scanned by select_traditional_strategy: 0.05 steps up to 0.95, then
# the conventional 0.99 endpoint.
TAU_GRID = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2)) + (0.99,)


@dataclass(frozen=True)
class TimingModel:
    """Simulated inference cost: one positive cost per backbone block, one
    per exit head, plus N(0, noise_sigma) measurement noise."""

    block_costs: tuple[float, ...]
    head_costs: tuple[float, ...]
    noise_sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "block_costs", tuple(float(c) for c in self.block_costs))
        object.__setattr__(self, "head_costs", tuple(float(c) for c in self.head_costs))
        if not self.block_costs or not self.head_costs:
            raise ContractError("timing model needs block and head costs")
        # chained comparisons, so NaN fails them as well as out-of-range values
        if not all(0.0 < c < np.inf for c in self.block_costs + self.head_costs):
            raise ContractError("timing costs must be finite and positive")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ContractError("noise_sigma must be finite and >= 0")

    @classmethod
    def proportional(cls, net: MultiExitNet, per_flop: float, noise_sigma: float, seed: int) -> "TimingModel":
        """Costs proportional to each block's and head's FLOPs."""
        if per_flop <= 0.0:
            raise ContractError("per_flop must be positive")
        return cls(
            block_costs=tuple(f * per_flop for f in net.block_flops),
            head_costs=tuple(f * per_flop for f in net.head_flops),
            noise_sigma=float(noise_sigma),
            seed=int(seed),
        )


def exit_base_times(net: MultiExitNet, timing: TimingModel) -> Array:
    """Noise-free runtime of stopping at each exit, shallowest first."""
    if len(timing.block_costs) != len(net.backbone.blocks):
        raise ContractError(
            f"timing has {len(timing.block_costs)} block costs, net has {len(net.backbone.blocks)} blocks"
        )
    if len(timing.head_costs) != net.exit_count:
        raise ContractError(
            f"timing has {len(timing.head_costs)} head costs, net has {net.exit_count} exits"
        )
    cb = np.cumsum(timing.block_costs)
    ch = np.cumsum(timing.head_costs)
    idx = np.asarray(net.exit_indices) - 1
    return cb[idx] + ch[: net.exit_count]


class VictimDeployment:
    """A frozen victim: network copy (write-protected), a uniform-threshold
    output strategy, and a timing model whose noise stream advances
    deterministically from its seed, one draw per timed query."""

    def __init__(self, net: MultiExitNet, strategy: OutputStrategy, timing: TimingModel):
        if strategy.exit_count != net.exit_count:
            raise ContractError(
                f"strategy has {strategy.exit_count} exits, net has {net.exit_count}"
            )
        self.net = net.copy(frozen=True)
        self.strategy = strategy
        self.timing = timing
        self._base_times = exit_base_times(self.net, timing)
        self._rng = np.random.default_rng(timing.seed)


def query_timed_many(dep: VictimDeployment, x) -> tuple[Array, Array]:
    """(probability vectors, runtimes) for a batch. Runtimes are the taken
    exit's base cost plus one noise draw per sample, in sample order."""
    exits, _, _, probs = cascade(dep.net, x, dep.strategy)
    runtimes = dep._base_times[exits - 1]
    if dep.timing.noise_sigma > 0.0:
        runtimes = runtimes + dep._rng.normal(0.0, dep.timing.noise_sigma, size=exits.shape[0])
    return probs, runtimes


def train_victim(
    net: MultiExitNet,
    inputs,
    labels,
    *,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 128,
    momentum: float = 0.0,
) -> MultiExitNet:
    """Joint training: the cross-entropy losses of all exits are added
    together and minimized by mini-batch SGD. Deterministic for a fixed
    seed; zero epochs leaves the parameters untouched. The net is updated
    in place and returned."""
    x = nm.as_array(inputs)
    y = np.asarray(labels)
    if x.ndim < 2 or x.shape[0] == 0:
        raise ContractError("training needs a non-empty batch of inputs")
    if y.shape != (x.shape[0],):
        raise ContractError("labels must be 1-D and match the inputs")
    if epochs < 0:
        raise ContractError("epochs must be >= 0")
    if lr <= 0.0:
        raise ContractError("lr must be positive")
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")

    def batch_loss(bound, take):
        return nm.cross_entropy_sum(net.forward_exit_logits(x[take], params=bound), y[take])

    nm.sgd(net.parameters(), x.shape[0], batch_loss, epochs=epochs, lr=lr, seed=seed,
           batch_size=batch_size, momentum=momentum)
    return net


def select_traditional_strategy(
    net: MultiExitNet,
    inputs,
    labels,
    accuracy_slack: float,
    grid: tuple[float, ...] = TAU_GRID,
) -> OutputStrategy:
    """Pick a uniform threshold the conventional way: scan the grid, keep
    thresholds whose cascade accuracy on the calibration set stays within
    `accuracy_slack` of the final exit's accuracy, and among those return
    the one with the smallest total computation (ties break toward the
    smaller threshold). If nothing is feasible the result routes everything
    to the last exit and carries fallback=True. `accuracy_slack` must be
    >= 0."""
    if not accuracy_slack >= 0.0:  # NaN fails too
        raise ContractError(f"accuracy_slack must be >= 0, got {accuracy_slack}")
    x = nm.as_array(inputs)
    y = np.asarray(labels)
    if x.shape[0] == 0:
        raise ContractError("calibration set must be non-empty")
    if y.shape != (x.shape[0],):
        raise ContractError("labels must be 1-D and match the inputs")
    probs = forward_all_exits(net, x)  # (K, B, C)
    conf = probs.max(axis=2).T  # (B, K)
    classes = probs.argmax(axis=2)  # (K, B)
    flop_table = np.asarray(net.exit_flops)
    final_acc = float((classes[-1] == y).mean())

    best_tau = None
    best_cost = None
    for tau in grid:
        exits = taken_exits(conf, OutputStrategy.uniform(tau, net.exit_count)) - 1
        acc = float((classes[exits, np.arange(len(y))] == y).mean())
        if acc < final_acc - accuracy_slack:
            continue
        cost = int(flop_table[exits].sum())
        if best_cost is None or cost < best_cost:
            best_tau, best_cost = float(tau), cost
    if best_tau is None:
        return OutputStrategy.never_early(net.exit_count, fallback=True)
    return OutputStrategy.uniform(best_tau, net.exit_count)
