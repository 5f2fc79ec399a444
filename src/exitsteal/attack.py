"""The extraction attack: query, estimate exit labels, train a substitute.

The attacker sees probability vectors and runtimes only. Exit labels are
estimated by changepoint detection on the runtimes of a small i.i.d.
calibration set; every query sample is then labeled by which runtime
segment it falls into. Training minimizes

    performance loss + lambda * strategy loss

where the performance loss pulls every substitute exit toward the victim's
output (KL with the victim as target), and the strategy loss shapes
confidences so the substitute can reproduce *where* the victim exited: for
each non-final exit i, samples estimated to exit at i should clear a high
bar phi1 there, and samples estimated to exit later should stay below a
lower bar phi2 at exit i. Both margin terms average within their sample
sets and use confidences evaluated at the earlier exit i.
`substitute_losses` computes the two losses from one forward pass, each
as one record over the (K, batch, classes) probability stack of the
substitute's exits; the trainers call it on every mini-batch.

Answered queries travel as one `RecordBatch` of aligned arrays, from the
pipeline's saved answers and labels to the losses and both trainers.
`QueryRecord` is the validated one-row form; `RecordBatch.from_records`
packs a list of them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError
from .multiexit import MultiExitNet, forward_all_exits

Array = np.ndarray


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for substitute training. phi1 is the own-exit confidence bar,
    phi2 the cap earlier exits must hold later-exiting samples under; the
    margins only make sense when phi1 >= phi2."""

    phi1: float = 0.95
    phi2: float = 0.90
    lambda_strategy: float = 0.5
    epochs: int = 40
    lr: float = 0.05
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.phi1 <= 1.0 and 0.0 < self.phi2 <= 1.0):
            raise ContractError("phi1 and phi2 must lie in (0, 1]")
        if self.phi1 < self.phi2:
            raise ContractError("phi1 must be >= phi2")
        if self.lambda_strategy < 0.0:
            raise ContractError("lambda_strategy must be >= 0")
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if self.lr <= 0.0:
            raise ContractError("lr must be positive")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")


@dataclass(frozen=True)
class QueryRecord:
    """One answered query: the input sent, the victim's probability vector,
    the observed runtime and the exit label estimated from it (1-based)."""

    input: Array
    victim_probs: Array
    runtime: float
    estimated_exit: int

    def __post_init__(self):
        probs = nm.as_array(self.victim_probs)
        if probs.ndim != 1:
            raise ContractError("victim_probs must be a probability vector")
        nm.check_prob(probs, "victim_probs")
        e = self.estimated_exit
        if isinstance(e, bool) or not isinstance(e, (int, np.integer)) or e < 1:
            raise ContractError("estimated_exit must be an integer >= 1")


@dataclass(frozen=True)
class QuerySet:
    """Provenance-tagged query inputs: is_iid[i] marks samples drawn from
    the victim's data distribution (the rest come from the unrelated pool)."""

    inputs: Array
    is_iid: Array

    def __post_init__(self):
        if self.inputs.shape[0] != self.is_iid.shape[0]:
            raise ContractError("inputs and provenance tags must align")


def build_query_set(
    iid_inputs,
    unrelated_inputs,
    n_iid: int,
    n_unrelated: int,
    seed: int,
) -> QuerySet:
    """Deterministic draw (without replacement) of n_iid + n_unrelated query
    inputs from the two pools, i.i.d. samples first."""
    iid = nm.as_array(iid_inputs)
    unrel = nm.as_array(unrelated_inputs)
    if n_iid < 0 or n_unrelated < 0:
        raise ContractError("query counts must be >= 0")
    if n_iid + n_unrelated == 0:
        raise ContractError("query set must be non-empty")
    if n_iid > iid.shape[0]:
        raise ContractError(f"asked for {n_iid} i.i.d. samples, pool has {iid.shape[0]}")
    if n_unrelated > unrel.shape[0]:
        raise ContractError(
            f"asked for {n_unrelated} unrelated samples, pool has {unrel.shape[0]}"
        )
    if n_iid and n_unrelated and iid.shape[1:] != unrel.shape[1:]:
        raise ContractError("i.i.d. and unrelated samples must share a shape")
    rng = np.random.default_rng(seed)
    parts, tags = [], []
    if n_iid:
        parts.append(iid[rng.choice(iid.shape[0], size=n_iid, replace=False)])
        tags.append(np.ones(n_iid, dtype=bool))
    if n_unrelated:
        parts.append(unrel[rng.choice(unrel.shape[0], size=n_unrelated, replace=False)])
        tags.append(np.zeros(n_unrelated, dtype=bool))
    return QuerySet(inputs=np.concatenate(parts), is_iid=np.concatenate(tags))


class RecordBatch:
    """Answered queries as aligned arrays, the form every loss and trainer
    takes: inputs, the victim's probability rows and the estimated exit
    labels (1-based integers). The probability rows and labels are checked
    once, here; the losses take them as checked."""

    def __init__(self, inputs: Array, victim_probs: Array, exits: Array):
        victim_probs = nm.as_array(victim_probs)
        if inputs.shape[0] != victim_probs.shape[0] or inputs.shape[0] != exits.shape[0]:
            raise ContractError("record arrays must align")
        if inputs.shape[0] == 0:
            raise ContractError("record batch must be non-empty")
        nm.check_prob(victim_probs, "victim_probs")
        if exits.dtype.kind not in "iu" or exits.min() < 1:
            raise ContractError("exit labels must be integers >= 1")
        self.inputs = inputs
        self.victim_probs = victim_probs
        self.exits = exits.astype(int)

    @classmethod
    def from_records(cls, records) -> "RecordBatch":
        records = list(records)
        if not records:
            raise ContractError("record batch must be non-empty")
        return cls(
            inputs=np.stack([nm.as_array(r.input) for r in records]),
            victim_probs=np.stack([nm.as_array(r.victim_probs) for r in records]),
            exits=np.asarray([r.estimated_exit for r in records]),
        )

    def __len__(self):
        return self.inputs.shape[0]

    def subset(self, idx) -> "RecordBatch":
        """The rows `idx` (non-empty), not checked again: they were checked
        with this batch."""
        sub = object.__new__(RecordBatch)
        sub.inputs = self.inputs[idx]
        sub.victim_probs = self.victim_probs[idx]
        sub.exits = self.exits[idx]
        return sub


def substitute_losses(net: MultiExitNet, batch: RecordBatch, phi1: float, phi2: float, params=None):
    """(performance, strategy) losses of `net` on `batch`, from one forward
    pass. Differentiable when `params` is a bound-node list.

    performance: mean over the batch of the summed KL(victim || exit_i)
    across all exits (the victim's answer is the target at every exit).

    strategy: confidence-shaping margins over estimated exit groups
    D_1..D_K,

        sum over non-final exits i of
            mean_{x in D_i}  max(0, phi1 - conf_i(x))
          + sum over j > i of mean_{x in D_j} max(0, conf_i(x) - phi2)

    where conf_i is the max softmax confidence at exit i. Groups absent
    from the batch contribute zero.
    """
    if phi1 < phi2:
        raise ContractError("phi1 must be >= phi2")
    _check_labels(net, batch)
    probs = forward_all_exits(net, batch.inputs, params=params)  # (K, B, C)
    return (
        nm.mean_kl(batch.victim_probs, probs),
        nm.exit_margins(probs, batch.exits, phi1, phi2),
    )


def _check_labels(net: MultiExitNet, batch: RecordBatch) -> None:
    if int(batch.exits.max()) > net.exit_count:
        raise ContractError(
            f"records labeled up to exit {int(batch.exits.max())}, net has {net.exit_count}"
        )


@dataclass(frozen=True)
class EpochLoss:
    epoch: int
    performance: float
    strategy: float
    total: float


def train_substitute(
    net: MultiExitNet,
    batch: RecordBatch,
    cfg: AttackConfig,
) -> tuple[MultiExitNet, list[EpochLoss]]:
    """Mini-batch SGD on performance + lambda * strategy loss.

    Returns the net (trained in place) and the per-epoch loss trace. With
    lambda_strategy == 0 the parameter trajectory is bit-identical to
    train_baseline under the same seed: the strategy term is still measured
    for the trace but never contributes a gradient.
    """
    _check_labels(net, batch)
    n = len(batch)
    lam = cfg.lambda_strategy
    trace: list[EpochLoss] = []
    perf_sum = strat_sum = 0.0  # row-weighted over the epoch so far

    def batch_loss(bound, take):
        nonlocal perf_sum, strat_sum
        perf, strat = substitute_losses(net, batch.subset(take), cfg.phi1, cfg.phi2, params=bound)
        perf_sum += float(nm.value_of(perf)) * len(take)
        strat_sum += float(nm.value_of(strat)) * len(take)
        return perf if lam == 0.0 else perf + lam * strat

    def end_epoch(epoch):
        nonlocal perf_sum, strat_sum
        perf_epoch, strat_epoch = perf_sum / n, strat_sum / n
        trace.append(
            EpochLoss(
                epoch=epoch,
                performance=perf_epoch,
                strategy=strat_epoch,
                total=perf_epoch + lam * strat_epoch,
            )
        )
        perf_sum = strat_sum = 0.0

    nm.sgd(net.parameters(), n, batch_loss, epochs=cfg.epochs, lr=cfg.lr, seed=cfg.seed,
           batch_size=cfg.batch_size, end_epoch=end_epoch)
    return net, trace


def train_baseline(
    net: MultiExitNet,
    batch: RecordBatch,
    cfg: AttackConfig,
) -> tuple[MultiExitNet, list[EpochLoss]]:
    """Conventional extraction: performance loss only (lambda forced to 0).
    Everything else — batching, shuffling, updates — matches
    train_substitute exactly."""
    return train_substitute(net, batch, dataclasses.replace(cfg, lambda_strategy=0.0))


def write_loss_trace(trace: list[EpochLoss], path) -> None:
    """Loss trace CSV: epoch, performance_loss, strategy_loss, total."""
    lines = ["epoch,performance_loss,strategy_loss,total"]
    for row in trace:
        lines.append(f"{row.epoch},{row.performance!r},{row.strategy!r},{row.total!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
