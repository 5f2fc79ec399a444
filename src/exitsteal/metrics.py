"""Evaluation: one report per model, computed by `make_report` from the
model's batched cascade on a labeled test set and the victim's cascade
outcome on the same set.

Accuracy is class agreement with the true labels. Closeness is stricter
than class agreement with the victim: a sample counts only when the
substitute predicts the victim's class *and* stops at the same exit index.
Computation cost is the summed per-sample FLOPs of the cascade, reported
both raw and scaled by 1e-9.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError
from .multiexit import MultiExitNet, OutputStrategy, cascade

Array = np.ndarray

GFLOP = 1e-9

# Column order used by every CSV row of results.
CSV_COLUMNS = ("acc", "clo", "cc_gflops", "cc_ratio")


@dataclass(frozen=True)
class EvalReport:
    """One model's evaluation against the victim on a labeled test set."""

    acc: float
    clo: float
    cc_flops: int
    cc_gflops: float
    cc_ratio: float
    per_exit_agreement: tuple[int, ...]
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "per_exit_agreement", tuple(self.per_exit_agreement))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def csv_row(self) -> list[str]:
        """Values in CSV_COLUMNS order: ACC, CLO, CC (GFLOPs), CC-ratio."""
        return [repr(getattr(self, column)) for column in CSV_COLUMNS]


def make_report(
    sub_net: MultiExitNet,
    sub_strategy: OutputStrategy,
    inputs,
    labels,
    victim: tuple,
) -> EvalReport:
    """Evaluate a substitute (or the victim itself) on a labeled test set.

    `victim` is the victim's `cascade` outcome on the same inputs, computed
    once for all the models a caller scores. cc_ratio divides the
    substitute's total cost by the victim's. per_exit_agreement[k] counts
    samples where both models stopped at exit k+1 with matching predicted
    classes; comparing a deployment to itself gives clo == 1.0 and
    cc_ratio == 1.0 exactly.
    """
    x = nm.as_array(inputs)
    y = np.asarray(labels)
    v_exit, v_pred, v_flops = victim[:3]
    if x.shape[0] == 0:
        raise ContractError("test set must be non-empty")
    if y.shape != (x.shape[0],):
        raise ContractError("labels must align with the test inputs")
    if v_exit.shape != y.shape:
        raise ContractError("the victim's outcome must align with the test inputs")
    s_exit, s_pred, s_flops, _ = cascade(sub_net, x, sub_strategy)
    match = (s_pred == v_pred) & (s_exit == v_exit)
    hist = np.bincount(s_exit[match] - 1, minlength=sub_net.exit_count)
    sub_cost = int(s_flops.sum())
    victim_cost = int(v_flops.sum())
    return EvalReport(
        acc=float((s_pred == y).mean()),
        clo=float(match.mean()),
        cc_flops=sub_cost,
        cc_gflops=sub_cost * GFLOP,
        cc_ratio=sub_cost / victim_cost,
        per_exit_agreement=tuple(int(h) for h in hist),
        sample_count=int(x.shape[0]),
    )
