"""Output-strategy search: recover thresholds that reproduce the victim's
per-sample exit choices.

Calibration points carry the substitute's max confidence at every exit plus
the exit the victim is believed to have taken. Candidate thresholds for
exit i come from the overlap between the confidences of samples targeted at
exit i (set A) and those targeted later (set B): every distinct observed
value inside [min(A), max(B)], plus the smallest value strictly above
max(B) so "admit all of A, none of B" is representable. Samples targeted
*earlier* than i are ignored: whatever exit they take at or after i is
already wrong. The search walks the Cartesian product of candidate lists in
ascending (lexicographic) order and keeps the first maximizer of simulated
exit agreement. It is exact but not exhaustive: it skips a branch that could
not beat the best score found so far even if every point still able to agree
did (see `search_strategy`), and it stops with BudgetError once it has
visited more than BRANCH_CAP branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import BudgetError, ContractError
from .multiexit import SENTINEL, MultiExitNet, OutputStrategy, forward_all_exits, taken_exits

Array = np.ndarray

BRANCH_CAP = 10**6


@dataclass(frozen=True)
class CalibrationPoint:
    """Per-exit max confidences of one calibration sample plus the victim
    exit (1-based) estimated for it."""

    conf: tuple[float, ...]
    target_exit: int

    def __post_init__(self):
        conf = tuple(float(c) for c in self.conf)
        object.__setattr__(self, "conf", conf)
        if len(conf) < 2:
            raise ContractError("calibration points need confidences for >= 2 exits")
        arr = np.asarray(conf)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ContractError("confidences must lie in [0, 1]")
        if not 1 <= self.target_exit <= len(conf):
            raise ContractError(
                f"target_exit {self.target_exit} out of range for {len(conf)} exits"
            )


def build_calibration_points(
    net: MultiExitNet, inputs, target_exits
) -> list[CalibrationPoint]:
    """Evaluate the substitute on the calibration inputs and pair its
    per-exit confidences with the estimated victim exits."""
    targets = np.asarray(target_exits)
    probs = forward_all_exits(net, nm.as_array(inputs))
    conf = np.stack([p.max(axis=1) for p in probs], axis=1)
    if conf.shape[0] != targets.shape[0]:
        raise ContractError("inputs and target exits must align")
    return [
        CalibrationPoint(conf=tuple(conf[i]), target_exit=int(targets[i]))
        for i in range(conf.shape[0])
    ]


def _point_arrays(points) -> tuple[Array, Array]:
    points = list(points)
    if not points:
        raise ContractError("need at least one calibration point")
    k = len(points[0].conf)
    if any(len(p.conf) != k for p in points):
        raise ContractError("calibration points disagree on the exit count")
    conf = np.asarray([p.conf for p in points])
    target = np.asarray([p.target_exit for p in points])
    return conf, target


def candidate_thresholds(points, exit_index: int) -> list[float]:
    """Candidate thresholds for one non-final exit (1-based).

    A = confidences at this exit of samples targeted here, B = of samples
    targeted later. No A: nothing should stop here, so only the sentinel.
    No overlap (B empty or max(B) < min(A)): min(A) alone separates
    perfectly. Otherwise: the distinct observed values inside
    [min(A), max(B)] plus the successor above max(B) (sentinel if none).
    Returned ascending.
    """
    conf, target = _point_arrays(points)
    k = conf.shape[1]
    if not 1 <= exit_index <= k - 1:
        raise ContractError(f"exit_index must lie in [1, {k - 1}]")
    col = conf[:, exit_index - 1]
    a = col[target == exit_index]
    b = col[target > exit_index]
    if a.size == 0:
        return [SENTINEL]
    amin = float(a.min())
    if b.size == 0 or float(b.max()) < amin:
        return [amin]
    bmax = float(b.max())
    pool = np.unique(np.concatenate([a, b]))
    inside = [float(v) for v in pool if amin <= v <= bmax]
    above = pool[pool > bmax]
    inside.append(float(above[0]) if above.size else SENTINEL)
    return inside


def evaluate_strategy(points, strategy) -> float:
    """Fraction of calibration points whose simulated cascade exit equals
    the estimated victim exit. `strategy` may be an OutputStrategy or a raw
    threshold sequence of length K-1."""
    conf, target = _point_arrays(points)
    if not isinstance(strategy, OutputStrategy):
        strategy = OutputStrategy(tuple(strategy))
    return float((taken_exits(conf, strategy) == target).mean())


def search_strategy(
    points, branch_cap: int = BRANCH_CAP
) -> tuple[OutputStrategy, float]:
    """Branch-and-bound traversal of the candidate product, in
    lexicographic order, returning the first strategy that maximizes exit
    agreement.

    The upper levels of the recursion maintain the set of points that have
    not exited yet; the bottom level scores all its candidates at once (a
    sorted prefix count per candidate, then the first maximum). Before each
    level and before the bottom sweep, the branch is pruned when

        gained + (alive points targeted at this exit or a later one) <= best

    where `gained` counts the points that already exited at their target.
    An alive point targeted earlier has passed its exit and cannot agree,
    so the left side bounds every score below the branch. A later strategy
    replaces the best only with a strictly higher score, so a branch that
    can at most tie could not change the result: pruning on `<=` keeps the
    first lexicographic maximizer of the full walk. A walk that visits more
    than `branch_cap` branches (pruned ones included) raises BudgetError
    listing the per-exit candidate counts.
    """
    conf, target = _point_arrays(points)
    k = conf.shape[1]
    cands = [candidate_thresholds(points, i) for i in range(1, k)]
    bottom = np.asarray(cands[-1])

    n = conf.shape[0]
    best_score = -1
    best_thresholds: tuple[float, ...] | None = None
    visited = 0

    def sweep_last(level: int, alive: Array, gained: int, prefix: tuple[float, ...]):
        nonlocal best_score, best_thresholds
        c = conf[alive, level]
        tg = target[alive]
        order = np.argsort(c, kind="stable")
        # here[p] counts targets == this exit among points with c >= the
        # p-th sorted value; later[p] counts targets == the final exit among
        # the p smallest.
        here = np.concatenate([np.cumsum((tg[order] == level + 1)[::-1])[::-1], [0]])
        later = np.concatenate([[0], np.cumsum(tg[order] == level + 2)])
        pos = np.searchsorted(c[order], bottom, side="left")
        scores = here[pos] + later[pos]
        first = int(np.argmax(scores))  # the first candidate reaching the max
        if gained + int(scores[first]) > best_score:
            best_score = gained + int(scores[first])
            best_thresholds = prefix + (cands[level][first],)

    def descend(level: int, alive: Array, gained: int, prefix: tuple[float, ...]):
        nonlocal visited
        visited += 1
        if visited > branch_cap:
            counts = " x ".join(str(len(c)) for c in cands)
            raise BudgetError(
                f"the walk of the {counts} candidate product visited {visited} "
                f"branches, which exceeds the cap of {branch_cap}"
            )
        tg = target[alive]
        bound = gained + int((tg > level).sum())  # targets at exit level + 1 or later
        if bound <= best_score:
            return
        if level == k - 2:
            sweep_last(level, alive, gained, prefix)
            return
        col = conf[alive, level]
        for t in cands[level]:
            if bound <= best_score:  # an earlier sibling raised the best
                return
            exited = col >= t
            descend(
                level + 1,
                alive[~exited],
                gained + int((tg[exited] == level + 1).sum()),
                prefix + (t,),
            )

    descend(0, np.arange(n), 0, ())
    assert best_thresholds is not None
    return OutputStrategy(thresholds=best_thresholds), best_score / n


def exhaustive_oracle(points, max_exits: int = 3, max_points: int = 50) -> float:
    """Brute-force best agreement, for tests only.

    Independent of search_strategy: the grid per exit is every distinct
    observed confidence at that exit plus a sentinel above 1, and each grid
    strategy is scored by its own cascade walk. Guards keep it honest about
    cost (K <= 3, small point sets only).
    """
    conf, target = _point_arrays(points)
    k = conf.shape[1]
    if k > max_exits:
        raise ContractError(f"oracle only handles up to {max_exits} exits")
    if conf.shape[0] > max_points:
        raise ContractError(f"oracle only handles up to {max_points} points")
    grids = [
        [float(v) for v in np.unique(conf[:, i])] + [SENTINEL]
        for i in range(k - 1)
    ]
    best = -1
    for combo in itertools.product(*grids):
        correct = 0
        for row, tgt in zip(conf, target):
            exit_taken = k
            for i, t in enumerate(combo):
                if row[i] >= t:
                    exit_taken = i + 1
                    break
            if exit_taken == tgt:
                correct += 1
        if correct > best:
            best = correct
    return best / conf.shape[0]


def strategy_report_fragment(strategy: OutputStrategy, agreement: float) -> dict:
    """JSON-ready fragment recording a chosen strategy."""
    return {
        "thresholds": [float(t) for t in strategy.thresholds],
        "agreement": float(agreement),
        "fallback": bool(strategy.fallback),
    }
