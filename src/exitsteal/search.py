"""Output-strategy search: recover thresholds that reproduce the victim's
per-sample exit choices.

A calibration set is two arrays: `conf`, the (n, K) matrix of the
substitute's max confidence at every exit for each calibration probe, and
`target`, the n exits (1-based) the victim is believed to have taken.
`build_calibration_points` makes them from a net and the estimated exits,
and each public function checks them on entry. Candidate thresholds for
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

import numpy as np

from .errors import BudgetError, ContractError
from .multiexit import SENTINEL, MultiExitNet, OutputStrategy, forward_all_exits, taken_exits

Array = np.ndarray

BRANCH_CAP = 10**6


def _check_points(conf, target) -> tuple[Array, Array]:
    """Validate a calibration set: an (n, K) matrix of finite confidences
    in [0, 1] with n >= 1 and K >= 2, and n integer target exits in
    [1, K]."""
    conf = np.asarray(conf, dtype=np.float64)
    target = np.asarray(target)
    if conf.ndim != 2 or conf.shape[0] == 0 or conf.shape[1] < 2:
        raise ContractError(
            f"confidences must be an (n, K) matrix with n >= 1 and K >= 2, got {conf.shape}"
        )
    if target.shape != conf.shape[:1]:
        raise ContractError(
            f"{conf.shape[0]} calibration points but target exits of shape {target.shape}"
        )
    if not np.all(np.isfinite(conf)):
        raise ContractError("confidences must be finite")
    if np.any(conf < 0.0) or np.any(conf > 1.0):
        raise ContractError("confidences must lie in [0, 1]")
    if target.dtype.kind not in "iu":
        raise ContractError(f"target exits must be integers, got dtype {target.dtype}")
    k = conf.shape[1]
    if np.any(target < 1) or np.any(target > k):
        raise ContractError(f"target exits must lie in [1, {k}]")
    return conf, target


def build_calibration_points(net: MultiExitNet, inputs, target_exits) -> tuple[Array, Array]:
    """Evaluate the substitute on the calibration inputs: (conf, target),
    its per-exit max confidences paired with the estimated victim exits."""
    conf = forward_all_exits(net, inputs).max(axis=2).T  # (K, n) -> (n, K)
    return _check_points(conf, target_exits)


def candidate_thresholds(conf, target, exit_index: int) -> list[float]:
    """Candidate thresholds for one non-final exit (1-based).

    A = confidences at this exit of samples targeted here, B = of samples
    targeted later. No A: nothing should stop here, so only the sentinel.
    No overlap (B empty or max(B) < min(A)): min(A) alone separates
    perfectly. Otherwise: the distinct observed values inside
    [min(A), max(B)] plus the successor above max(B) (sentinel if none).
    Returned ascending.
    """
    conf, target = _check_points(conf, target)
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


def evaluate_strategy(conf, target, strategy: OutputStrategy) -> float:
    """Fraction of calibration points whose simulated cascade exit equals
    the estimated victim exit."""
    conf, target = _check_points(conf, target)
    return float((taken_exits(conf, strategy) == target).mean())


def search_strategy(
    conf, target, branch_cap: int = BRANCH_CAP
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
    conf, target = _check_points(conf, target)
    k = conf.shape[1]
    cands = [candidate_thresholds(conf, target, i) for i in range(1, k)]
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
