"""Strategy-search tests: candidate construction, the exact product walk
against a brute-force oracle and against the unpruned walk, tie-breaking,
the budget guard, and the checks on the calibration arrays."""

import itertools

import numpy as np
import pytest

from exitsteal.errors import BudgetError, ContractError
from exitsteal.multiexit import SENTINEL, OutputStrategy
from exitsteal.search import (
    build_calibration_points,
    candidate_thresholds,
    evaluate_strategy,
    search_strategy,
)

from _utils import binary_conf_logit


def pts(rows):
    """rows of (conf..., target_exit) -> the (conf, target) arrays"""
    return np.array([r[:-1] for r in rows], dtype=float), np.array([r[-1] for r in rows])


def exhaustive_oracle(conf, target, max_exits: int = 3, max_points: int = 50) -> float:
    """Brute-force best agreement.

    Independent of search_strategy: the grid per exit is every distinct
    observed confidence at that exit plus a sentinel above 1, and each grid
    strategy is scored by its own cascade walk. Guards keep it honest about
    cost (K <= 3, small point sets only).
    """
    conf, target = np.asarray(conf), np.asarray(target)
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


def test_calibration_point_validation():
    assert evaluate_strategy(*pts([(0.5, 0.9, 2)]), OutputStrategy((0.95,))) == 1.0
    for bad in (
        pts([(0.5, 1)]),  # one exit
        pts([(0.5, 1.2, 1)]),
        pts([(0.5, -0.1, 1)]),
        pts([(0.5, 0.9, 3)]),
        pts([(0.5, 0.9, 0)]),
        (np.empty((0, 2)), np.empty(0, dtype=int)),  # no points
        (np.array([[0.5, 0.9]]), np.array([1, 2])),  # targets do not align
    ):
        with pytest.raises(ContractError):
            search_strategy(*bad)
        with pytest.raises(ContractError):
            evaluate_strategy(*bad, OutputStrategy((0.5,)))


def test_non_finite_confidences_rejected():
    # a NaN compares false against every threshold, so it used to pass the
    # range check and the search and the evaluation disagreed on the score
    nan = pts([(np.nan, 0.5, 1), (0.9, 0.5, 2)])
    for conf, target in (nan, pts([(np.inf, 0.5, 1)])):
        with pytest.raises(ContractError, match="finite"):
            search_strategy(conf, target)
        with pytest.raises(ContractError, match="finite"):
            evaluate_strategy(conf, target, OutputStrategy((0.95,)))
        with pytest.raises(ContractError, match="finite"):
            candidate_thresholds(conf, target, 1)


def test_non_integer_targets_rejected():
    conf = np.array([[0.9, 0.5], [0.6, 0.5]])
    for target in (np.array([1.5, 2.0]), np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(ContractError, match="integers"):
            search_strategy(conf, target)
        with pytest.raises(ContractError, match="integers"):
            evaluate_strategy(conf, target, OutputStrategy((0.95,)))


def test_candidate_thresholds_hand_case():
    # exit-1 confidences: targets at 1 have {0.97, 0.92}, targets later have
    # {0.94, 0.89}; overlap [0.92, 0.94] plus the successor 0.97
    points = pts([(0.97, 0.5, 1), (0.92, 0.5, 1), (0.94, 0.5, 2), (0.89, 0.5, 2)])
    assert candidate_thresholds(*points, 1) == [0.92, 0.94, 0.97]


def test_candidate_thresholds_no_own_samples():
    points = pts([(0.9, 0.5, 2), (0.8, 0.5, 2)])
    assert candidate_thresholds(*points, 1) == [SENTINEL]


def test_candidate_thresholds_clean_separation():
    # all later-targeted confidences sit below every own confidence: min(A)
    # alone separates them
    points = pts([(0.95, 0.5, 1), (0.91, 0.5, 1), (0.85, 0.5, 2), (0.60, 0.5, 2)])
    assert candidate_thresholds(*points, 1) == [0.91]


def test_candidate_thresholds_sentinel_when_nothing_above_overlap():
    # max(B) is the global max: nothing separates "all of A, none of B"
    # except the sentinel
    points = pts([(0.90, 0.5, 1), (0.95, 0.5, 2)])
    assert candidate_thresholds(*points, 1) == [0.90, 0.95, SENTINEL]


def test_candidate_thresholds_ignores_earlier_targets():
    # the target-1 point's exit-2 confidence (0.99) must stay out of the
    # exit-2 pool: were it included, it would be the successor above
    # max(B) = 0.8 instead of the sentinel
    points = pts(
        [(0.99, 0.99, 0.5, 1), (0.5, 0.7, 0.5, 2), (0.5, 0.8, 0.5, 3)]
    )
    assert candidate_thresholds(*points, 2) == [0.7, 0.8, SENTINEL]
    with pytest.raises(ContractError):
        candidate_thresholds(*points, 3)  # the final exit has no threshold
    with pytest.raises(ContractError):
        candidate_thresholds(*points, 0)


def test_search_hand_case_prefers_first_maximizer():
    # thresholds 0.92 and 0.97 both reach agreement 0.75; the walk is in
    # ascending order, so 0.92 wins
    points = pts([(0.97, 0.5, 1), (0.92, 0.5, 1), (0.94, 0.5, 2), (0.89, 0.5, 2)])
    strategy, agreement = search_strategy(*points)
    assert strategy.thresholds == (0.92,)
    assert agreement == 0.75
    assert evaluate_strategy(*points, strategy) == 0.75


def test_search_perfect_separation():
    points = pts(
        [(0.99, 0.5, 1), (0.97, 0.5, 1), (0.50, 0.99, 2), (0.40, 0.95, 2)]
    )
    strategy, agreement = search_strategy(*points)
    assert agreement == 1.0
    assert strategy.thresholds == (0.97,)


def test_search_all_targets_final_exit():
    points = pts([(0.9, 0.5, 2), (0.99, 0.5, 2), (0.1, 0.5, 2)])
    strategy, agreement = search_strategy(*points)
    assert strategy.thresholds == (SENTINEL,)
    assert agreement == 1.0


def test_search_budget_error_lists_counts():
    rng = np.random.default_rng(0)
    c1, c2, target = rng.uniform(size=40), rng.uniform(size=40), rng.integers(1, 4, size=40)
    points = np.stack([c1, c2, np.full(40, 0.5)], axis=1), target
    counts = [len(candidate_thresholds(*points, i)) for i in (1, 2)]
    assert counts[0] * counts[1] > 10
    # the walk visits the root and then one branch per exit-1 candidate
    # before any of them can be pruned
    with pytest.raises(BudgetError) as exc:
        search_strategy(*points, branch_cap=10)
    msg = str(exc.value)
    assert f"{counts[0]} x {counts[1]}" in msg and "cap of 10" in msg


def test_evaluate_strategy_validates_shape():
    points = pts([(0.9, 0.5, 1)])
    with pytest.raises(ContractError):
        evaluate_strategy(*points, OutputStrategy((0.9, 0.8)))  # two thresholds for two exits
    assert evaluate_strategy(*points, OutputStrategy((0.9,))) == 1.0
    assert evaluate_strategy(*points, OutputStrategy((0.95,))) == 0.0


def test_search_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(2, 4))
        # quantized confidences produce plenty of exact ties
        conf = np.round(rng.uniform(size=(n, k)), 2)
        target = rng.integers(1, k + 1, size=n)
        strategy, agreement = search_strategy(conf, target)
        assert agreement == evaluate_strategy(conf, target, strategy)
        assert agreement == pytest.approx(exhaustive_oracle(conf, target), abs=1e-12)


def unpruned_oracle(conf, target):
    """The full lexicographic walk of the candidate product with no bound:
    (thresholds of the first maximizer, its agreement)."""
    k = conf.shape[1]
    cands = [candidate_thresholds(conf, target, i) for i in range(1, k)]
    best = [-1, None]

    def sweep_last(level, alive, gained, prefix):
        c = conf[alive, level]
        tg = target[alive]
        order = np.argsort(c, kind="stable")
        c_sorted = c[order]
        here = np.concatenate([np.cumsum((tg[order] == level + 1)[::-1])[::-1], [0]])
        later = np.concatenate([[0], np.cumsum(tg[order] == level + 2)])
        for t in cands[level]:
            pos = int(np.searchsorted(c_sorted, t, side="left"))
            score = gained + int(here[pos]) + int(later[pos])
            if score > best[0]:
                best[:] = [score, prefix + (t,)]

    def descend(level, alive, gained, prefix):
        if level == k - 2:
            sweep_last(level, alive, gained, prefix)
            return
        col = conf[alive, level]
        tg = target[alive]
        for t in cands[level]:
            exited = col >= t
            descend(
                level + 1,
                alive[~exited],
                gained + int((tg[exited] == level + 1).sum()),
                prefix + (t,),
            )

    descend(0, np.arange(conf.shape[0]), 0, ())
    return best[1], best[0] / conf.shape[0]


def test_pruned_search_matches_unpruned_walk():
    # the bound prunes only branches that cannot beat the best score, so
    # thresholds (the first maximizer, ties included) and score are those
    # of the full walk
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(4, 24))
        k = int(rng.integers(3, 6))
        # confidences on a coarse grid: many exact ties within and across
        # exits, so several strategies often share the best score
        conf = np.round(rng.uniform(0.3, 1.0, size=(n, k)), 2)
        target = rng.integers(1, k + 1, size=n)
        strategy, agreement = search_strategy(conf, target)
        want_thresholds, want_agreement = unpruned_oracle(conf, target)
        assert strategy.thresholds == want_thresholds, trial
        assert agreement == want_agreement, trial


def test_budget_counts_visited_branches_not_the_product():
    # the candidate product is far above the cap, but the bound prunes the
    # walk to fewer branches than the cap, so the search finishes with the
    # unpruned walk's answer
    rng = np.random.default_rng(3)
    conf = np.round(rng.uniform(0.3, 1.0, size=(60, 4)), 2)
    target = rng.integers(1, 5, size=60)
    counts = [len(candidate_thresholds(conf, target, i)) for i in (1, 2, 3)]
    assert np.prod(counts) > 10 * 2000
    strategy, agreement = search_strategy(conf, target, branch_cap=2000)
    assert (strategy.thresholds, agreement) == unpruned_oracle(conf, target)


def test_exhaustive_oracle_guards():
    points = pts([(0.9, 0.5, 1)] * 51)
    with pytest.raises(ContractError):
        exhaustive_oracle(*points)
    with pytest.raises(ContractError):
        exhaustive_oracle(*pts([(0.1, 0.2, 0.3, 0.4, 1)]))


def test_build_calibration_points_from_net():
    from test_attack import conf_driven_net

    net = conf_driven_net()
    xs = np.array([[binary_conf_logit(0.9)], [binary_conf_logit(0.7)]])
    conf, target = build_calibration_points(net, xs, [1, 2])
    assert conf.shape[0] == 2
    assert conf[0, 0] == pytest.approx(0.9, rel=1e-12)
    assert conf[1, 0] == pytest.approx(0.7, rel=1e-12)
    assert target.tolist() == [1, 2]
    with pytest.raises(ContractError):
        build_calibration_points(net, xs, [1, 2, 1])
