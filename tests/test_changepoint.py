"""Changepoint oracles.

The closed-form segment marginal of the module docstring (kept here as the
reference `segment_log_marginal`) is checked against an independent route:
the chain rule of sequential Student-t posterior predictives under the same
conjugate Normal model. The DP segmentation is checked against brute-force
enumeration of all cut placements, and bit for bit against the full-table
DP that the column-block evaluation replaced.

The closed form and the full-table DP take log-gamma from `math.lgamma`, as
detection does, so the bitwise comparisons hold. scipy is the independent
reference: its t density in `sequential_predictive_oracle`, and
`scipy.special.gammaln` for the log-gamma values detection uses. Only
tests need scipy; importing and running the package must not.
"""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from exitsteal import changepoint
from exitsteal.changepoint import (
    ChangepointResult,
    SegmentPrior,
    assign_exits,
    detect_changepoints,
)
from exitsteal.errors import ContractError

from _utils import traced_peak

_LOG_2PI = float(np.log(2.0 * np.pi))


def _per_count(f, counts):
    """f(c) for each entry c of `counts`, whole numbers >= 0 held as ints or
    floats, evaluated once per count from 0 to the largest."""
    counts = np.asarray(counts)
    values = np.array([f(float(c)) for c in range(int(counts.max()) + 1)])
    return values[counts.astype(np.intp)]


def _log_marginal_terms(n, total, sse, prior: SegmentPrior):
    """Closed-form segment log marginal from sufficient statistics. Works
    elementwise on arrays of (n, total, sse); n holds whole numbers."""
    mean = total / n
    kap_n = prior.kappa0 + n
    alpha_n = prior.alpha0 + 0.5 * n
    beta_n = (
        prior.beta0
        + 0.5 * sse
        + prior.kappa0 * n * (mean - prior.mu0) ** 2 / (2.0 * kap_n)
    )
    return (
        _per_count(lambda c: math.lgamma(prior.alpha0 + 0.5 * c), n)
        - math.lgamma(prior.alpha0)
        + prior.alpha0 * np.log(prior.beta0)
        - alpha_n * np.log(beta_n)
        + 0.5 * (np.log(prior.kappa0) - np.log(kap_n))
        - 0.5 * n * _LOG_2PI
    )


def segment_log_marginal(values, prior: SegmentPrior | None = None) -> float:
    """Log marginal likelihood of one segment of runtimes.

    With no explicit prior the slice itself sets mu_0/beta_0 (i.e. it is
    treated as the full dataset). Finite for any non-empty finite input,
    single points included.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ContractError("segment must be non-empty")
    if not np.all(np.isfinite(x)):
        raise ContractError("segment values must be finite")
    if prior is None:
        prior = SegmentPrior.from_data(x)
    n = x.size
    mean = x.mean()
    sse = float(((x - mean) ** 2).sum())
    return float(_log_marginal_terms(n, x.sum(), sse, prior))


def sequential_predictive_oracle(xs, prior: SegmentPrior) -> float:
    """log p(x_1..x_n) as a product of Student-t one-step predictives.

    Independent of the closed-form route: only the standard conjugate
    posterior updates and scipy's t density are used.
    """
    mu, kap = prior.mu0, prior.kappa0
    al, be = prior.alpha0, prior.beta0
    total = 0.0
    for x in xs:
        scale = math.sqrt(be * (kap + 1.0) / (al * kap))
        total += stats.t.logpdf(x, df=2.0 * al, loc=mu, scale=scale)
        be = be + kap * (x - mu) ** 2 / (2.0 * (kap + 1.0))
        mu = (kap * mu + x) / (kap + 1.0)
        kap += 1.0
        al += 0.5
    return total


def enumeration_oracle(x, min_segment, k_max, p=0.5):
    """Best segmentation of sorted x by brute force over cut positions.

    Mirrors the detection objective term for term: standardized values,
    NIG marginals with the local-scale prior b_0 = k_0 * var, the
    sorted-contiguity factorials, a uniform position prior per cut, and
    the geometric count prior. Cuts between equal values are skipped.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    z = (x - x.mean()) / x.std(ddof=1)
    base = SegmentPrior.from_data(z)
    prior = SegmentPrior(
        mu0=base.mu0,
        beta0=max(base.kappa0 * base.beta0, 1e-12),
        kappa0=base.kappa0,
        alpha0=base.alpha0,
    )
    best_score, best_cuts = -np.inf, None
    max_segments = min(k_max + 1, n // min_segment)
    for m in range(1, max_segments + 1):
        for cuts in itertools.combinations(range(1, n), m - 1):
            edges = (0,) + cuts + (n,)
            if any(b - a < min_segment for a, b in zip(edges, edges[1:])):
                continue
            if any(x[c - 1] == x[c] for c in cuts):
                continue
            score = sum(
                segment_log_marginal(z[a:b], prior) + math.lgamma(b - a + 1)
                for a, b in zip(edges, edges[1:])
            )
            score += (m - 1) * (math.log(1.0 - p) - math.log(n - 1.0))
            score += math.log(p) - math.lgamma(n + 1)
            if score > best_score:
                best_score, best_cuts = score, cuts
    boundaries = tuple((x[c - 1] + x[c]) / 2.0 for c in best_cuts)
    return best_score, boundaries


def _segment_table(x, prior: SegmentPrior):
    """S[i, j] = log marginal of x[i:j] for all 0 <= i < j <= n, vectorized
    via prefix sums. Data is centered on mu_0 first; the statistics the
    formula consumes (sse, mean - mu_0) are shift-invariant, and centering
    keeps the sum-of-squares subtraction well conditioned."""
    n = x.size
    xc = x - prior.mu0
    s1 = np.concatenate([[0.0], np.cumsum(xc)])
    s2 = np.concatenate([[0.0], np.cumsum(xc * xc)])
    i = np.arange(n + 1)[:, None]
    j = np.arange(n + 1)[None, :]
    cnt = (j - i).astype(np.float64)
    valid = j > i
    cnt_safe = np.where(valid, cnt, 1.0)
    total = s1[None, :] - s1[:, None]
    ssq = s2[None, :] - s2[:, None]
    sse = np.maximum(ssq - total * total / cnt_safe, 0.0)
    centered_prior = SegmentPrior(
        mu0=0.0, beta0=prior.beta0, kappa0=prior.kappa0, alpha0=prior.alpha0
    )
    with np.errstate(invalid="ignore"):
        table = _log_marginal_terms(cnt_safe, total, sse, centered_prior)
    return np.where(valid, table, -np.inf)


def full_table_oracle(runtimes, min_segment=5, k_max=8, geometric_p=0.5):
    """The detection DP over a dense (n+1)x(n+1) segment-score table, one
    Python loop per segment count: the straightforward form of the same
    objective, in the same arithmetic order, so its results must match
    `detect_changepoints` bit for bit. No segment starts inside a run of
    equal values."""
    x = np.sort(np.asarray(runtimes, dtype=np.float64))
    n = x.size
    scale = float(x.std(ddof=1))
    z = (x - x.mean()) / scale if scale > 0.0 else x - x.mean()
    base = SegmentPrior.from_data(z)
    prior = SegmentPrior(
        mu0=base.mu0,
        beta0=max(base.kappa0 * base.beta0, 1e-12),
        kappa0=base.kappa0,
        alpha0=base.alpha0,
    )
    counts = np.arange(n + 1, dtype=np.float64)
    width = np.maximum(counts[None, :] - counts[:, None], 0.0)
    seg = _segment_table(z, prior) + _per_count(lambda c: math.lgamma(c + 1.0), width)
    seg[np.flatnonzero(x[1:] == x[:-1]) + 1] = -np.inf

    max_segments = min(k_max + 1, n // min_segment)
    best = np.full((max_segments + 1, n + 1), -np.inf)
    back = np.zeros((max_segments + 1, n + 1), dtype=np.intp)
    best[1] = seg[0]
    for m in range(2, max_segments + 1):
        lo = (m - 1) * min_segment
        for j in range(m * min_segment, n + 1):
            cand = best[m - 1, lo : j - min_segment + 1] + seg[lo : j - min_segment + 1, j]
            a = int(np.argmax(cand))
            best[m, j] = cand[a]
            back[m, j] = lo + a

    log_p = np.log(geometric_p)
    per_cut = np.log1p(-geometric_p) - np.log(n - 1.0)
    offset = -math.lgamma(n + 1.0)
    best_m, best_score = 1, best[1, n] + log_p + offset
    for m in range(2, max_segments + 1):
        score = best[m, n] + (m - 1) * per_cut + log_p + offset
        if score > best_score:
            best_m, best_score = m, score

    cuts = []
    j = n
    for m in range(best_m, 1, -1):
        j = int(back[m, j])
        cuts.append(j)
    cuts.reverse()
    boundaries = tuple(float(0.5 * (x[c - 1] + x[c])) for c in cuts)
    return boundaries, float(best_score)


# ---------------------------------------------------------------------------
# segment marginal


def test_marginal_matches_sequential_predictive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        xs = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 2.0), size=n)
        prior = SegmentPrior(
            mu0=float(rng.uniform(-2, 2)),
            beta0=float(rng.uniform(0.05, 3.0)),
            kappa0=float(rng.uniform(0.005, 1.0)),
            alpha0=float(rng.uniform(0.5, 4.0)),
        )
        ours = segment_log_marginal(xs, prior)
        ref = sequential_predictive_oracle(xs, prior)
        assert ours == pytest.approx(ref, abs=1e-9)


def test_marginal_default_prior_from_slice():
    xs = np.random.default_rng(5).normal(0.0, 1.0, size=50)
    prior = SegmentPrior.from_data(xs)
    assert segment_log_marginal(xs) == pytest.approx(
        sequential_predictive_oracle(xs, prior), abs=1e-9
    )


def test_marginal_prefers_tight_segments():
    prior = SegmentPrior(mu0=0.0, beta0=1.0)
    tight = np.full(20, 0.5) + np.linspace(-1e-3, 1e-3, 20)
    loose = np.linspace(-2.0, 3.0, 20)
    assert segment_log_marginal(tight, prior) > segment_log_marginal(loose, prior)


def test_marginal_empty_rejected():
    with pytest.raises(ContractError):
        segment_log_marginal(np.array([]))


def test_marginal_single_point_finite():
    val = segment_log_marginal(np.array([1.3]), SegmentPrior(mu0=0.0, beta0=1.0))
    assert np.isfinite(val)


# ---------------------------------------------------------------------------
# DP vs enumeration


def test_dp_equals_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(10, 21))
        kind = trial % 3
        if kind == 0:
            x = rng.normal(0.0, 1.0, size=n)
        elif kind == 1:
            half = n // 2
            x = np.concatenate(
                [rng.normal(0.0, 0.05, half), rng.normal(1.0, 0.05, n - half)]
            )
        else:
            third = n // 3
            x = np.concatenate(
                [
                    rng.normal(0.0, 0.05, third),
                    rng.normal(1.0, 0.05, third),
                    rng.normal(2.0, 0.05, n - 2 * third),
                ]
            )
        got = detect_changepoints(x, min_segment=3, k_max=3)
        want_score, want_bounds = enumeration_oracle(x, min_segment=3, k_max=3)
        assert got.log_posterior == pytest.approx(want_score, abs=1e-9)
        assert got.boundaries == pytest.approx(want_bounds, abs=0)


def test_block_dp_matches_full_table_oracle(monkeypatch):
    # widths 1 and 7 make every input cross several block edges, and with
    # min_segment above the width a split point lies in an earlier block;
    # at 512 every input fits in one block, so the block's own end points
    # are split points of its later rows
    for block in (1, 7, 512):
        monkeypatch.setattr(changepoint, "_BLOCK", block)
        rng = np.random.default_rng(11)
        checked = wider = 0
        for trial in range(240):
            n = int(rng.integers(2, 120))
            k = int(rng.integers(1, 5))
            centers = rng.uniform(0.0, 5.0, k)
            x = rng.normal(centers[rng.integers(0, k, n)], rng.uniform(0.01, 0.5))
            if trial % 3 == 1:
                x = np.round(x, 1)  # tied runtimes
            if trial % 20 == 0:
                x = np.full(n, 2.5)  # constant input
            min_segment = int(rng.integers(1, 12))
            k_max = int(rng.integers(0, 9))
            if n < 2 * min_segment:
                continue
            got = detect_changepoints(x, min_segment=min_segment, k_max=k_max)
            want = full_table_oracle(x, min_segment=min_segment, k_max=k_max)
            assert (got.boundaries, got.log_posterior) == want, (block, trial)
            checked += 1
            wider += min_segment > block
        assert checked > 150
        assert wider > 30 or block == 512


def test_tied_split_points_resolve_to_the_first(monkeypatch):
    # mirror-symmetric input: cutting after the 0s and cutting before the
    # 2s score exactly the same, and the first split point wins
    x = np.array([0.0] * 4 + [1.0] * 3 + [2.0] * 4)
    want = full_table_oracle(x, min_segment=4, k_max=4)
    assert want[0] == (0.5,)
    for block in (1, 7, 32):
        monkeypatch.setattr(changepoint, "_BLOCK", block)
        got = detect_changepoints(x, min_segment=4, k_max=4)
        assert (got.boundaries, got.log_posterior) == want


def test_cuts_between_tied_runtimes_are_inadmissible():
    # min_segment = 4 would force both cuts inside the run of 2.0s, where
    # no boundary can separate them; the only admissible segmentation is one
    # segment
    x = [1.0] + [2.0] * 17 + [3.0] * 3
    res = detect_changepoints(x, min_segment=4, k_max=6)
    assert res.exit_count == 1
    # noiseless runs segment exactly at their edges
    x = np.repeat([1.0, 2.0, 3.0, 4.0], [300, 100, 50, 50])
    res = detect_changepoints(x)
    assert res.boundaries == (1.5, 2.5, 3.5)
    assert np.array_equal(assign_exits(x, res), np.repeat([1, 2, 3, 4], [300, 100, 50, 50]))


def test_rounded_runtimes_always_segment():
    rng = np.random.default_rng(13)
    for trial in range(3000):
        n = int(rng.integers(4, 40))
        centers = rng.uniform(0.0, 5.0, int(rng.integers(1, 4)))
        x = rng.normal(centers[rng.integers(0, centers.size, n)], rng.uniform(0.05, 1.0))
        x = np.round(x, 1) if trial % 2 else np.round(x)
        min_segment = int(rng.integers(1, n // 2 + 1))
        res = detect_changepoints(x, min_segment=min_segment, k_max=int(rng.integers(0, 7)))
        sizes = np.bincount(assign_exits(x, res))[1:]
        assert sizes.size == res.exit_count and sizes.min() >= min_segment, trial


def test_block_dp_matches_full_table_oracle_at_2000():
    rng = np.random.default_rng(12)
    centers = np.array([1.0, 1.4, 1.8, 2.2])
    x = rng.normal(centers[rng.integers(0, 4, 2000)], 0.08)
    got = detect_changepoints(x)
    assert (got.boundaries, got.log_posterior) == full_table_oracle(x)


def test_detection_memory_is_linear_in_n():
    # the full-table DP peaked at 421 MB at n = 2000; one (n+1)^2 float64
    # array alone is 32 MB, so the 24 MiB bound also catches a single
    # reintroduced table. At n = 3500 a DP that gathers the length-only
    # terms into fresh arrays for every block peaked at 10.4 MiB.
    for n, bound_mib in ((2000, 24), (3500, 8)):
        x = np.random.default_rng(13).normal(0.0, 1.0, n)
        peak = traced_peak(lambda: detect_changepoints(x))
        assert peak < bound_mib * 2**20, (n, peak)


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(1, 0.02, 30), rng.normal(2, 0.02, 30)])
    a = detect_changepoints(x)
    b = detect_changepoints(rng.permutation(x))
    assert a.boundaries == b.boundaries
    assert a.log_posterior == b.log_posterior


def test_affine_equivariance():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(1, 0.03, 25), rng.normal(3, 0.03, 25)])
    base = detect_changepoints(x)
    scaled = detect_changepoints(4.0 * x + 7.0)
    assert scaled.exit_count == base.exit_count
    for got, want in zip(scaled.boundaries, base.boundaries):
        assert got == pytest.approx(4.0 * want + 7.0, rel=1e-9)
    # detection standardizes internally, so the score itself is invariant
    assert scaled.log_posterior == pytest.approx(base.log_posterior, abs=1e-8)


# ---------------------------------------------------------------------------
# recovery on constructed mixtures


def test_two_cluster_recovery():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(1.0, 0.01, 10), rng.normal(2.0, 0.01, 10)])
    res = detect_changepoints(x)
    assert res.exit_count == 2
    assert 1.05 < res.boundaries[0] < 1.95


def test_single_cluster_no_changepoints():
    rng = np.random.default_rng(2)
    res = detect_changepoints(rng.normal(1.0, 0.01, 40))
    assert res.exit_count == 1
    assert res.boundaries == ()
    assert len(res.boundaries) == 0


def test_four_cluster_recovery_with_boundary_locations():
    rng = np.random.default_rng(6)
    centers = [1.0, 2.0, 3.0, 4.0]
    x = np.concatenate([rng.normal(c, 0.05, 50) for c in centers])
    res = detect_changepoints(x)
    assert res.exit_count == 4
    for got, mid in zip(res.boundaries, [1.5, 2.5, 3.5]):
        assert abs(got - mid) < 0.25


def test_large_tight_clusters_do_not_oversegment():
    # calibration sets put hundreds of near-identical runtimes in one
    # cluster; sorted order statistics must not masquerade as changepoints
    rng = np.random.default_rng(7)
    sizes = (600, 200, 150, 50)
    centers = (1.0, 2.0, 3.0, 4.0)
    x = np.concatenate(
        [rng.normal(c, 0.05, s) for c, s in zip(centers, sizes)]
    )
    res = detect_changepoints(x)
    assert res.exit_count == 4


def test_min_segment_enforced():
    rng = np.random.default_rng(8)
    # 3 stray points below a 30-point cluster cannot form their own segment
    x = np.concatenate([np.array([0.0, 0.01, 0.02]), rng.normal(5.0, 0.01, 30)])
    res = detect_changepoints(x, min_segment=5)
    if res.exit_count > 1:
        srt = np.sort(x)
        edges = np.searchsorted(srt, res.boundaries)
        sizes = np.diff(np.concatenate([[0], edges, [len(srt)]]))
        assert sizes.min() >= 5


def test_too_few_points_rejected():
    with pytest.raises(ContractError):
        detect_changepoints(np.ones(9), min_segment=5)


def test_min_segment_below_one_rejected():
    for bad in (0, -2):
        with pytest.raises(ContractError, match="min_segment"):
            detect_changepoints(np.arange(20.0), min_segment=bad)


def test_negative_k_max_rejected():
    with pytest.raises(ContractError, match="k_max"):
        detect_changepoints(np.arange(20.0), k_max=-1)


def test_non_integer_arguments_rejected():
    x = np.arange(30.0)
    for name in ("min_segment", "k_max"):
        for bad in (2.5, 1.5, 2.0, True, False, "3"):
            with pytest.raises(ContractError, match=f"{name} must be an integer"):
                detect_changepoints(x, **{name: bad})
    # numpy integers are integers
    res = detect_changepoints(x, min_segment=np.int64(3), k_max=np.int32(2))
    assert res == detect_changepoints(x, min_segment=3, k_max=2)


def test_non_finite_rejected():
    with pytest.raises(ContractError):
        detect_changepoints(np.array([1.0, np.nan] + [2.0] * 10))


# ---------------------------------------------------------------------------
# log-gamma without scipy


def test_length_terms_take_log_gamma_of_each_entry():
    # one math.lgamma call per distinct length, laid out at every position
    # that holds that length, is bitwise one call per entry
    prior = SegmentPrior(mu0=0.0, beta0=0.37, kappa0=0.02, alpha0=1.3)
    for n in (1, 2, 7, 300):
        terms = changepoint._length_terms(n, prior)
        length, alpha_n = terms[0], terms[3]
        assert np.array_equal(length, np.maximum(n - np.arange(2 * n + 1), 1))
        head = np.array([math.lgamma(a) for a in alpha_n]) - math.lgamma(prior.alpha0)
        assert np.array_equal(terms[4], head + prior.alpha0 * np.log(prior.beta0))
        assert np.array_equal(terms[7], [math.lgamma(c + 1.0) for c in length])


def test_log_gamma_terms_match_scipy():
    # a_0 = b_0 = 1 leaves the a_n term as lgamma(1 + L/2) alone; relative
    # error bound set beforehand, 1.6e-15 measured
    n = 5000
    terms = changepoint._length_terms(n, SegmentPrior(mu0=0.0, beta0=1.0, alpha0=1.0))
    length, lgamma_alpha_n, lgamma_count = (terms[i][:n] for i in (0, 4, 7))
    assert np.array_equal(length, np.arange(n, 0, -1))
    np.testing.assert_allclose(lgamma_alpha_n, gammaln(1.0 + 0.5 * length), rtol=1e-14, atol=0)
    np.testing.assert_allclose(lgamma_count, gammaln(length + 1.0), rtol=1e-14, atol=0)


def test_package_runs_without_scipy():
    script = f"""
import sys
sys.modules["scipy"] = None  # importing scipy or any submodule raises ImportError
sys.path.insert(0, {os.path.dirname(os.path.dirname(changepoint.__file__))!r})
import numpy as np
import exitsteal
from exitsteal.harness.cli import main
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
x = np.repeat([1.0, 2.0], 10) + np.tile(np.linspace(0.0, 0.01, 10), 2)
print("exits", exitsteal.detect_changepoints(x).exit_count)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "usage: exitsteal" in done.stdout and done.stdout.endswith("exits 2\n")


# ---------------------------------------------------------------------------
# exit assignment


def test_assign_exit_half_open_intervals():
    res = ChangepointResult(boundaries=(1.2, 2.1, 3.0), log_posterior=0.0)
    assert assign_exits([1.5], res).tolist() == [2]
    assert assign_exits([0.0], res).tolist() == [1]
    assert assign_exits([99.0], res).tolist() == [4]
    # a runtime equal to a boundary belongs to the right interval
    assert assign_exits([2.1], res).tolist() == [3]


def test_assign_exits_vectorized_matches_scalar():
    res = ChangepointResult(boundaries=(0.5, 1.5), log_posterior=0.0)
    runtimes = np.array([0.1, 0.5, 0.7, 1.5, 2.0])
    got = assign_exits(runtimes, res)
    # one plus the number of boundaries at or below the runtime
    assert got.tolist() == [1 + sum(r >= b for b in res.boundaries) for r in runtimes]


def test_assignment_accuracy_on_heldout():
    rng = np.random.default_rng(9)
    centers = np.array([1.0, 2.0, 3.0, 4.0])
    sigma = 0.06
    train = np.concatenate([rng.normal(c, sigma, 50) for c in centers])
    res = detect_changepoints(train)
    assert res.exit_count == 4
    labels = rng.integers(0, 4, size=10_000)
    held = rng.normal(centers[labels], sigma)
    got = assign_exits(held, res)
    assert (got == labels + 1).mean() >= 0.995
