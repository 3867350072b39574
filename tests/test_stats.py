"""Metrics and nonparametric tests against exact and Monte Carlo oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locodec import stats
from locodec.errors import DegenerateDataError, FitError

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# pearson r and R-squared
# ---------------------------------------------------------------------------


def test_r_self_and_negated():
    x = RNG(0).normal(size=40)
    assert stats.pearson_r(x, x) == pytest.approx(1.0)
    assert stats.pearson_r(x, -x) == pytest.approx(-1.0)


def test_r_constant_rejected():
    with pytest.raises(DegenerateDataError):
        stats.pearson_r(np.ones(10), RNG(1).normal(size=10))


def test_r2_of_mean_predictor_is_zero():
    actual = RNG(2).normal(size=30)
    pred = np.full(30, actual.mean())
    assert stats.r_squared(pred, actual) == pytest.approx(0.0, abs=1e-12)


def test_r_and_r2_decouple_under_bias():
    actual = RNG(3).normal(size=50)
    pred = actual + 100.0
    assert stats.pearson_r(pred, actual) == pytest.approx(1.0)
    assert stats.r_squared(pred, actual) < 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_r_affine_invariance(seed, scale, shift):
    rng = RNG(seed)
    a, b = rng.normal(size=25), rng.normal(size=25)
    base = stats.pearson_r(a, b)
    assert stats.pearson_r(scale * a + shift, b) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# Friedman
# ---------------------------------------------------------------------------


def brute_force_friedman_statistic(table: np.ndarray) -> float:
    """Direct transcription of the rank formula, written independently of the
    implementation: average ranks within rows, tie-corrected chi-squared."""
    n, k = table.shape
    ranks = np.empty_like(table, dtype=np.float64)
    for i, row in enumerate(table):
        order = np.argsort(row)
        rank_row = np.empty(k)
        j = 0
        while j < k:
            tied = [order[j]]
            while j + 1 < k and row[order[j + 1]] == row[order[j]]:
                j += 1
                tied.append(order[j])
            avg = np.mean([np.flatnonzero(order == c)[0] + 1 for c in tied])
            for c in tied:
                rank_row[c] = avg
            j += 1
        ranks[i] = rank_row
    rj = ranks.sum(axis=0)
    stat = 12.0 / (n * k * (k + 1)) * float((rj**2).sum()) - 3.0 * n * (k + 1)
    ties = sum(
        float((counts**3 - counts).sum())
        for counts in (np.unique(row, return_counts=True)[1] for row in table)
    )
    correction = 1.0 - ties / (n * k * (k * k - 1))
    return stat / correction if correction > 0 else 0.0


def test_friedman_all_tied():
    table = np.tile(np.array([1.0, 1.0, 1.0]), (5, 1))
    assert stats.friedman(table) == (0.0, 1.0)


def test_friedman_dominant_column():
    rng = RNG(4)
    table = rng.normal(size=(20, 3))
    table[:, 2] = table.max(axis=1) + 1.0
    _, p = stats.friedman(table)
    assert p < 0.001


def test_friedman_matches_brute_force():
    rng = RNG(5)
    for _ in range(10):
        table = np.round(rng.normal(size=(10, 3)), 2)  # rounding forces some ties
        stat, _ = stats.friedman(table)
        assert stat == pytest.approx(brute_force_friedman_statistic(table), abs=1e-10)


def test_friedman_rank_invariance():
    rng = RNG(6)
    table = rng.normal(size=(12, 4))
    warped = np.exp(3.0 * table)  # strictly monotone within rows
    assert stats.friedman(table)[0] == pytest.approx(stats.friedman(warped)[0], abs=1e-10)


def test_friedman_shape_checks():
    with pytest.raises(ValueError):
        stats.friedman(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        stats.friedman(np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank
# ---------------------------------------------------------------------------


def test_wilcoxon_identical_pairs_degenerate():
    x = RNG(7).normal(size=10)
    with pytest.raises(DegenerateDataError):
        stats.wilcoxon_signed_rank(x, x)


def test_wilcoxon_all_positive_n10_exact():
    # of the 2^10 equally likely sign assignments only W-=0 and W+=0 are as
    # extreme as observed, hence two-sided p = 2/1024
    b = RNG(8).normal(size=10)
    a = b + np.abs(RNG(9).normal(size=10)) + 0.1
    out = stats.wilcoxon_signed_rank(a, b)
    assert out.method == "wilcoxon_exact"
    assert out.p_raw == pytest.approx(2.0 / 1024.0, abs=1e-15)
    assert out.statistic == 0.0


def test_wilcoxon_drops_zero_differences():
    b = np.arange(12, dtype=float)
    a = b.copy()
    a[:10] += np.linspace(0.5, 5.0, 10)  # ten positive diffs, two exact zeros
    out = stats.wilcoxon_signed_rank(a, b)
    assert out.n == 10
    assert out.p_raw == pytest.approx(2.0 / 1024.0, abs=1e-15)


def test_wilcoxon_exact_close_to_normal_at_25():
    rng = RNG(10)
    gaps = []
    for _ in range(100):
        a = rng.normal(size=25)
        b = a + rng.normal(scale=0.8, size=25)
        d, ranks, w_pos, _ = stats._signed_rank_parts(a, b)
        assert d.size == 25
        exact = stats._exact_wilcoxon_p(ranks, w_pos)
        approx = stats._normal_wilcoxon_p(d, ranks, w_pos)
        gaps.append(abs(exact - approx))
    assert max(gaps) < 0.01


def test_wilcoxon_two_sided_symmetry():
    rng = RNG(11)
    a, b = rng.normal(size=15), rng.normal(size=15)
    assert stats.wilcoxon_signed_rank(a, b).p_raw == stats.wilcoxon_signed_rank(b, a).p_raw


def test_wilcoxon_switches_to_normal_above_limit():
    rng = RNG(12)
    a = rng.normal(size=60)
    b = a + rng.normal(size=60)
    assert stats.wilcoxon_signed_rank(a, b).method == "wilcoxon_normal"


def test_wilcoxon_zero_difference_takes_no_rank():
    # diffs are (0, +1, -2, +3): the zero is dropped before ranking, so the
    # ranks are (1, 2, 3) and min(W+, W-) = min(4, 2) = 2
    a = np.array([5.0, 2.0, 1.0, 4.0])
    b = np.array([5.0, 1.0, 3.0, 1.0])
    out = stats.wilcoxon_signed_rank(a, b)
    assert out.n == 3
    assert out.statistic == 2.0


# ---------------------------------------------------------------------------
# Bonferroni
# ---------------------------------------------------------------------------


def test_bonferroni_scales_and_clamps():
    np.testing.assert_allclose(stats.bonferroni([0.01, 0.4], m=5), [0.05, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_bonferroni_monotone_and_order_preserving(ps):
    adj = stats.bonferroni(ps)
    assert np.all(adj >= np.asarray(ps))
    # order is preserved weakly: the clamp at 1.0 may merge, never reorder
    for i in range(len(ps)):
        for j in range(len(ps)):
            if ps[i] < ps[j]:
                assert adj[i] <= adj[j]


# ---------------------------------------------------------------------------
# bootstrap median CI
# ---------------------------------------------------------------------------


def test_bootstrap_constant_data():
    med, lo, hi = stats.bootstrap_median_ci(np.full(20, 3.25), n_boot=500, seed=1)
    assert med == lo == hi == 3.25


def test_bootstrap_deterministic():
    x = RNG(13).normal(size=50)
    assert stats.bootstrap_median_ci(x, seed=42) == stats.bootstrap_median_ci(x, seed=42)


def test_bootstrap_coverage_of_true_median():
    hits = 0
    trials = 120
    for seed in range(trials):
        x = RNG(1000 + seed).normal(size=200)
        _, lo, hi = stats.bootstrap_median_ci(x, n_boot=2000, seed=seed)
        hits += lo <= 0.0 <= hi
    assert hits / trials == pytest.approx(0.95, abs=0.05)


def test_bootstrap_interval_narrows_with_n():
    rng = RNG(14)
    small = rng.normal(size=50)
    large = rng.normal(size=500)
    _, lo_s, hi_s = stats.bootstrap_median_ci(small, n_boot=4000, seed=2)
    _, lo_l, hi_l = stats.bootstrap_median_ci(large, n_boot=4000, seed=2)
    assert (hi_s - lo_s) > (hi_l - lo_l)


# ---------------------------------------------------------------------------
# quadratic fit
# ---------------------------------------------------------------------------


def test_polyfit2_exact_quadratic():
    xs = np.linspace(-3, 3, 9)
    ys = 2.0 * xs**2 - xs + 3.0
    np.testing.assert_allclose(stats.polyfit2(xs, ys), [3.0, -1.0, 2.0], atol=1e-9)


def test_polyfit2_constant():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(stats.polyfit2(xs, np.full(4, 5.5)), [5.5, 0.0, 0.0], atol=1e-12)


def test_polyfit2_matches_normal_equations():
    rng = RNG(15)
    for _ in range(20):
        xs = rng.uniform(-2, 2, size=12)
        ys = rng.normal(size=12)
        design = np.column_stack([np.ones(12), xs, xs * xs])
        oracle = np.linalg.solve(design.T @ design, design.T @ ys)
        np.testing.assert_allclose(stats.polyfit2(xs, ys), oracle, atol=1e-8)


def test_polyfit2_residual_orthogonality():
    rng = RNG(16)
    xs = rng.uniform(-5, 5, size=30)
    ys = rng.normal(size=30)
    c = stats.polyfit2(xs, ys)
    design = np.column_stack([np.ones(30), xs, xs * xs])
    resid = ys - design @ c
    np.testing.assert_allclose(design.T @ resid, 0.0, atol=1e-9)


def test_polyfit2_needs_three_distinct_xs():
    with pytest.raises(FitError):
        stats.polyfit2([1.0, 1.0, 2.0, 2.0], [0.0, 1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# paired scores and the comparison battery
# ---------------------------------------------------------------------------


def test_paired_scores_drops_incomplete_sessions():
    scores = stats.PairedScores.from_mapping(
        "r",
        {
            "linear": {"s1": 0.5, "s2": 0.6, "s3": 0.7},
            "lstm": {"s1": 0.8, "s3": 0.9},  # s2 missing
        },
    )
    assert scores.sessions == ("s1", "s3")
    assert scores.table.shape == (2, 2)


def test_compare_variants_structure():
    rng = RNG(17)
    base = rng.uniform(0.3, 0.6, size=8)
    scores = stats.PairedScores.from_mapping(
        "r",
        {
            "a": {f"s{i}": float(base[i]) for i in range(8)},
            "b": {f"s{i}": float(base[i] + 0.2) for i in range(8)},
            "c": {f"s{i}": float(base[i] + rng.normal(scale=0.01)) for i in range(8)},
        },
    )
    out = stats.compare_variants(scores)
    assert out[0].method == "friedman"
    pairwise = out[1:]
    assert [o.comparison for o in pairwise] == ["a_vs_b", "a_vs_c", "b_vs_c"]
    for o in pairwise:
        assert o.p_adjusted == pytest.approx(min(1.0, o.p_raw * 3))
    # a vs b differs by a constant +0.2 in every session: maximally significant
    assert pairwise[0].p_raw == pytest.approx(2.0 / 256.0, abs=1e-12)


def test_compare_variants_tied_pair_is_degenerate():
    same = {f"s{i}": 0.1 * i for i in range(4)}
    scores = stats.PairedScores.from_mapping("r", {"a": same, "b": dict(same)})
    friedman_row, pair = stats.compare_variants(scores)
    assert friedman_row.method == "friedman"
    assert pair.comparison == "a_vs_b"
    assert pair.method == "wilcoxon_degenerate"
    assert pair.p_raw == 1.0
    assert pair.p_adjusted == 1.0
    assert pair.n == 4


def test_compare_variants_too_few_rows():
    scores = stats.PairedScores.from_mapping(
        "r", {"a": {"s1": 0.1, "s2": 0.2}, "b": {"s1": 0.3, "s2": 0.4}}
    )
    assert stats.compare_variants(scores) == []
