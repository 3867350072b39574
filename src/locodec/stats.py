"""Decoding metrics and nonparametric comparison machinery.

Pearson r and R-squared score per-session decoding quality. Variant
comparisons run a Friedman omnibus over paired per-session scores followed by
two-sided Wilcoxon signed-rank tests with Bonferroni correction; no normality
test is run, the nonparametric tests are always used.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import stats as sstats

from .errors import DegenerateDataError, FitError


def pearson_r(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"pearson_r expects matching 1-d arrays, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise ValueError("pearson_r needs at least 2 points")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        raise DegenerateDataError("pearson_r undefined: at least one input is constant")
    return float(np.clip((da * db).sum() / denom, -1.0, 1.0))


def r_squared(pred, actual) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot about the actual
    mean. Not a squared correlation; a biased predictor can push it negative,
    and predicting the test mean gives exactly 0."""
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ValueError(f"r_squared expects matching 1-d arrays, got {pred.shape} and {actual.shape}")
    if pred.size < 2:
        raise ValueError("r_squared needs at least 2 points")
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise DegenerateDataError("r_squared undefined: actual values are constant")
    ss_res = float(((actual - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class TestOutcome:
    comparison: str
    metric: str
    statistic: float
    p_raw: float
    p_adjusted: float
    n: int
    method: str


def friedman(scores) -> tuple[float, float]:
    """Friedman chi-squared over a (rows=subjects, cols=variants) table.

    Within-row average ranks, the usual tie correction, k-1 degrees of
    freedom. A table where every row is fully tied carries no information and
    returns (0, 1).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"friedman expects a 2-d table, got shape {scores.shape}")
    n, k = scores.shape
    if k < 2 or n < 3:
        raise ValueError(f"friedman needs >=2 variants and >=3 rows, got {scores.shape}")
    ranks = np.apply_along_axis(sstats.rankdata, 1, scores)
    ssbn = float((ranks.sum(axis=0) ** 2).sum())
    numerator = 12.0 / (n * k * (k + 1)) * ssbn - 3.0 * n * (k + 1)
    ties = 0.0
    for row in scores:
        _, counts = np.unique(row, return_counts=True)
        ties += float((counts**3 - counts).sum())
    c = 1.0 - ties / (n * k * (k * k - 1))
    if c == 0.0 or abs(numerator) < 1e-12:
        return 0.0, 1.0
    statistic = numerator / c
    return float(statistic), float(sstats.chi2.sf(statistic, k - 1))


def _signed_rank_parts(a, b):
    """Nonzero paired differences, their average ranks by magnitude, W+ and W-."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError("wilcoxon_signed_rank expects 1-d paired samples")
    d = d[d != 0.0]
    if d.size == 0:
        raise DegenerateDataError("wilcoxon undefined: all paired differences are zero")
    ranks = sstats.rankdata(np.abs(d))
    return d, ranks, float(ranks[d > 0].sum()), float(ranks[d < 0].sum())


def _exact_wilcoxon_p(ranks: np.ndarray, w_obs: float) -> float:
    """Two-sided exact p by enumerating all sign assignments over the observed
    (possibly tied) ranks. Ranks are doubled so half-integer average ranks
    become exact integers for the count distribution."""
    r2 = np.rint(2.0 * ranks).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    denom = counts.sum()  # 2**n
    w2 = int(np.rint(2.0 * w_obs))
    p_le = counts[: w2 + 1].sum() / denom
    p_ge = counts[w2:].sum() / denom
    return float(min(1.0, 2.0 * min(p_le, p_ge)))


def _normal_wilcoxon_p(d: np.ndarray, ranks: np.ndarray, w_pos: float) -> float:
    """Two-sided normal approximation with tie and continuity corrections."""
    n = d.size
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    var -= float((counts**3 - counts).sum()) / 48.0
    if var <= 0.0:
        raise DegenerateDataError("wilcoxon variance collapsed (all magnitudes tied)")
    dev = w_pos - mean
    dev -= 0.5 * np.sign(dev)  # continuity
    z = dev / np.sqrt(var)
    return float(min(1.0, 2.0 * sstats.norm.sf(abs(z))))


EXACT_WILCOXON_LIMIT = 25


def wilcoxon_signed_rank(a, b) -> TestOutcome:
    """Two-sided Wilcoxon signed-rank test for paired samples.

    Zero differences are dropped; tied magnitudes get average ranks. With at
    most 25 nonzero pairs the exact sign-enumeration distribution is used,
    beyond that a normal approximation with tie and continuity corrections.
    """
    d, ranks, w_pos, w_neg = _signed_rank_parts(a, b)
    if d.size <= EXACT_WILCOXON_LIMIT:
        p, method = _exact_wilcoxon_p(ranks, w_pos), "wilcoxon_exact"
    else:
        p, method = _normal_wilcoxon_p(d, ranks, w_pos), "wilcoxon_normal"
    return TestOutcome("", "", float(min(w_pos, w_neg)), float(p), float(p), int(d.size), method)


def bonferroni(p_values, m: int | None = None) -> np.ndarray:
    """min(1, p * m) for a family of m comparisons (m defaults to len(p))."""
    p = np.asarray(p_values, dtype=np.float64)
    if m is None:
        m = p.size
    if m < 1:
        raise ValueError("bonferroni needs m >= 1")
    return np.minimum(1.0, p * m)


def bootstrap_median_ci(
    x, n_boot: int = 10000, level: float = 0.95, seed: int = 0
) -> tuple[float, float, float]:
    """Percentile bootstrap confidence interval for the median: (median, lo, hi)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("bootstrap_median_ci needs at least 2 points")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(n_boot, x.size))
    medians = np.median(x[idx], axis=1)
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(medians, [alpha, 100.0 - alpha])
    return float(np.median(x)), float(lo), float(hi)


def polyfit2(xs, ys) -> np.ndarray:
    """Least-squares quadratic fit; coefficients ascending (c0, c1, c2) for
    y = c0 + c1 x + c2 x^2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"polyfit2 expects matching 1-d arrays, got {xs.shape} and {ys.shape}")
    if np.unique(xs).size < 3:
        raise FitError("polyfit2 needs at least 3 distinct x values")
    design = np.column_stack([np.ones_like(xs), xs, xs * xs])
    coeffs, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < 3:
        raise FitError("polyfit2 design matrix is rank deficient")
    return coeffs


@dataclass(frozen=True)
class PairedScores:
    """Per-session scores aligned across variants: rows are sessions that have
    every variant, columns follow ``variants``."""

    metric: str
    variants: tuple[str, ...]
    sessions: tuple[str, ...]
    table: np.ndarray

    @classmethod
    def from_mapping(cls, metric: str, by_variant: dict[str, dict[str, float]]) -> "PairedScores":
        variants = tuple(sorted(by_variant))
        if len(variants) < 2:
            raise ValueError("paired scores need at least 2 variants")
        common = set.intersection(*(set(by_variant[v]) for v in variants))
        sessions = tuple(sorted(common))
        table = np.array([[by_variant[v][s] for v in variants] for s in sessions])
        return cls(metric=metric, variants=variants, sessions=sessions, table=table)


def compare_variants(scores: PairedScores) -> list[TestOutcome]:
    """Friedman omnibus plus Bonferroni-corrected pairwise Wilcoxon tests."""
    n, k = scores.table.shape
    out: list[TestOutcome] = []
    if n < 3:
        return out
    stat, p = friedman(scores.table)
    out.append(
        TestOutcome(
            comparison="|".join(scores.variants),
            metric=scores.metric,
            statistic=stat,
            p_raw=p,
            p_adjusted=p,
            n=n,
            method="friedman",
        )
    )
    pairs = list(combinations(range(k), 2))
    raws = []
    for i, j in pairs:
        try:
            res = wilcoxon_signed_rank(scores.table[:, i], scores.table[:, j])
        except DegenerateDataError:
            res = TestOutcome("", "", 0.0, 1.0, 1.0, n, "wilcoxon_degenerate")
        raws.append(res)
    adjusted = bonferroni([r.p_raw for r in raws], m=len(pairs))
    for (i, j), res, p_adj in zip(pairs, raws, adjusted):
        out.append(
            TestOutcome(
                comparison=f"{scores.variants[i]}_vs_{scores.variants[j]}",
                metric=scores.metric,
                statistic=res.statistic,
                p_raw=res.p_raw,
                p_adjusted=float(p_adj),
                n=res.n,
                method=res.method,
            )
        )
    return out
