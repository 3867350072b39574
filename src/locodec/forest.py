"""Bagged CART regression forest.

Each tree is grown on a bootstrap sample of the rows; every split scans a
random feature subset (a third of the features by default, rounded up) for
the variance-reducing threshold, placed midway between consecutive distinct
values. Leaves predict their training mean and the ensemble averages the
trees. Thresholds and leaf values are quantized to float32 when the fit
finishes so serialized trees reproduce in-memory predictions bit for bit.

Split search is exact and vectorized per node. A fit ranks each feature
once: a feature-major (features, rows) int32 array of dense ranks, where
equal values share a rank, filled ``BLOCK_FEATURES`` columns at a time. A
node scores its candidate features in blocks of ``BLOCK_FEATURES``, which
bounds its scratch memory. For each feature of a block it builds integer
keys ``rank << shift | position``, the position being the row's place among
the node's rows, and one integer sort of the block orders them. Positions
are unique and a node keeps its rows in ascending order, so the sorted keys
are exactly a stable argsort of the feature's values: tied values keep row
order, and the cumulative sums and SSEs are bitwise those of a stable
per-feature scan. Cumulative sums run along the rows, valid cuts lie where
consecutive ranks differ, and one masked argmin picks the block's cut. A
block replaces the running best only on a strictly smaller SSE, so ties go
to the first feature drawn, then to the first cut. Keys are int32 when the
rank bits plus the position bits fit in 31, otherwise int64.

The threshold is the midpoint of the two feature values at the cut, or the
lower value where the midpoint is not below the upper one (two adjacent
floats, or an overflowing sum), and the node's rows are sent left by
comparing their values, not their ranks, with it, as at prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK_FEATURES = 32  # candidate features scored together at a node


@dataclass(frozen=True)
class ForestSpec:
    n_trees: int = 100
    max_depth: int | None = 12
    min_samples_leaf: int = 1
    bootstrap: bool = True
    max_features: float | str = "third"  # "third", "all", or a fraction
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        mf = self.max_features
        is_fraction = isinstance(mf, (int, float)) and not isinstance(mf, bool) and 0.0 < mf <= 1.0
        if mf not in ("third", "all") and not is_fraction:
            raise ValueError(f'max_features must be "third", "all" or a fraction in (0, 1], got {mf!r}')


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; feature -1 marks a leaf, children index into the
    same arrays."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.size


@dataclass(frozen=True)
class Forest:
    spec: ForestSpec
    n_features: int
    trees: tuple[Tree, ...]


def _n_split_features(spec: ForestSpec, d: int) -> int:
    if spec.max_features == "third":
        return max(1, math.ceil(d / 3))
    if spec.max_features == "all":
        return d
    return max(1, math.ceil(spec.max_features * d))


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Feature-major (d, n) int32 dense ranks of the columns of ``x`` (n, d):
    equal values share a rank and ranks rise with the value. Ranked
    ``BLOCK_FEATURES`` columns at a time, so the scratch stays a block."""
    ranks = np.empty(x.shape[::-1], dtype=np.int32)
    for j in range(0, x.shape[1], BLOCK_FEATURES):
        xb = x[:, j : j + BLOCK_FEATURES].T
        order = np.argsort(xb, axis=1)
        xs = np.take_along_axis(xb, order, axis=1)
        step = np.zeros(xs.shape, dtype=np.int32)
        np.not_equal(xs[:, 1:], xs[:, :-1], out=step[:, 1:])
        np.put_along_axis(ranks[j : j + BLOCK_FEATURES], order, np.cumsum(step, axis=1, out=step), axis=1)
    return ranks


def _best_block_split(keys: np.ndarray, y: np.ndarray, min_leaf: int, shift: int):
    """Lowest-SSE cut over the features (rows) of ``keys`` (b, m), each a
    feature's ``rank << shift | position`` for the node's rows, sorted here
    in place: (sse, row, left position, right position), the positions
    being the node rows on either side of the cut, or None if no row has a
    valid cut. Ties go to the first row, then to the first cut."""
    keys.sort(axis=1)
    ranks = keys >> shift
    pos = (keys & ((1 << shift) - 1)).astype(np.intp, copy=False)
    ys = y[pos]
    n = y.size
    csum = np.cumsum(ys, axis=1)
    ys *= ys
    csq = np.cumsum(ys, axis=1)
    n_left = np.arange(1.0, n)  # float counts: same quotients, no int-to-float cast per element
    n_right = n - n_left
    sum_l = csum[:, :-1]
    sq_l = csq[:, :-1]
    # sse = (sq_l - sum_l**2 / n_left) + (sq_r - sum_r**2 / n_right), in place
    sse = sum_l * sum_l
    sse /= n_left
    np.subtract(sq_l, sse, out=sse)
    sum_r = csum[:, -1:] - sum_l
    sum_r *= sum_r
    sum_r /= n_right
    sq_r = csq[:, -1:] - sq_l
    sq_r -= sum_r
    sse += sq_r
    valid = (ranks[:, 1:] != ranks[:, :-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    np.copyto(sse, np.inf, where=~valid)
    cut = np.argmin(sse, axis=1)
    row = int(np.argmin(sse[np.arange(cut.size), cut]))
    i = int(cut[row])
    if not valid[row, i]:
        return None
    return float(sse[row, i]), row, int(pos[row, i]), int(pos[row, i + 1])


def _grow_tree(x: np.ndarray, ranks: np.ndarray, sample: np.ndarray, y: np.ndarray, spec: ForestSpec, rng) -> Tree:
    """One tree on the rows ``sample`` of ``x`` (n, d), whose dense ranks
    are ``ranks`` (d, n), with the sample's targets ``y``."""
    d = ranks.shape[0]
    k_feats = _n_split_features(spec, d)
    shift = (y.size - 1).bit_length()  # bits of a position within a node
    key_dtype = np.int32 if int(ranks.max()).bit_length() + shift <= 31 else np.int64
    positions = np.arange(y.size, dtype=key_dtype)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    # Explicit stack: (node index, ascending sample positions, depth).
    root = new_node()
    stack = [(root, np.arange(y.size), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ys = y[rows]
        mean = float(ys.mean())
        value[node] = mean
        if (
            (spec.max_depth is not None and depth >= spec.max_depth)
            or rows.size < 2 * spec.min_samples_leaf
            or rows.size < 2
            or np.ptp(ys) == 0.0
        ):
            continue
        feats = rng.choice(d, size=k_feats, replace=False)
        src = sample[rows]
        best = None
        for b in range(0, k_feats, BLOCK_FEATURES):
            block = feats[b : b + BLOCK_FEATURES]
            keys = ranks[block[:, None], src].astype(key_dtype, copy=False)
            keys <<= shift
            keys |= positions[: rows.size]
            cand = _best_block_split(keys, ys, spec.min_samples_leaf, shift)
            if cand is not None and (best is None or cand[0] < best[0]):
                best = (cand[0], int(block[cand[1]]), cand[2], cand[3])
        if best is None:
            continue
        _, f, lo, hi = best
        xf = x[src, f]
        thr = 0.5 * (xf[lo] + xf[hi])
        if not xf[lo] <= thr < xf[hi]:
            thr = xf[lo]
        go_left = xf <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], rows[go_left], depth + 1))
        stack.append((right[node], rows[~go_left], depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float32).astype(np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float32).astype(np.float64),
    )


def forest_fit(x: np.ndarray, y: np.ndarray, spec: ForestSpec = ForestSpec()) -> Forest:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ValueError(f"forest_fit expects (n, d) features and (n,) targets, got {x.shape}, {y.shape}")
    if y.size < 1:
        raise ValueError("forest_fit needs at least one row")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("forest_fit needs finite features and targets")
    ranks = _dense_ranks(x)
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_trees)
    trees = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng(seeds[t])
        sample = rng.integers(0, y.size, size=y.size) if spec.bootstrap else np.arange(y.size)
        trees.append(_grow_tree(x, ranks, sample, y[sample], spec, rng))
    return Forest(spec=spec, n_features=x.shape[1], trees=tuple(trees))


def _tree_predict(tree: Tree, x: np.ndarray) -> np.ndarray:
    idx = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feats = tree.feature[idx]
        at_leaf = feats < 0
        if at_leaf.all():
            return tree.value[idx]
        safe = np.where(at_leaf, 0, feats)
        go_left = x[np.arange(x.shape[0]), safe] <= tree.threshold[idx]
        nxt = np.where(go_left, tree.left[idx], tree.right[idx])
        idx = np.where(at_leaf, idx, nxt)


def forest_predict(forest: Forest, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != forest.n_features:
        raise ValueError(f"forest expects {forest.n_features} features, got {x.shape[1]}")
    acc = np.zeros(x.shape[0])
    for tree in forest.trees:
        acc += _tree_predict(tree, x)
    return acc / len(forest.trees)
