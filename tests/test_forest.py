"""Bagged CART regression forest."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locodec.forest import Forest, ForestSpec, Tree, _n_split_features, forest_fit, forest_predict
from locodec.stats import pearson_r


def test_single_stump_threshold():
    """Hand-built step data: a one-tree, full-feature forest must recover the
    split at x=0 and predict each side's mean."""
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([1.0, 1.0, 3.0, 3.0])
    spec = ForestSpec(n_trees=1, max_depth=1, bootstrap=False, max_features="all")
    model = forest_fit(x, y, spec)
    assert forest_predict(model, np.array([[-1.0]]))[0] == pytest.approx(1.0)
    assert forest_predict(model, np.array([[1.5]]))[0] == pytest.approx(3.0)


def test_single_unbagged_tree_memorizes_distinct_inputs():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    spec = ForestSpec(n_trees=1, max_depth=None, bootstrap=False, max_features="all")
    model = forest_fit(x, y, spec)
    pred = forest_predict(model, x).astype(np.float64)
    np.testing.assert_allclose(pred, y.astype(np.float32), atol=1e-6)


def test_forest_beats_linear_on_step_nonlinearity():
    """XOR-like target: sign agreement of two features. Linear regression has
    no axis-aligned signal; trees split it easily."""
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(600, 2))
    y = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
    x_test = rng.uniform(-1, 1, size=(300, 2))
    y_test = np.where(x_test[:, 0] * x_test[:, 1] > 0, 1.0, -1.0)

    model = forest_fit(x, y, ForestSpec(n_trees=50, max_depth=8, seed=3))
    r_forest = pearson_r(forest_predict(model, x_test), y_test)

    design = np.column_stack([np.ones(len(x)), x])
    w, *_ = np.linalg.lstsq(design, y, rcond=None)
    lin_pred = np.column_stack([np.ones(len(x_test)), x_test]) @ w
    r_linear = abs(pearson_r(lin_pred, y_test)) if np.ptp(lin_pred) > 0 else 0.0

    assert r_forest >= 0.9
    assert r_linear <= 0.3


def test_prediction_is_mean_of_trees():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    model = forest_fit(x, y, ForestSpec(n_trees=7, seed=5))
    q = rng.normal(size=(10, 4))
    stacked = np.stack(
        [
            forest_predict(Forest(spec=model.spec, n_features=4, trees=(t,)), q)
            for t in model.trees
        ]
    )
    np.testing.assert_allclose(forest_predict(model, q), stacked.mean(axis=0), atol=1e-6)


def test_fit_is_deterministic_given_seed():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 5))
    y = rng.normal(size=80)
    a = forest_fit(x, y, ForestSpec(n_trees=10, seed=11))
    b = forest_fit(x, y, ForestSpec(n_trees=10, seed=11))
    q = rng.normal(size=(20, 5))
    np.testing.assert_array_equal(forest_predict(a, q), forest_predict(b, q))


def test_depth_limit_respected():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    model = forest_fit(x, y, ForestSpec(n_trees=5, max_depth=2, bootstrap=False))
    for tree in model.trees:
        # a depth-2 binary tree has at most 7 nodes
        assert tree.n_nodes <= 7


def test_constant_target_predicts_constant():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    model = forest_fit(x, np.full(30, 2.5), ForestSpec(n_trees=3))
    np.testing.assert_allclose(forest_predict(model, x), 2.5, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_predictions_within_training_range(seed):
    """Mean-leaf trees cannot extrapolate beyond observed targets."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 3))
    y = rng.uniform(-2.0, 5.0, size=60)
    model = forest_fit(x, y, ForestSpec(n_trees=5, seed=seed))
    pred = forest_predict(model, rng.normal(size=(40, 3)) * 10.0)
    assert pred.min() >= y.min() - 1e-6
    assert pred.max() <= y.max() + 1e-6


def test_feature_subset_size_third_rule():
    assert _n_split_features(ForestSpec(), 640) == 214  # ceil(640/3)
    assert _n_split_features(ForestSpec(), 3) == 1
    assert _n_split_features(ForestSpec(max_features="all"), 10) == 10
    assert _n_split_features(ForestSpec(max_features=0.5), 10) == 5


def test_spec_validation():
    with pytest.raises(ValueError):
        ForestSpec(n_trees=0)
    with pytest.raises(ValueError):
        ForestSpec(max_depth=0)
    for bad in ("sqrt", 0.0, 1.5, -0.2, float("nan"), True, None):
        with pytest.raises(ValueError, match="max_features"):
            ForestSpec(max_features=bad)
    assert ForestSpec(max_features=1).max_features == 1


def test_fit_rejects_non_finite_inputs():
    x = np.arange(12.0).reshape(6, 2)
    y = np.arange(6.0)
    for bad_x, bad_y in ((np.where(x == 3.0, np.nan, x), y), (x, np.where(y == 2.0, np.inf, y))):
        with pytest.raises(ValueError, match="finite"):
            forest_fit(bad_x, bad_y, ForestSpec(n_trees=1))


def _windowed_session(n_windows=420, n_channels=32, window_len=20, seed=0):
    """A synthetic EEG session cut into time-major windows and flattened the
    way the forest decoder sees them: (n, window_len * n_channels). Built from
    random draws and arithmetic only, so the bytes do not depend on libm."""
    rng = np.random.default_rng(seed)
    n = n_windows + window_len - 1
    speed = np.clip(np.cumsum(rng.normal(scale=0.3, size=n)), 0.0, None)
    gains = rng.uniform(0.5, 1.5, size=n_channels)
    carrier = rng.normal(size=n)
    eeg = gains[:, None] * (0.2 + speed) * carrier + 0.1 * rng.normal(size=(n_channels, n))
    view = np.lib.stride_tricks.sliding_window_view(eeg, window_len, axis=1)
    x = view.transpose(1, 2, 0).reshape(n_windows, -1)
    return x, speed[window_len - 1 :]


def _checksum_fixtures():
    rng = np.random.default_rng(7)
    x_win, y_win = _windowed_session()
    x_tie = rng.integers(0, 3, size=(240, 8)).astype(np.float64)
    y_tie = rng.integers(0, 4, size=240) * 0.1 + 0.05 * x_tie[:, 0]
    x_int = rng.integers(-3, 4, size=(120, 5)).astype(np.float64)
    y_int = rng.integers(0, 6, size=120).astype(np.float64)
    x_all = rng.normal(size=(150, 6)).round(1)
    y_all = x_all[:, 0] - 0.5 * x_all[:, 3] + 0.3 * rng.normal(size=150)
    return {
        "windowed_640": (x_win, y_win, ForestSpec(n_trees=2, max_depth=5, seed=1)),
        "ties_min_leaf_3": (x_tie, y_tie, ForestSpec(n_trees=3, max_depth=None, min_samples_leaf=3, seed=2)),
        "small_ints_unlimited": (x_int, y_int, ForestSpec(n_trees=3, max_depth=None, seed=3)),
        "all_features_no_bootstrap": (
            x_all,
            y_all,
            ForestSpec(n_trees=2, max_depth=None, bootstrap=False, max_features="all", seed=4),
        ),
    }


def _tree_digest(tree: Tree) -> str:
    h = hashlib.sha256()
    for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# sha256 of each tree's feature/threshold/left/right/value bytes, recorded
# from the per-feature split scan that the block search replaced.
TREE_DIGESTS = {
    "windowed_640": [
        "c2f4b708a24d397c4da8a68f327e849e5f82edf37bfcd9f968528635eaffc8a7",
        "dbb2e0d70ea9581ee2630d58c7fdb0bdd1563711b315aaeaad0836a0e933ec9b",
    ],
    "ties_min_leaf_3": [
        "c51cc8d70caca9a754924bb5d3b59391da3b005861ddbbd99d3e831cde986ae5",
        "68ed6aadd30f8b1d9f8e2b7e8bad4df84711883aea3259d503a9887db3f87c1f",
        "9a1f37f09234632577098a8c02f2682f9d3464d1dedba33c22f1d7c30c4ef615",
    ],
    "small_ints_unlimited": [
        "775012b0d1d92561305ca5faf58db614b59eb7b169929b127324ff1e0d41e26a",
        "c2b7b59e421c623b4c3b54f7b509ad99931824468ed9dd155e0a556745ed1d4a",
        "2c9ce70369eb526001dbdb5eca2b52520d8ec9d2df5c959fefffb6a23c083931",
    ],
    "all_features_no_bootstrap": [
        "feba18a6f52529755a58f63f1408c6e5911367633dafd7912b625a7ce84e6f92",
        "d6af8f926efdfcbf6e057c6d0b662fbeae9bcc1cb78cd044e5e1775f2bc5dfdc",
    ],
}


@pytest.mark.parametrize("name", sorted(TREE_DIGESTS))
def test_trees_match_pinned_checksums(name):
    x, y, spec = _checksum_fixtures()[name]
    model = forest_fit(x, y, spec)
    assert [_tree_digest(t) for t in model.trees] == TREE_DIGESTS[name]


def _reference_split(xt, y, feats, min_leaf):
    """Per-feature stable scan: (sse, feature, threshold) of the lowest-SSE
    cut, a feature replacing the best only on a strictly smaller SSE, or
    None if no feature has a valid cut. The threshold is the midpoint of the
    values at the cut, or the lower value where the midpoint is not below
    the upper one."""
    n = y.size
    n_left = np.arange(1.0, n)
    n_right = n - n_left
    best = None
    for f in feats:
        order = np.argsort(xt[f], kind="stable")
        xs, ys = xt[f][order], y[order]
        csum, csq = np.cumsum(ys), np.cumsum(ys * ys)
        sum_l, sq_l = csum[:-1], csq[:-1]
        sum_r, sq_r = csum[-1] - sum_l, csq[-1] - sq_l
        sse = (sq_l - sum_l * sum_l / n_left) + (sq_r - sum_r * sum_r / n_right)
        valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        i = int(np.argmin(np.where(valid, sse, np.inf)))
        if best is None or sse[i] < best[0]:
            thr = 0.5 * (xs[i] + xs[i + 1])
            best = (float(sse[i]), int(f), thr if xs[i] <= thr < xs[i + 1] else xs[i])
    return best


def _reference_fit(x, y, spec):
    """The forest of ``spec`` grown with :func:`_reference_split`: the same
    bootstrap draws, feature draws and node order as ``forest_fit``."""
    trees = []
    for seed in np.random.SeedSequence(spec.seed).spawn(spec.n_trees):
        rng = np.random.default_rng(seed)
        sample = rng.integers(0, y.size, size=y.size) if spec.bootstrap else np.arange(y.size)
        xt, yt = x[sample].T, y[sample]
        nodes = []  # [feature, threshold, left, right, value]
        stack = [(0, np.arange(y.size), 0)]
        nodes.append([-1, 0.0, -1, -1, 0.0])
        while stack:
            node, rows, depth = stack.pop()
            ys = yt[rows]
            nodes[node][4] = float(ys.mean())
            if (
                (spec.max_depth is not None and depth >= spec.max_depth)
                or rows.size < max(2, 2 * spec.min_samples_leaf)
                or np.ptp(ys) == 0.0
            ):
                continue
            feats = rng.choice(xt.shape[0], size=_n_split_features(spec, xt.shape[0]), replace=False)
            best = _reference_split(xt[:, rows], ys, feats, spec.min_samples_leaf)
            if best is None:
                continue
            _, f, thr = best
            go_left = xt[f, rows] <= thr
            nodes[node][:4] = [f, thr, len(nodes), len(nodes) + 1]
            nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
            stack.append((len(nodes) - 2, rows[go_left], depth + 1))
            stack.append((len(nodes) - 1, rows[~go_left], depth + 1))
        feature, threshold, left, right, value = zip(*nodes)
        trees.append(
            Tree(
                feature=np.asarray(feature, dtype=np.int32),
                threshold=np.asarray(threshold, dtype=np.float32).astype(np.float64),
                left=np.asarray(left, dtype=np.int32),
                right=np.asarray(right, dtype=np.int32),
                value=np.asarray(value, dtype=np.float32).astype(np.float64),
            )
        )
    return trees


def _assert_trees_equal(model, reference):
    assert [_tree_digest(t) for t in model.trees] == [_tree_digest(t) for t in reference]


@pytest.mark.parametrize("name", sorted(TREE_DIGESTS))
def test_reference_scan_reproduces_pinned_checksums(name):
    x, y, spec = _checksum_fixtures()[name]
    assert [_tree_digest(t) for t in _reference_fit(x, y, spec)] == TREE_DIGESTS[name]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    d=st.integers(1, 7),
    n_levels=st.integers(1, 6),
    n_dup=st.integers(0, 20),
    min_leaf=st.integers(1, 3),
    bootstrap=st.booleans(),
    max_features=st.sampled_from(["third", "all", 0.4, 0.75]),
    max_depth=st.sampled_from([None, 1, 2, 4]),
)
def test_trees_match_stable_per_feature_scan(seed, n, d, n_levels, n_dup, min_leaf, bootstrap, max_features, max_depth):
    """Tied values (few levels, +0.0 and -0.0 among them), duplicated rows
    and every spec option give the reference scan's trees, bit for bit."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, -0.0, 1.5, -2.25, 3.0, 1e-300])[:n_levels]
    x = rng.choice(levels, size=(n, d)) + (rng.normal(size=(n, d)) if n_levels == 6 else 0.0)
    y = rng.integers(0, 4, size=n) * 0.5 + (rng.normal(size=n) if seed % 2 else 0.0)
    dup = rng.integers(0, n, size=n_dup)
    x, y = np.concatenate([x, x[dup]]), np.concatenate([y, y[dup]])
    spec = ForestSpec(
        n_trees=2,
        max_depth=max_depth,
        min_samples_leaf=min_leaf,
        bootstrap=bootstrap,
        max_features=max_features,
        seed=seed % 1000,
    )
    _assert_trees_equal(forest_fit(x, y, spec), _reference_fit(x, y, spec))


def test_wide_keys_match_reference_scan():
    """40 000 distinct values per feature: rank bits plus position bits come
    to 32, past an int32 key, so the split search uses int64 keys."""
    n = 40_000
    assert 2 * (n - 1).bit_length() > 31
    rng = np.random.default_rng(8)
    x = np.column_stack([rng.permutation(n), rng.permutation(n)]) / 7.0
    y = np.sin(x[:, 0] / 900.0) + 0.1 * rng.normal(size=n)
    spec = ForestSpec(n_trees=2, max_depth=2, max_features="all", seed=6)
    _assert_trees_equal(forest_fit(x, y, spec), _reference_fit(x, y, spec))


def test_fit_memory_stays_below_input_size():
    """Bound: the traced allocation peak of a fit stays below 1.25 times the
    input's bytes. The rank array takes half of them and a node's scratch is
    a few blocks; a per-tree float64 copy of the sample would exceed it."""
    x, y = _windowed_session(n_windows=1580)
    assert x.dtype == np.float64 and x.flags.c_contiguous  # no copy inside forest_fit
    tracemalloc.start()
    try:
        forest_fit(x, y, ForestSpec(n_trees=3, max_depth=5, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x.nbytes


def test_rows_follow_x_where_the_midpoint_rounds_up():
    """1 + 2**-52 and 1 + 2**-51 are adjacent floats whose midpoint rounds
    onto the upper one, so the cut's threshold is the lower one and the row
    holding the upper value goes right, with the higher rows."""
    lo, hi = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    x = np.array([[1.0], [lo], [hi], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    spec = ForestSpec(n_trees=1, max_depth=1, bootstrap=False, max_features="all")
    model = forest_fit(x, y, spec)
    assert 0.5 * (lo + hi) == hi
    np.testing.assert_array_equal(model.trees[0].value, [5.0, 0.0, 10.0])
    _assert_trees_equal(model, _reference_fit(x, y, spec))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "column",
    [[1.0 + 2.0**-52, 1.0 + 2.0**-51], [1e308, 1.7e308], [-1.7e308, -1e308]],
    ids=["midpoint_rounds_up", "sum_overflows", "sum_overflows_negative"],
)
@pytest.mark.parametrize("max_depth", [3, None])
def test_a_cut_between_two_rows_leaves_both_children_nonempty(column, max_depth):
    """Two rows whose midpoint is not strictly between them (rounded onto
    the upper value, or an overflowed sum) still split one each side: no
    leaf is empty (NaN), and an unlimited tree stops growing."""
    x, y = np.array(column)[:, None], np.array([0.0, 1.0])
    spec = ForestSpec(n_trees=1, max_depth=max_depth, bootstrap=False, max_features="all")
    model = forest_fit(x, y, spec)
    np.testing.assert_array_equal(model.trees[0].value, [0.5, 0.0, 1.0])
    _assert_trees_equal(model, _reference_fit(x, y, spec))
