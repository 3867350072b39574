"""Decoder families: the window contract, forward passes, body/head split, model files.

Gradchecks here run on deliberately small specs so the whole file stays fast;
the default-size families are exercised by the acceptance suite.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from locodec import autodiff as ad
from locodec import decoders as dec
from locodec.errors import ModelLoadError, ShapeError, SpecMismatchError
from locodec.sessions import WINDOW_LEN, window_arrays

from conftest import make_session

SMALL = {
    "linear": dec.DecoderSpec(family="linear", n_channels=3),
    "ffnn": dec.DecoderSpec(family="ffnn", n_channels=3, ffnn_hidden=(8, 4)),
    "lstm_rnn": dec.DecoderSpec(family="lstm_rnn", n_channels=3, lstm_hidden=6, head_hidden=(4,)),
    "transformer_encoder": dec.DecoderSpec(
        family="transformer_encoder", n_channels=3, embed_dim=8, n_heads=2, head_hidden=(4,)
    ),
    "speed_rnn": dec.DecoderSpec(family="speed_rnn", n_channels=1, lstm_hidden=5, head_hidden=(4,)),
}


def _window_batch(spec, n=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, WINDOW_LEN, spec.n_channels))


# ---------------------------------------------------------------------------
# the window contract: (n, WINDOW_LEN, C) stacks in, one speed per window out
# ---------------------------------------------------------------------------


def test_flat_feature_length_canonical():
    d = dec.new_decoder(dec.DecoderSpec(family="linear", n_channels=32))
    assert d.params["head.w0"].data.shape == (640, 1)
    assert d.predict_batch(np.zeros((2, WINDOW_LEN, 32))).shape == (2,)


def test_flat_feature_length_region_subset():
    d = dec.new_decoder(dec.DecoderSpec(family="ffnn", n_channels=8, ffnn_hidden=(4,)))
    assert d.params["body.w0"].data.shape == (160, 4)
    assert d.predict_batch(np.zeros((1, WINDOW_LEN, 8))).shape == (1,)


def test_sequence_families_keep_time_major_layout():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, WINDOW_LEN, 3))
    for fam in ("lstm_rnn", "transformer_encoder"):
        out = dec._window_input(SMALL[fam], x)
        np.testing.assert_array_equal(out[:, 0], x[:, 0])  # row 0 = earliest sample
    # An LSTM with no memory (closed forget gate, no recurrent weights)
    # reads only the step it sees last: the stack's final row.
    d = dec.new_decoder(SMALL["lstm_rnn"])
    h = SMALL["lstm_rnn"].lstm_hidden
    d.params["body.wh"].data[:] = 0.0
    d.params["body.b"].data[h : 2 * h] = -1e3
    early, late = x.copy(), x.copy()
    early[:, :-1] += 1.0
    late[:, -1] += 1.0
    base = d.predict_batch(x)
    np.testing.assert_array_equal(d.predict_batch(early), base)
    assert np.all(np.abs(d.predict_batch(late) - base) > 1e-9)


def test_flat_feature_order_is_time_then_channel():
    layout = np.arange(WINDOW_LEN * 2, dtype=float).reshape(1, WINDOW_LEN, 2)
    d = dec.new_decoder(dec.DecoderSpec(family="linear", n_channels=2))
    d.params["head.b0"].data[:] = 0.0
    flat = []
    for j in range(4):  # a one-hot readout of feature j of the flattened window
        d.params["head.w0"].data[:] = 0.0
        d.params["head.w0"].data[j, 0] = 1.0
        flat.append(d.predict_batch(layout)[0])
    np.testing.assert_array_equal(flat[:2], layout[0, 0])
    np.testing.assert_array_equal(flat[2:4], layout[0, 1])


@pytest.mark.parametrize("family", dec.FAMILIES)
def test_every_entry_point_rejects_a_wrong_window_shape(family):
    spec = SMALL.get(family, dec.DecoderSpec(family="random_forest", n_channels=3, n_trees=2))
    good = _window_batch(spec, n=6)
    y = np.zeros(6)
    if family == "random_forest":
        d = dec.fit_forest_decoder(spec, good, y)
    else:
        d = dec.new_decoder(spec)
        d.loss_batch(good, y)
    d.predict_batch(good)
    extra_channel = np.concatenate([good, good[:, :, :1]], axis=2)
    # body rows as wide as a window's first sample fit no family's head
    for bad in (good.reshape(6, -1), extra_channel, good[:, 1:, :], good[0], dec.BodyRows(good[:, 0, :])):
        with pytest.raises(ShapeError):
            d.predict_batch(bad)
        if family == "random_forest":
            with pytest.raises(ShapeError):
                dec.fit_forest_decoder(spec, bad, y)
        else:
            with pytest.raises(ShapeError):
                d.loss_batch(bad, y)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", dec.TRAINABLE_FAMILIES)
def test_an_empty_stack_predicts_no_speeds(family):
    spec = SMALL[family]
    assert dec.new_decoder(spec).predict_batch(_window_batch(spec, n=0)).shape == (0,)


def test_linear_zero_weights_returns_bias():
    d = dec.new_decoder(SMALL["linear"])
    d.params["head.w0"].data[:] = 0.0
    d.params["head.b0"].data[:] = 2.75
    x = _window_batch(SMALL["linear"], n=3)
    np.testing.assert_allclose(d.predict_batch(x), 2.75, atol=1e-12)


def test_predict_deterministic_and_pure():
    for fam, spec in SMALL.items():
        if fam == "speed_rnn":
            continue
        d = dec.new_decoder(spec)
        x = _window_batch(spec, n=2, seed=3)
        a = d.predict_batch(x)
        b = d.predict_batch(x)
        np.testing.assert_array_equal(a, b)


def test_lstm_zero_input_zero_biases_gives_head_bias():
    spec = SMALL["lstm_rnn"]
    d = dec.new_decoder(spec)
    for name, t in d.param_items():
        if name.endswith("b") or ".b" in name:
            t.data[:] = 0.0
    d.params["head.b1"].data[:] = 0.31
    x = np.zeros((1, WINDOW_LEN, spec.n_channels))
    assert d.predict_batch(x)[0] == pytest.approx(0.31, abs=1e-12)


def test_lstm_is_order_sensitive():
    spec = SMALL["lstm_rnn"]
    d = dec.new_decoder(spec)
    x = _window_batch(spec, n=1, seed=5)
    fwd = d.predict_batch(x)[0]
    rev = d.predict_batch(x[:, ::-1, :].copy())[0]
    assert abs(fwd - rev) > 1e-9


def test_transformer_with_positions_breaks_permutation_invariance():
    spec = dec.DecoderSpec(
        family="transformer_encoder", n_channels=3, embed_dim=8, n_heads=2, head_hidden=(4,)
    )
    d = dec.new_decoder(spec)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, WINDOW_LEN, 3))
    out = d.predict_batch(x)[0]
    out_rev = d.predict_batch(x[:, ::-1, :].copy())[0]
    assert abs(out - out_rev) > 1e-9


def _one_window_transformer(d, x2d):
    """Reference: the transformer forward on one (T, C) window, on 2-d ops."""
    p, spec = d.params, d.spec
    e = spec.embed_dim
    dh = e // spec.n_heads
    tok = ad.add(ad.matmul(ad.constant(x2d), p["body.embed_w"]), p["body.embed_b"])
    tok = ad.add(tok, ad.constant(dec.positional_encoding(x2d.shape[0], e)))
    q, k, v = (ad.add(ad.matmul(tok, p[f"body.blk0.w{n}"]), p[f"body.blk0.{n}b"]) for n in "qkv")
    heads = []
    for lo in range(0, e, dh):
        qh, kh, vh = (ad.narrow(t, 1, lo, lo + dh) for t in (q, k, v))
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / math.sqrt(dh))
        heads.append(ad.matmul(ad.softmax(scores, axis=1), vh))
    tok = ad.add(ad.matmul(ad.concat(heads, axis=1), p["body.blk0.wo"]), p["body.blk0.ob"])
    z = ad.relu(ad.conv1d(tok, p["body.conv_w"], p["body.conv_b"]))
    h = ad.matmul(ad.constant(np.full((1, z.shape[0]), 1.0 / z.shape[0])), z)  # mean over tokens
    n_layers = len(spec.head_hidden) + 1
    for i in range(n_layers):
        h = ad.add(ad.matmul(h, p[f"head.w{i}"]), p[f"head.b{i}"])
        if i < n_layers - 1:
            h = ad.relu(h)
    return h


@pytest.mark.parametrize("spec", [SMALL["transformer_encoder"]], ids=["one_block"])
def test_transformer_batch_matches_per_window_reference(spec):
    """One batched graph gives the per-window predictions and loss gradients
    up to rounding (1e-12 absolute; the key bias's true gradient is zero)."""
    d = dec.new_decoder(spec)
    rng = np.random.default_rng(11)
    for t in d.params.values():
        t.data = 0.3 * rng.standard_normal(t.data.shape)
    x = _window_batch(spec, n=37, seed=12)
    y = rng.standard_normal(37)
    ref_outs = [_one_window_transformer(d, w) for w in x]
    ref_pred = np.array([float(o.data[0, 0]) for o in ref_outs])
    np.testing.assert_allclose(d.predict_batch(x), ref_pred, rtol=0, atol=1e-12)

    params = d.param_list()
    ad.backward(d.loss_batch(x, y), params)
    batched = [t.grad for t in params]
    ad.zero_grads(params)
    ad.backward(ad.mse(ad.concat(ref_outs, axis=0), ad.constant(y.reshape(-1, 1))), params)
    for t, g in zip(params, batched):
        np.testing.assert_allclose(g, t.grad, rtol=0, atol=1e-12, err_msg=t.name)


def _reachable(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def test_transformer_builds_one_graph_per_batch():
    spec = SMALL["transformer_encoder"]
    d = dec.new_decoder(spec)
    sizes = {n: len(_reachable(d.loss_batch(_window_batch(spec, n=n), np.zeros(n)))) for n in (1, 64)}
    assert sizes[1] == sizes[64]


def test_positional_encoding_values():
    pe = dec.positional_encoding(20, 8)
    assert pe.shape == (20, 8)
    assert pe[0, 0] == 0.0 and pe[0, 1] == 1.0  # sin(0), cos(0)
    assert pe[3, 0] == pytest.approx(np.sin(3.0))


def test_speed_rnn_input_width_one():
    spec = SMALL["speed_rnn"]
    d = dec.new_decoder(spec)
    x = np.random.default_rng(9).normal(size=(2, WINDOW_LEN, 1))
    out = d.predict_batch(x)
    assert out.shape == (2,) and np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# body/head partition
# ---------------------------------------------------------------------------


def test_partition_is_exhaustive_and_disjoint():
    for fam, spec in SMALL.items():
        d = dec.new_decoder(spec)
        body = {n for n in d.params if n.startswith("body.")}
        head = {n for n in d.params if n.startswith("head.")}
        assert body | head == set(d.params), fam
        assert not body & head, fam
        if fam == "linear":
            assert not body  # the linear family is all head
        else:
            assert body


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def _fitted_forest(n_trees=5, seed=12):
    rng = np.random.default_rng(seed)
    spec = dec.DecoderSpec(family="random_forest", n_channels=3, n_trees=n_trees, max_depth=4)
    x = rng.normal(size=(50, WINDOW_LEN, spec.n_channels))
    return dec.fit_forest_decoder(spec, x, rng.normal(size=50))


def _stored_tensors(path):
    """(name, array) of every array in a model file, as read back."""
    with np.load(path, allow_pickle=False) as archive:
        return [(name, archive[name]) for name in archive.files if name != "header"]


def test_save_load_predict_bitwise(tmp_path):
    decoders = {fam: dec.new_decoder(spec) for fam, spec in SMALL.items()}
    decoders["random_forest"] = _fitted_forest()
    assert set(decoders) == set(dec.FAMILIES)
    for fam, d in decoders.items():
        d.quantize_f32()
        x = _window_batch(d.spec, n=3, seed=11)
        before = d.predict_batch(x)
        path = tmp_path / f"{fam}.model"
        dec.save_state(d, path, meta={"tag": fam})
        loaded, extras, meta = dec.load_state(path)
        assert meta["tag"] == fam
        assert extras == {}
        np.testing.assert_array_equal(loaded.predict_batch(x), before)
        assert loaded.checksum() == d.checksum()


def test_save_load_forest_roundtrip(tmp_path):
    d = _fitted_forest()
    path = tmp_path / "forest.model"
    dec.save_state(d, path)
    loaded, _, _ = dec.load_state(path)
    q = np.random.default_rng(13).normal(size=(10, WINDOW_LEN, d.spec.n_channels))
    np.testing.assert_array_equal(loaded.predict_batch(q), d.predict_batch(q))


def test_forest_file_stores_named_tree_arrays(tmp_path):
    d = _fitted_forest(n_trees=2)
    path = tmp_path / "forest.model"
    dec.save_state(d, path)
    stored = dict(_stored_tensors(path))
    fields = ("feature", "threshold", "left", "right", "value")
    assert list(stored) == [f"forest.{f}" for f in fields] + ["forest.n_nodes"]
    for f in ("feature", "left", "right", "n_nodes"):
        assert stored[f"forest.{f}"].dtype == np.int32
    trees = d.forest.trees
    np.testing.assert_array_equal(stored["forest.n_nodes"], [t.n_nodes for t in trees])
    for f in fields:
        np.testing.assert_array_equal(stored[f"forest.{f}"], np.concatenate([getattr(t, f) for t in trees]))


def test_forest_file_members_do_not_grow_with_the_tree_count(tmp_path):
    counts = []
    for n_trees in (2, 20):
        path = tmp_path / f"forest{n_trees}.model"
        dec.save_state(_fitted_forest(n_trees=n_trees), path)
        assert dec.load_state(path)[0].spec.n_trees == n_trees
        counts.append(len(_stored_tensors(path)))
    assert counts[0] == counts[1]


def test_forest_file_with_wrong_tree_count_rejected(tmp_path):
    d = _fitted_forest(n_trees=5)
    path = tmp_path / "forest.model"
    # five trees stored under a spec that promises three
    dec.save_state(dec.Decoder(replace(d.spec, n_trees=3), forest_model=d.forest), path)
    with pytest.raises(ModelLoadError, match="n_trees=3"):
        dec.load_state(path)


def test_unfitted_forest_cannot_be_saved(tmp_path):
    with pytest.raises(SpecMismatchError):
        dec.save_state(dec.new_decoder(dec.DecoderSpec(family="random_forest", n_channels=3)), tmp_path / "u.model")


def test_version_1_file_rejected(tmp_path):
    path = tmp_path / "old.model"
    dec.save_state(dec.new_decoder(SMALL["linear"]), path)
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    header = json.loads(str(members["header"]))
    # version 2 files name four decoder fields that version 3 dropped,
    # version 3 files name window_len, which version 4 dropped, and version 4
    # files are not archives
    for version in (1, 2, 3, 4):
        with open(path, "wb") as fh:
            np.savez(fh, **{**members, "header": np.array(json.dumps({**header, "version": version}))})
        with pytest.raises(ModelLoadError, match=f"unsupported model version {version}"):
            dec.load_state(path)


def test_extras_preserve_float64(tmp_path):
    d = dec.new_decoder(SMALL["linear"])
    stats = {"norm_mean": np.array([1.0 / 3.0, 2.0 / 7.0]), "norm_std": np.array([np.pi, np.e])}
    path = tmp_path / "m.model"
    dec.save_state(d, path, extras=stats)
    _, extras, _ = dec.load_state(path)
    assert extras["norm_mean"].dtype == np.float64
    np.testing.assert_array_equal(extras["norm_mean"], stats["norm_mean"])
    np.testing.assert_array_equal(extras["norm_std"], stats["norm_std"])


def test_truncated_file_rejected(tmp_path):
    d = dec.new_decoder(SMALL["ffnn"])
    path = tmp_path / "t.model"
    dec.save_state(d, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelLoadError):
        dec.load_state(path)


def test_a_flipped_payload_byte_fails_the_crc_check(tmp_path):
    d = dec.new_decoder(SMALL["ffnn"])
    path = tmp_path / "f.model"
    dec.save_state(d, path)
    blob = bytearray(path.read_bytes())
    blob[blob.index(d.params["body.w0"].data.astype(np.float32).tobytes()) + 5] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelLoadError, match="CRC-32"):
        dec.load_state(path)


def test_a_corrupted_member_shape_fails_the_crc_check(tmp_path):
    # a shape shrunk in a large member's .npy header stops numpy's own read
    # short of the member's end, where it would check the CRC
    path = tmp_path / "s.model"
    dec.save_state(dec.new_decoder(SMALL["linear"]), path, extras={"big": np.arange(2000.0)})
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"(2000,)", b"(1000,)"))
    with pytest.raises(ModelLoadError, match="CRC-32"):
        dec.load_state(path)


def test_files_that_are_not_model_archives_rejected(tmp_path):
    good = tmp_path / "good.model"
    dec.save_state(dec.new_decoder(SMALL["lstm_rnn"]), good)
    blob = good.read_bytes()
    npy = tmp_path / "bare.model"
    with open(npy, "wb") as fh:
        np.save(fh, np.arange(4.0))
    bad = {
        "empty": b"",
        "random": np.random.default_rng(0).bytes(512),
        "bare": npy.read_bytes(),
        "truncated": blob[: len(blob) - 40],
    }
    for name, content in bad.items():
        path = tmp_path / f"{name}.model"
        path.write_bytes(content)
        with pytest.raises(ModelLoadError):
            dec.load_state(path)


def test_object_arrays_are_not_saved(tmp_path):
    d = dec.new_decoder(SMALL["linear"])
    with pytest.raises(ValueError, match="Python objects"):
        dec.save_state(d, tmp_path / "o.model", extras={"tags": np.array([{"a": 1}], dtype=object)})


def test_load_arrays_shape_mismatch():
    d = dec.new_decoder(SMALL["linear"])
    bad = {name: np.zeros((2, 2)) for name in d.params}
    with pytest.raises(SpecMismatchError):
        d.load_arrays(bad)


# ---------------------------------------------------------------------------
# graph-free inference and needs-grad pruning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", dec.TRAINABLE_FAMILIES)
def test_predict_builds_no_graph(family):
    spec = SMALL[family]
    d = dec.new_decoder(spec)
    x = _window_batch(spec, n=5)
    pred = d.predict_batch(x)
    assert all(t.grad is None for t in d.params.values())
    constants = {n: ad.constant(t.data) for n, t in d.params.items()}
    assert all(constants[n].data is t.data for n, t in d.params.items())
    out = d._forward(constants, dec._window_input(spec, x))
    assert out.parents == () and out.backward_fn is None and not out.requires_grad
    graph = d._forward(d.params, dec._window_input(spec, x))
    assert graph.requires_grad and graph.parents
    np.testing.assert_array_equal(pred, out.data.reshape(-1))
    np.testing.assert_array_equal(pred, graph.data.reshape(-1))


def test_lstm_predict_keeps_no_steps():
    # for a backward pass lstm_sequence saves, per step, 8 (N, H) arrays'
    # worth (h, c, the packed (N, 4H) sigmoid, g and tanh(c)); inference
    # keeps none, and at its peak holds under four (N, 4H) gate arrays
    import tracemalloc

    spec = dec.DecoderSpec(family="lstm_rnn", n_channels=32, lstm_hidden=32)
    d = dec.new_decoder(spec)
    x = _window_batch(spec, n=2000, seed=3)
    gates = 4 * spec.lstm_hidden * len(x) * 8
    tracemalloc.start()
    try:
        d.predict_batch(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * gates, f"peak {peak / 2**20:.1f} MB vs one step's gates {gates / 2**20:.1f} MB"


@pytest.mark.parametrize("family", dec.TRAINABLE_FAMILIES)
def test_frozen_body_backward_is_exact(family):
    spec = SMALL[family]
    x = _window_batch(spec, n=6, seed=4)
    y = np.random.default_rng(5).standard_normal(6)
    d = dec.new_decoder(spec)
    params = d.param_list()
    loss = d.loss_batch(x, y)
    ad.backward(loss, params)
    full = {n: t.grad for n, t in d.params.items()}
    assert all(g is not None for g in full.values())
    constants = [t for t in _reachable(loss) if not t.requires_grad]
    assert constants  # the mse target at least
    assert all(t.grad is None for t in constants)

    ad.zero_grads(params)
    body = [t for n, t in d.param_items() if n.startswith("body.")]
    for t in body:
        t.requires_grad = False
    head = [t for t in params if t.requires_grad]
    loss = d.loss_batch(x, y)
    ad.backward(loss, head)
    for n, t in d.params.items():
        if n.startswith("body."):
            assert t.grad is None, n
        else:
            assert t.grad.tobytes() == full[n].tobytes(), n
    assert all(t.grad is None for t in _reachable(loss) if not t.requires_grad)


# ---------------------------------------------------------------------------
# body rows: a frozen body run once, the head on its output
# ---------------------------------------------------------------------------


def _perturbed(spec, seed=11):
    """A decoder whose parameters are all far from their zero-bias init."""
    d = dec.new_decoder(spec)
    rng = np.random.default_rng(seed)
    for t in d.params.values():
        t.data = 0.3 * rng.standard_normal(t.data.shape)
    return d


@pytest.mark.parametrize("family", dec.TRAINABLE_FAMILIES)
def test_body_rows_predict_like_the_window_stack(family):
    spec = SMALL[family]
    d = _perturbed(spec)
    x = _window_batch(spec, n=37, seed=2)
    rows = d.body_rows(x)
    assert rows.shape == (37, dec._head_width(spec)) and len(rows) == 37
    assert d.predict_batch(rows).tobytes() == d.predict_batch(x).tobytes()
    assert all(t.grad is None for t in d.params.values())


def _window_view(n_channels, n=37, seed=6):
    """A window stack as sessions builds it: a read-only strided view."""
    session = make_session(n_channels=n_channels, n_samples=n + WINDOW_LEN - 1, seed=seed)
    _, x, y = window_arrays(session, range(session.n_samples))
    assert not x.flags.c_contiguous and not x.flags.writeable
    return x, y


@pytest.mark.parametrize("family", dec.FAMILIES)
def test_a_window_view_decodes_like_its_contiguous_copy(family):
    """Every entry point gives the same bits on a strided window view as on
    a contiguous copy of it. A flat family's plain reshape of the view has
    overlapping rows, which numpy's matmul computes outside BLAS and rounds
    differently."""
    if family == "random_forest":
        spec = dec.DecoderSpec(family=family, n_channels=3, n_trees=3, max_depth=4)
        x, y = _window_view(spec.n_channels)
        stacks = (x, np.ascontiguousarray(x))
        fits = [dec.fit_forest_decoder(spec, inputs, y) for inputs in stacks]
        assert fits[0].checksum() == fits[1].checksum()
        assert fits[0].predict_batch(stacks[0]).tobytes() == fits[0].predict_batch(stacks[1]).tobytes()
        return
    spec = SMALL[family]
    d = _perturbed(spec)
    params = d.param_list()
    x, y = _window_view(spec.n_channels)
    results = []
    for inputs in (x, np.ascontiguousarray(x)):
        loss = d.loss_batch(inputs, y)
        ad.backward(loss, params)
        results.append(
            (
                d.predict_batch(inputs).tobytes(),
                d.body_rows(inputs).rows.tobytes(),
                loss.data.tobytes(),
                [t.grad.tobytes() for t in params],
            )
        )
        ad.zero_grads(params)
    assert results[0] == results[1]


# A batch of one runs matrix-vector products where a stack runs matrix
# products, so BLAS may sum in another order; a window decoded alone must
# agree with its row of the stack to within this many ulps of the largest
# prediction.
SINGLE_WINDOW_ULPS = 64


@pytest.mark.parametrize("family", dec.FAMILIES)
def test_each_window_alone_predicts_like_its_row_of_the_stack(family):
    """Online decoding reads out one window at a time; its predictions must
    be the batch evaluation's, at the default sizes."""
    n_channels = 1 if family == "speed_rnn" else 32
    x, y = _window_view(n_channels, n=24)
    if family == "random_forest":
        spec = dec.DecoderSpec(family=family, n_channels=n_channels, n_trees=5, max_depth=6)
        d = dec.fit_forest_decoder(spec, x, y)
    else:
        d = dec.new_decoder(dec.DecoderSpec(family=family, n_channels=n_channels))
    stack = d.predict_batch(x)
    alone = np.concatenate([d.predict_batch(x[k : k + 1]) for k in range(len(x))])
    tol = SINGLE_WINDOW_ULPS * np.spacing(np.abs(stack).max())
    gap = np.abs(alone - stack).max()
    assert gap <= tol, f"largest gap {gap:.2e} against {tol:.2e}"


# the ids keep the case names from when a dropout rate was a second parameter
@pytest.mark.parametrize("family", dec.TRAINABLE_FAMILIES, ids=[f"{f}-0.0" for f in dec.TRAINABLE_FAMILIES])
def test_loss_on_row_sub_batches_is_the_window_loss(family):
    spec = SMALL[family]
    d = _perturbed(spec)
    for name, t in d.params.items():
        t.requires_grad = not name.startswith("body.")
    head = [t for t in d.param_list() if t.requires_grad]
    x = _window_batch(spec, n=40, seed=3)
    y = np.random.default_rng(4).standard_normal(40)
    rows = d.body_rows(x)
    perm = np.random.default_rng(5).permutation(40)
    for idx in (perm[:2], perm[2:7], perm[7:]):
        results = []
        for inputs in (x[idx], rows[idx]):
            loss = d.loss_batch(inputs, y[idx])
            ad.backward(loss, head)
            results.append((loss.data.tobytes(), [t.grad.tobytes() for t in head]))
            ad.zero_grads(head)
        assert results[0] == results[1]


@pytest.mark.parametrize(
    "family, other",
    [
        ("linear", {"n_channels": 4}),
        ("ffnn", {"ffnn_hidden": (8, 5)}),
        ("lstm_rnn", {"lstm_hidden": 7}),
        ("transformer_encoder", {"embed_dim": 6}),
        ("speed_rnn", {"lstm_hidden": 6}),
    ],
)
def test_rows_of_another_head_width_are_rejected(family, other):
    spec = SMALL[family]
    d = dec.new_decoder(spec)
    foreign_spec = replace(spec, **other)
    rows = dec.new_decoder(foreign_spec).body_rows(_window_batch(foreign_spec, n=5))
    with pytest.raises(ShapeError):
        d.predict_batch(rows)
    with pytest.raises(ShapeError):
        d.loss_batch(rows, np.zeros(5))
    with pytest.raises(ShapeError):
        d.body_rows(d.body_rows(_window_batch(spec, n=5)))


# ---------------------------------------------------------------------------
# gradient checks (small specs; default sizes live in the acceptance suite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", dec.TRAINABLE_FAMILIES)
def test_gradcheck_small_specs(family):
    report = dec.gradcheck_decoder(SMALL[family], n_samples=40, seed=1)
    assert report.passed, f"{family}: max rel err {report.max_rel_err:.2e}"


def test_gradcheck_rejects_forest():
    with pytest.raises(ValueError):
        dec.gradcheck_decoder(dec.DecoderSpec(family="random_forest", n_channels=3))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        dec.DecoderSpec(family="qda")
    with pytest.raises(ValueError):
        dec.DecoderSpec(family="transformer_encoder", embed_dim=10, n_heads=4)
    with pytest.raises(ValueError):
        dec.DecoderSpec(family="speed_rnn", n_channels=3)
