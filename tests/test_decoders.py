"""Decoder families: the window contract, forward passes, body/head split, model files.

Gradchecks here run on deliberately small specs so the whole file stays fast;
the default-size families are exercised by the acceptance suite.
"""

import numpy as np
import pytest

from locodec import decoders as dec
from locodec.errors import ModelLoadError, ShapeError, SpecMismatchError
from locodec.sessions import WINDOW_LEN

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
    return rng.standard_normal((n, spec.window_len, spec.n_channels))


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
    for bad in (good.reshape(6, -1), extra_channel, good[:, 1:, :], good[0]):
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
    x = np.zeros((1, spec.window_len, spec.n_channels))
    assert d.predict_batch(x)[0] == pytest.approx(0.31, abs=1e-12)


def test_lstm_is_order_sensitive():
    spec = SMALL["lstm_rnn"]
    d = dec.new_decoder(spec)
    x = _window_batch(spec, n=1, seed=5)
    fwd = d.predict_batch(x)[0]
    rev = d.predict_batch(x[:, ::-1, :].copy())[0]
    assert abs(fwd - rev) > 1e-9


def test_transformer_attention_rows_stochastic():
    spec = SMALL["transformer_encoder"]
    d = dec.new_decoder(spec)
    rng = np.random.default_rng(6)
    maps = dec.attention_maps(d, rng.normal(size=(spec.window_len, spec.n_channels)))
    assert maps.shape == (spec.n_blocks * spec.n_heads, spec.window_len, spec.window_len)
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-9)


def test_transformer_without_positions_is_permutation_invariant():
    spec = dec.DecoderSpec(
        family="transformer_encoder",
        n_channels=3,
        embed_dim=8,
        n_heads=2,
        conv_kernel=1,
        use_positional=False,
        head_hidden=(4,),
    )
    d = dec.new_decoder(spec)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, spec.window_len, 3))
    perm = rng.permutation(spec.window_len)
    out = d.predict_batch(x)[0]
    out_perm = d.predict_batch(x[:, perm, :].copy())[0]
    assert out_perm == pytest.approx(out, abs=1e-9)


def test_transformer_with_positions_breaks_permutation_invariance():
    spec = dec.DecoderSpec(
        family="transformer_encoder", n_channels=3, embed_dim=8, n_heads=2, head_hidden=(4,)
    )
    d = dec.new_decoder(spec)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, spec.window_len, 3))
    out = d.predict_batch(x)[0]
    out_rev = d.predict_batch(x[:, ::-1, :].copy())[0]
    assert abs(out - out_rev) > 1e-9


def test_positional_encoding_values():
    pe = dec.positional_encoding(20, 8)
    assert pe.shape == (20, 8)
    assert pe[0, 0] == 0.0 and pe[0, 1] == 1.0  # sin(0), cos(0)
    assert pe[3, 0] == pytest.approx(np.sin(3.0))


def test_speed_rnn_input_width_one():
    spec = SMALL["speed_rnn"]
    d = dec.new_decoder(spec)
    x = np.random.default_rng(9).normal(size=(2, spec.window_len, 1))
    out = d.predict_batch(x)
    assert out.shape == (2,) and np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# body/head partition
# ---------------------------------------------------------------------------


def test_partition_is_exhaustive_and_disjoint():
    for fam, spec in SMALL.items():
        d = dec.new_decoder(spec)
        body, head = set(d.body_names()), set(d.head_names())
        assert body | head == set(d.params), fam
        assert not body & head, fam
        if fam == "linear":
            assert not body  # the linear family is all head
        else:
            assert body


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def test_save_load_predict_bitwise(tmp_path):
    for fam, spec in SMALL.items():
        d = dec.new_decoder(spec)
        d.quantize_f32()
        x = _window_batch(spec, n=3, seed=11)
        before = d.predict_batch(x)
        path = tmp_path / f"{fam}.model"
        dec.save_state(d, path, meta={"tag": fam})
        loaded, extras, meta = dec.load_state(path)
        assert meta["tag"] == fam
        assert extras == {}
        np.testing.assert_array_equal(loaded.predict_batch(x), before)
        assert loaded.checksum() == d.checksum()


def test_save_load_forest_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    spec = dec.DecoderSpec(family="random_forest", n_channels=3, n_trees=5, max_depth=4)
    x = rng.normal(size=(50, spec.window_len, spec.n_channels))
    d = dec.fit_forest_decoder(spec, x, rng.normal(size=50))
    path = tmp_path / "forest.model"
    dec.save_state(d, path)
    loaded, _, _ = dec.load_state(path)
    q = rng.normal(size=(10, spec.window_len, spec.n_channels))
    np.testing.assert_array_equal(loaded.predict_batch(q), d.predict_batch(q))


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


def test_family_mismatch_rejected(tmp_path):
    d = dec.new_decoder(SMALL["lstm_rnn"])
    path = tmp_path / "f.model"
    dec.save_state(d, path)
    with pytest.raises(SpecMismatchError):
        dec.load_state(path, expected_family="transformer_encoder")


def test_load_arrays_shape_mismatch():
    d = dec.new_decoder(SMALL["linear"])
    bad = {name: np.zeros((2, 2)) for name in d.params}
    with pytest.raises(SpecMismatchError):
        d.load_arrays(bad)


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
    with pytest.raises(ValueError):
        dec.DecoderSpec(family="ffnn", dropout=1.5)
