"""Reverse-mode autodiff: closed-form oracles, finite differences, graph hygiene."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locodec import autodiff as ad
from locodec.errors import ShapeError

RNG = np.random.default_rng


def _finite_arrays(shape, min_value=-3.0, max_value=3.0):
    n = int(np.prod(shape))
    return st.lists(
        st.floats(min_value=min_value, max_value=max_value, allow_nan=False, width=32),
        min_size=n,
        max_size=n,
    ).map(lambda v: np.array(v, dtype=np.float64).reshape(shape))


# ---------------------------------------------------------------------------
# forward-op fixtures
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = RNG(0).normal(size=(3, 4))
    out = ad.matmul(ad.constant(np.eye(3)), ad.constant(a))
    np.testing.assert_array_equal(out.data, a)


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.constant(np.zeros(5))).data == pytest.approx(0.5)


def test_conv1d_valid_length():
    x = ad.constant(RNG(1).normal(size=(20, 4)))
    w = ad.constant(RNG(2).normal(size=(3, 4, 2)))
    b = ad.constant(np.zeros(2))
    assert ad.conv1d(x, w, b).data.shape == (18, 2)


def test_conv1d_matches_direct_sum():
    """Valid convolution equals the explicit sliding dot product."""
    rng = RNG(3)
    x, w = rng.normal(size=(9, 2)), rng.normal(size=(3, 2, 5))
    b = rng.normal(size=5)
    out = ad.conv1d(ad.constant(x), ad.constant(w), ad.constant(b)).data
    direct = np.array([sum(x[t + i] @ w[i] for i in range(3)) + b for t in range(7)])
    np.testing.assert_allclose(out, direct, rtol=0, atol=1e-12)


def test_conv1d_on_a_stack_equals_the_2d_op_per_item_bitwise():
    rng = RNG(15)
    x, w, b = rng.normal(size=(6, 20, 4)), rng.normal(size=(3, 4, 5)), rng.normal(size=5)
    stacked = ad.conv1d(ad.constant(x), ad.constant(w), ad.constant(b)).data
    per_item = [ad.conv1d(ad.constant(xi), ad.constant(w), ad.constant(b)).data for xi in x]
    assert stacked.tobytes() == np.stack(per_item).tobytes()


def test_softmax_rows_sum_to_one():
    rng = RNG(4)
    out = ad.softmax(ad.constant(rng.normal(size=(6, 7)) * 50.0), axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.data >= 0.0)


def test_softmax_shift_invariance():
    x = RNG(5).normal(size=(4, 5))
    a = ad.softmax(ad.constant(x), axis=-1).data
    b = ad.softmax(ad.constant(x + 1234.5), axis=-1).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_mse_of_identical_inputs_is_zero():
    y = RNG(6).normal(size=17)
    assert float(ad.mse(ad.constant(y), ad.constant(y)).data) == 0.0


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_narrow_rejects_bad_bounds():
    with pytest.raises(ShapeError):
        ad.narrow(ad.constant(np.zeros((5, 3))), axis=0, start=2, stop=7)


# ---------------------------------------------------------------------------
# backward: closed forms and reachability
# ---------------------------------------------------------------------------


def test_mse_gradient_vanishes_at_minimum():
    c = RNG(7).normal(size=12)
    x = ad.parameter(c.copy(), "x")
    loss = ad.mse(x, ad.constant(c))
    ad.backward(loss, [x])
    np.testing.assert_array_equal(x.grad, np.zeros(12))


def test_mse_target_gradient_is_the_negated_prediction_gradient():
    rng = RNG(11)
    pred = ad.parameter(rng.normal(size=(3, 4)), "pred")
    target = ad.parameter(rng.normal(size=(3, 4)), "target")
    report = ad.gradcheck(lambda: ad.mse(pred, target), [pred, target], tolerance=1e-6)
    assert report.passed and report.n_checked == 24, f"max rel err {report.max_rel_err:.2e}"
    ad.zero_grads([pred, target])
    ad.backward(ad.mse(pred, target), [pred, target])
    assert target.grad.tobytes() == (-pred.grad).tobytes()


def test_matmul_gradient_closed_form():
    """For L = sum(S * (A @ B)): dA = S Bᵀ and dB = Aᵀ S on a 2x2 case."""
    rng = RNG(8)
    a_val, b_val, s = rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    a, b = ad.parameter(a_val, "a"), ad.parameter(b_val, "b")
    loss = ad.mean(ad.mul(ad.constant(s * 4.0), ad.matmul(a, b)))
    ad.backward(loss, [a, b])
    np.testing.assert_allclose(a.grad, s @ b_val.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a_val.T @ s, atol=1e-12)


def test_unreached_parameter_gets_zero_gradient():
    x = ad.parameter(np.ones(3), "x")
    orphan = ad.parameter(np.ones(4), "orphan")
    loss = ad.mean(ad.mul(x, x))
    ad.backward(loss, [x, orphan])
    np.testing.assert_array_equal(orphan.grad, np.zeros(4))


def test_backward_rejects_nonscalar_loss():
    x = ad.parameter(np.ones(3), "x")
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x), [x])


def test_grad_accumulates_over_fanout():
    # y = x + x should see dL/dx = 2 through both branches.
    x = ad.parameter(np.array([1.5]), "x")
    loss = ad.mean(ad.add(x, x))
    ad.backward(loss, [x])
    assert x.grad == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# gradcheck harness
# ---------------------------------------------------------------------------


def _linear_loss(seed=0):
    rng = RNG(seed)
    x = ad.constant(rng.normal(size=(8, 5)))
    y = ad.constant(rng.normal(size=(8, 1)))
    w = ad.parameter(rng.normal(size=(5, 1)) * 0.3, "w")
    b = ad.parameter(np.zeros((1, 1)), "b")

    def build():
        return ad.mse(ad.add(ad.matmul(x, w), b), y)

    return build, [w, b]


def test_gradcheck_linear_model_tight():
    build, params = _linear_loss()
    report = ad.gradcheck(build, params, tolerance=1e-6)
    assert report.passed, f"max rel err {report.max_rel_err:.2e}"


@pytest.mark.parametrize(
    "op, shapes",
    [
        (ad.matmul, [(4, 5, 3), (3, 2)]),  # window stack @ weight matrix
        (ad.matmul, [(4, 5, 3), (4, 3, 5)]),  # stack @ stack, as for attention scores
        (ad.transpose, [(4, 5, 3)]),
        (ad.conv1d, [(4, 9, 2), (3, 2, 5), (5,)]),
    ],
    ids=["matmul_stack_matrix", "matmul_stack_stack", "transpose_3d", "conv1d_stack"],
)
def test_gradcheck_ops_on_window_stacks(op, shapes):
    rng = RNG(16)
    params = [ad.parameter(rng.normal(size=s), f"arg{i}") for i, s in enumerate(shapes)]
    target = ad.constant(rng.normal(size=op(*params).data.shape))
    report = ad.gradcheck(lambda: ad.mse(op(*params), target), params, n_samples=60, tolerance=1e-6)
    assert report.passed, f"max rel err {report.max_rel_err:.2e}"


def test_gradcheck_lstm_cell_unrolled_20_steps():
    rng = RNG(9)
    hid, cin, t_steps = 6, 3, 20
    wx = ad.parameter(rng.normal(size=(cin, 4 * hid)) * 0.3, "wx")
    wh = ad.parameter(rng.normal(size=(hid, 4 * hid)) * 0.3, "wh")
    bias = ad.parameter(np.zeros((1, 4 * hid)), "b")
    w_out = ad.parameter(rng.normal(size=(hid, 1)) * 0.3, "w_out")
    xs = rng.normal(size=(t_steps, 1, cin))
    target = ad.constant(rng.normal(size=(1, 1)))

    def build():
        h = ad.constant(np.zeros((1, hid)))
        c = ad.constant(np.zeros((1, hid)))
        for t in range(t_steps):
            z = ad.add(ad.add(ad.matmul(ad.constant(xs[t]), wx), ad.matmul(h, wh)), bias)
            i = ad.sigmoid(ad.narrow(z, 1, 0, hid))
            f = ad.sigmoid(ad.narrow(z, 1, hid, 2 * hid))
            g = ad.tanh(ad.narrow(z, 1, 2 * hid, 3 * hid))
            o = ad.sigmoid(ad.narrow(z, 1, 3 * hid, 4 * hid))
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
        return ad.mse(ad.matmul(h, w_out), target)

    report = ad.gradcheck(build, [wx, wh, bias, w_out], n_samples=60, tolerance=1e-4)
    assert report.passed, f"max rel err {report.max_rel_err:.2e}"
    assert report.n_checked >= 50


def _lstm_params(rng, cin, hid):
    wx = ad.parameter(rng.normal(size=(cin, 4 * hid)) * 0.3, "wx")
    wh = ad.parameter(rng.normal(size=(hid, 4 * hid)) * 0.3, "wh")
    bias = ad.parameter(rng.normal(size=4 * hid) * 0.1, "b")
    w_out = ad.parameter(rng.normal(size=(hid, 1)) * 0.3, "w_out")
    return [wx, wh, bias, w_out]


def _composite_lstm(x, wx, wh, bias):
    """The per-step graph that lstm_sequence fuses."""
    n, t_len, _ = x.shape
    hid = wh.data.shape[0]
    h = ad.constant(np.zeros((n, hid)))
    c = ad.constant(np.zeros((n, hid)))
    for t in range(t_len):
        z = ad.add(ad.add(ad.matmul(ad.constant(x[:, t, :]), wx), ad.matmul(h, wh)), bias)
        i = ad.sigmoid(ad.narrow(z, 1, 0, hid))
        f = ad.sigmoid(ad.narrow(z, 1, hid, 2 * hid))
        g = ad.tanh(ad.narrow(z, 1, 2 * hid, 3 * hid))
        o = ad.sigmoid(ad.narrow(z, 1, 3 * hid, 4 * hid))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
    return h


# (1, 20, 32, 32) is a single-window readout, (32, 20, 1, 32) a speed_rnn
# batch and (400, 20, 32, 16) a stack of transfer body rows
LSTM_SHAPES = [
    (1, 1, 1, 1),
    (5, 20, 3, 6),
    (32, 20, 32, 64),
    (7, 4, 1, 32),
    (1, 20, 32, 32),
    (2, 20, 32, 32),
    (32, 20, 1, 32),
    (400, 20, 32, 16),
]


@pytest.mark.parametrize("n, t_len, cin, hid", LSTM_SHAPES)
def test_lstm_sequence_matches_the_composite_graph_bitwise(n, t_len, cin, hid):
    rng = RNG(n * 1000 + t_len)
    x = rng.normal(size=(n, t_len, cin))
    y = ad.constant(rng.normal(size=(n, 1)))
    runs = []
    for lstm in (_composite_lstm, ad.lstm_sequence):
        params = _lstm_params(RNG(hid), cin, hid)
        h = lstm(x, *params[:3])
        ad.backward(ad.mse(ad.matmul(h, params[3]), y), params)
        runs.append((h.data, [p.grad for p in params]))
    (h_ref, g_ref), (h_fused, g_fused) = runs
    assert h_fused.tobytes() == h_ref.tobytes()
    for got, want in zip(g_fused, g_ref):
        assert np.array_equal(got, want)


def test_lstm_sequence_on_constants_matches_the_composite_forward_bitwise():
    # the readout shape: one window, 32 channels, hidden 32
    x = RNG(20).normal(size=(1, 20, 32))
    weights = [ad.constant(p.data) for p in _lstm_params(RNG(32), 32, 32)[:3]]
    h_ref = _composite_lstm(x, *weights)
    h = ad.lstm_sequence(x, *weights)
    assert h.data.tobytes() == h_ref.data.tobytes()
    # no graph: nothing holds the steps' activations past the call
    assert not h.requires_grad and h.parents == () and h.backward_fn is None


def test_gradcheck_lstm_sequence():
    rng = RNG(13)
    params = _lstm_params(rng, 3, 6)
    x = rng.normal(size=(4, 20, 3))
    target = ad.constant(rng.normal(size=(4, 1)))

    def build():
        return ad.mse(ad.matmul(ad.lstm_sequence(x, *params[:3]), params[3]), target)

    report = ad.gradcheck(build, params, n_samples=60, tolerance=1e-4)
    assert report.passed, f"max rel err {report.max_rel_err:.2e}"


def test_lstm_sequence_rejects_mismatched_shapes():
    wx, wh, bias, _ = _lstm_params(RNG(14), 3, 6)
    with pytest.raises(ShapeError):
        ad.lstm_sequence(np.zeros((2, 5, 4)), wx, wh, bias)


def test_gradcheck_flags_corrupted_rule():
    """Negative control: a wrong backward rule must be reported as a failure."""
    x = ad.parameter(RNG(10).normal(size=7) + 2.0, "x")

    def bad_square(t):
        out = ad.Tensor(t.data * t.data)
        out.requires_grad = True
        out.parents = (t,)

        def backward_fn(g):
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad = t.grad + 3.0 * g  # deliberately not 2*x*g

        out.backward_fn = backward_fn
        return out

    report = ad.gradcheck(lambda: ad.mean(bad_square(x)), [x], tolerance=1e-4)
    assert not report.passed
    # a gradient that never arrives reads as zero, max_rel_err 1.0; the
    # corrupted rule must be what fails
    assert report.max_rel_err < 1.0


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_backward_is_deterministic_bitwise():
    def run():
        build, params = _linear_loss(seed=21)
        loss = build()
        ad.backward(loss, params)
        return loss.data.tobytes(), [p.grad.tobytes() for p in params]

    assert run() == run()


def test_backward_linearity():
    """grad(a*L1 + b*L2) == a*grad(L1) + b*grad(L2) within 1e-10."""
    rng = RNG(11)
    w_val = rng.normal(size=(4, 2))
    x1, x2 = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    alpha, beta = 0.7, -2.3

    def grads(a_coef, b_coef):
        w = ad.parameter(w_val, "w")
        l1 = ad.mean(ad.tanh(ad.matmul(ad.constant(x1), w)))
        l2 = ad.mean(ad.mul(ad.matmul(ad.constant(x2), w), ad.matmul(ad.constant(x2), w)))
        loss = ad.add(ad.scale(l1, a_coef), ad.scale(l2, b_coef))
        ad.backward(loss, [w])
        return w.grad

    combined = grads(alpha, beta)
    separate = alpha * grads(1.0, 0.0) + beta * grads(0.0, 1.0)
    np.testing.assert_allclose(combined, separate, atol=1e-10)


def test_ops_do_not_mutate_inputs():
    rng = RNG(12)
    a = ad.parameter(rng.normal(size=(6, 6)), "a")
    b = ad.parameter(rng.normal(size=(6, 6)), "b")
    before = (a.data.tobytes(), b.data.tobytes())
    loss = ad.mse(
        ad.softmax(ad.relu(ad.matmul(a, ad.transpose(b))), axis=1),
        ad.constant(np.full((6, 6), 1.0 / 6.0)),
    )
    ad.backward(loss, [a, b])
    assert (a.data.tobytes(), b.data.tobytes()) == before


@settings(max_examples=40, deadline=None)
@given(_finite_arrays((5, 3)), _finite_arrays((5, 3)))
def test_add_backward_distributes_ones(x, y):
    a, b = ad.parameter(x, "a"), ad.parameter(y, "b")
    loss = ad.mean(ad.add(a, b))
    ad.backward(loss, [a, b])
    np.testing.assert_allclose(a.grad, np.full((5, 3), 1.0 / 15.0), atol=1e-12)
    np.testing.assert_allclose(b.grad, np.full((5, 3), 1.0 / 15.0), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_finite_arrays((4, 6)))
def test_concat_then_narrow_roundtrip(x):
    t = ad.constant(x)
    left = ad.narrow(t, 1, 0, 2)
    right = ad.narrow(t, 1, 2, 6)
    back = ad.concat([left, right], axis=1)
    np.testing.assert_array_equal(back.data, x)
