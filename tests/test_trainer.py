"""Training loop: convergence, early stopping, freezing, divergence, reports."""

import json

import numpy as np
import pytest

from locodec import trainer
from locodec.decoders import DecoderSpec, new_decoder
from locodec.errors import DivergenceError


def _window_problem(spec, n=300, seed=0, noise=0.0):
    """Targets linear in the flattened window, so every family can fit them."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, spec.window_len, spec.n_channels))
    w = rng.normal(size=spec.window_len * spec.n_channels) / np.sqrt(spec.flat_dim)
    y = x.reshape(n, -1) @ w + noise * rng.normal(size=n)
    return x, y


LIN = DecoderSpec(family="linear", n_channels=4)


def test_linear_convergence_on_solvable_problem():
    x, y = _window_problem(LIN, n=500, seed=1)
    x_tr, y_tr = x[:400], y[:400]
    x_va, y_va = x[400:], y[400:]
    cfg = trainer.TrainConfig(max_epochs=50, learning_rate=1e-2, patience=50, shuffle_seed=2)
    fitted, report = trainer.train(new_decoder(LIN), x_tr, y_tr, x_va, y_va, cfg)
    assert report.best_val_loss <= 1e-4 * float(np.var(y_va))


def test_early_stop_returns_best_checkpoint():
    """Patience 2 on a deliberately overfitting run: the returned state must
    reproduce the minimal recorded validation loss exactly."""
    spec = DecoderSpec(family="ffnn", n_channels=3, ffnn_hidden=(32, 16))
    x, y = _window_problem(spec, n=260, seed=3, noise=0.5)
    x_tr, y_tr = x[:200], y[:200]
    x_va, y_va = x[200:], y[200:]
    cfg = trainer.TrainConfig(max_epochs=60, learning_rate=5e-3, patience=2, shuffle_seed=4)
    fitted, report = trainer.train(new_decoder(spec), x_tr, y_tr, x_va, y_va, cfg)
    val_curve = [rec.val_loss for rec in report.history]
    assert report.n_epochs_run < 60, "fixture failed to trigger early stopping"
    assert report.stopped_early
    assert report.n_epochs_run == report.best_epoch + 2 or report.best_epoch == 0
    assert report.best_val_loss == pytest.approx(min(val_curve + [report.best_val_loss]))
    # restored weights actually achieve the reported loss (up to f32 rounding)
    achieved = float(np.mean((fitted.predict_batch(x_va) - y_va) ** 2))
    assert achieved == pytest.approx(report.best_val_loss, rel=1e-4)


def test_initial_params_count_as_epoch_zero():
    # max_epochs=0 returns the untouched initial state
    x, y = _window_problem(LIN, n=100, seed=5)
    d = new_decoder(LIN)
    before = {k: v.copy() for k, v in d.state_arrays().items()}
    fitted, report = trainer.train(d, x, y, x, y, trainer.TrainConfig(max_epochs=0))
    assert report.best_epoch == 0 and report.n_epochs_run == 0
    for k, v in fitted.state_arrays().items():
        np.testing.assert_array_equal(v, before[k].astype(np.float32).astype(np.float64))


def test_freeze_body_keeps_body_bitwise():
    spec = DecoderSpec(family="lstm_rnn", n_channels=3, lstm_hidden=8, head_hidden=(4,))
    x, y = _window_problem(spec, n=120, seed=6)
    d = new_decoder(spec)
    d.quantize_f32()  # put the starting point on the storage grid
    body_before = {k: v.copy() for k, v in d.state_arrays().items() if k.startswith("body.")}
    cfg = trainer.TrainConfig(max_epochs=4, freeze_body=True, shuffle_seed=7)
    fitted, report = trainer.fine_tune(d, x[:100], y[:100], x[100:], y[100:], cfg)
    after = fitted.state_arrays()
    for k, v in body_before.items():
        np.testing.assert_array_equal(after[k], v)
    head_moved = any(
        not np.array_equal(after[k], v)
        for k, v in d.state_arrays().items()
        if not k.startswith("body.")
    )
    assert head_moved
    assert report.n_params_updated == len(fitted.head_names())


def test_fine_tune_requires_freeze():
    x, y = _window_problem(LIN, n=50, seed=8)
    with pytest.raises(ValueError):
        trainer.fine_tune(new_decoder(LIN), x, y, x, y, trainer.TrainConfig())


def test_fine_tune_zero_epochs_is_identity():
    spec = DecoderSpec(family="ffnn", n_channels=3, ffnn_hidden=(8, 4))
    x, y = _window_problem(spec, n=60, seed=9)
    d = new_decoder(spec)
    d.quantize_f32()
    cfg = trainer.TrainConfig(max_epochs=0, freeze_body=True)
    fitted, _ = trainer.fine_tune(d, x, y, x, y, cfg)
    assert fitted.checksum() == d.checksum()


def test_divergence_reports_epoch_and_lr():
    x, y = _window_problem(LIN, n=80, seed=10)
    cfg = trainer.TrainConfig(max_epochs=30, learning_rate=1e12, optimizer="sgd", patience=30)
    with pytest.raises(DivergenceError) as exc:
        trainer.train(new_decoder(LIN), x, y * 1e6, x, y, cfg)
    msg = str(exc.value)
    assert "epoch" in msg
    assert exc.value.lr == 1e12
    assert exc.value.epoch >= 1


def test_training_is_reproducible():
    spec = DecoderSpec(family="ffnn", n_channels=2, ffnn_hidden=(8, 4))
    x, y = _window_problem(spec, n=150, seed=11, noise=0.2)
    cfg = trainer.TrainConfig(max_epochs=5, shuffle_seed=12)

    def run():
        fitted, report = trainer.train(new_decoder(spec), x[:120], y[:120], x[120:], y[120:], cfg)
        return fitted.checksum(), [(r.train_loss, r.val_loss) for r in report.history]

    assert run() == run()


def test_overfit_single_batch_monotone():
    spec = DecoderSpec(family="ffnn", n_channels=2, ffnn_hidden=(16, 8))
    x, y = _window_problem(spec, n=32, seed=13)
    cfg = trainer.TrainConfig(max_epochs=25, batch_size=32, learning_rate=1e-3, patience=25)
    _, report = trainer.train(new_decoder(spec), x, y, np.empty((0, *x.shape[1:])), np.empty(0), cfg)
    losses = [r.train_loss for r in report.history]
    diffs = np.diff(losses[1:])
    assert np.all(diffs <= 1e-9), "single-batch loss must decrease monotonically"


def test_sgd_optimizer_path():
    x, y = _window_problem(LIN, n=200, seed=14)
    cfg = trainer.TrainConfig(max_epochs=20, optimizer="sgd", learning_rate=1e-3, patience=20)
    _, report = trainer.train(new_decoder(LIN), x[:150], y[:150], x[150:], y[150:], cfg)
    assert report.history[-1].val_loss < report.history[0].val_loss


def test_forest_family_rejected():
    with pytest.raises(ValueError):
        trainer.train(
            new_decoder(DecoderSpec(family="linear", n_channels=2)).__class__(
                DecoderSpec(family="random_forest", n_channels=2)
            ),
            np.zeros((4, 20, 2)),
            np.zeros(4),
            np.zeros((0, 20, 2)),
            np.zeros(0),
            trainer.TrainConfig(),
        )


def test_report_jsonl_roundtrip():
    x, y = _window_problem(LIN, n=90, seed=15)
    cfg = trainer.TrainConfig(max_epochs=3)
    _, report = trainer.train(new_decoder(LIN), x[:70], y[:70], x[70:], y[70:], cfg)
    lines = report.to_jsonl().strip().splitlines()
    assert len(lines) == report.n_epochs_run + 1
    for i, line in enumerate(lines[:-1], start=1):
        rec = json.loads(line)
        assert rec["epoch"] == i and np.isfinite(rec["val_loss"])
    summary = json.loads(lines[-1])["summary"]
    assert summary["best_epoch"] == report.best_epoch


def test_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(patience=0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        trainer.TrainConfig(optimizer="rmsprop")


def test_speed_rnn_learns_constant_sessions():
    """Constant speed history must map to that constant after brief training."""
    rng = np.random.default_rng(16)
    consts = rng.uniform(0.5, 4.0, size=220)
    x = np.repeat(consts[:, None], 20, axis=1)[:, :, None]
    y = consts.copy()
    spec = DecoderSpec(family="speed_rnn", n_channels=1, lstm_hidden=12, head_hidden=(8,))
    cfg = trainer.TrainConfig(max_epochs=220, learning_rate=5e-3, patience=220, shuffle_seed=17)
    fitted, _ = trainer.train(new_decoder(spec), x[:200], y[:200], x[200:], y[200:], cfg)
    pred = fitted.predict_batch(np.full((1, 20, 1), 2.0))
    assert pred[0] == pytest.approx(2.0, abs=1e-3)