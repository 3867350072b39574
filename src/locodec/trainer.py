"""Minibatch training loop with early stopping.

All gradient families share one loop: shuffled minibatches, Adam, validation
MSE after every epoch, patience-based early stopping with a strict
improvement rule, and restoration of the best checkpoint seen (including
the initial parameters, which count as epoch 0). The returned
decoder is quantized to the float32 storage grid so that a model written to
disk predicts bitwise identically after reload.

With ``freeze_body`` only the head (the ``head.*`` parameters) trains. The
body, which maps each window to one row of features, does not change, so
it runs once on the fit stack and once on the validation stack, and the
loop trains the head on those body rows.

Training raises :class:`DivergenceError` the moment a batch or validation
loss goes non-finite; a half-trained decoder is never returned.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import DivergenceError
from .decoders import Decoder

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    patience: int = 5
    freeze_body: bool = False
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass(frozen=True)
class TrainReport:
    n_epochs_run: int
    best_epoch: int
    best_val_loss: float
    stopped_early: bool
    n_params_updated: int
    history: tuple[EpochRecord, ...]

    def to_jsonl(self) -> str:
        lines = [json.dumps(asdict(rec), sort_keys=True) for rec in self.history]
        summary = {
            "best_epoch": self.best_epoch,
            "best_val_loss": self.best_val_loss,
            "n_epochs_run": self.n_epochs_run,
            "n_params_updated": self.n_params_updated,
            "stopped_early": self.stopped_early,
        }
        lines.append(json.dumps({"summary": summary}, sort_keys=True))
        return "\n".join(lines) + "\n"


class _Adam:
    def __init__(self, params: list[ad.Tensor], learning_rate: float):
        self.learning_rate = learning_rate
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self, params: list[ad.Tensor]) -> None:
        """Update the moments and parameters in place, each expression in
        the out-of-place formula's operation order, so the bits are the
        same. Nothing holds a ``p.data`` across a step: checkpoints and
        clones copy it, and inference wraps it for one prediction only."""
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for p, m, v in zip(params, self.m, self.v):
            g = p.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def _val_loss(decoder: Decoder, x_val: np.ndarray, y_val: np.ndarray) -> float:
    pred = decoder.predict_batch(x_val)
    return float(np.mean((pred - np.asarray(y_val, dtype=np.float64)) ** 2))


def train(
    decoder: Decoder,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> tuple[Decoder, TrainReport]:
    """Train a clone of ``decoder``; the input decoder is left untouched.

    With ``freeze_body`` only parameters outside the ``body.`` prefix move,
    which is how cross-subject fine-tuning retrains the readout stack while
    keeping the learned feature body fixed. The body then runs once, on the
    fit and validation stacks, and the loop trains the head on its rows.
    """
    if decoder.spec.family == "random_forest":
        raise ValueError("random_forest decoders are fitted, not gradient-trained")
    if len(x_train) == 0:
        raise ValueError("empty training set")
    work = decoder.clone()
    if config.freeze_body:
        for name, t in work.param_items():
            if name.startswith("body."):
                t.requires_grad = False
        x_train, x_val = work.body_rows(x_train), work.body_rows(x_val)
    trainable = [t for t in work.param_list() if t.requires_grad]
    if not trainable:
        raise ValueError("no trainable parameters selected")

    opt = _Adam(trainable, config.learning_rate)
    rng = np.random.default_rng(config.shuffle_seed)
    n = len(x_train)
    have_val = len(x_val) > 0
    y_train = np.asarray(y_train, dtype=np.float64)

    best_val = _val_loss(work, x_val, y_val) if have_val else float("inf")
    if have_val and not np.isfinite(best_val):
        raise DivergenceError(0, config.learning_rate)
    best_state = work.state_arrays()
    best_epoch = 0
    since_best = 0
    history: list[EpochRecord] = []
    stopped_early = False

    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss = work.loss_batch(x_train[idx], y_train[idx])
            if not np.isfinite(loss.data):
                raise DivergenceError(epoch, config.learning_rate)
            ad.backward(loss, params=trainable)
            opt.step(trainable)
            # every gradient dies with its batch, so none sums across batches
            # or is returned (and pickled) with the decoder; a frozen body
            # never gets one
            ad.zero_grads(trainable)
            total += float(loss.data) * len(idx)
        train_loss = total / n
        val_loss = _val_loss(work, x_val, y_val) if have_val else train_loss
        if not np.isfinite(val_loss):
            raise DivergenceError(epoch, config.learning_rate)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, val_loss=val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_state = work.state_arrays()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                stopped_early = True
                break

    work.load_arrays(best_state)
    work.quantize_f32()
    report = TrainReport(
        n_epochs_run=len(history),
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        stopped_early=stopped_early,
        n_params_updated=len(trainable),
        history=tuple(history),
    )
    return work, report


def fine_tune(
    decoder: Decoder,
    x_cal: np.ndarray,
    y_cal: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> tuple[Decoder, TrainReport]:
    """Head-only calibration of a pretrained decoder. Same loop as
    :func:`train` but the configuration must freeze the body."""
    if not config.freeze_body:
        raise ValueError("fine_tune requires freeze_body=True")
    return train(decoder, x_cal, y_cal, x_val, y_val, config)
