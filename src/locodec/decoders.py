"""Decoder families over 200 ms EEG windows.

Five families share one window contract: every entry point
(:meth:`Decoder.predict_batch`, :meth:`Decoder.loss_batch`,
:func:`fit_forest_decoder`) takes time-major stacks of shape (n, 20, C),
one scalar speed per window, and flat families flatten each window here and
nowhere else. The stacks from :func:`locodec.sessions.window_arrays` are
read-only strided views. Sequence families read them as they are; flat
families flatten a contiguous copy, because a reshaped view has overlapping
rows, which numpy's matmul runs outside BLAS with different rounding.

The families are a linear readout, a bagged CART forest, a feedforward net
on the flattened window, a single-layer LSTM over the 20 steps, and a
one-block encoder-style transformer (token projection, sinusoidal
positions, bidirectional multi-head attention, a width-3 convolution over
tokens, dense head). Each trainable family runs one batch
forward on the package's own autodiff graph, whose ops take window stacks;
prediction runs the same forward on constant views of the parameters, so it
builds no graph. The forest is fitted greedily and wrapped behind the same
predict surface.

Each trainable family's forward is its head applied to its body. The body
maps a window stack to one row per window: the flat window (``linear``,
whose body has no parameters), the last hidden layer (``ffnn``), the last
LSTM state, or the pooled transformer tokens. The head is the ``head.*``
dense stack. Parameters prefixed ``head.`` are the only ones updated when
fine-tuning with a frozen body. A frozen body is run once per window stack
by :meth:`Decoder.body_rows`, and :meth:`Decoder.loss_batch` and
:meth:`Decoder.predict_batch` take the resulting :class:`BodyRows` in place
of the stack and run only the head.

A model file (version 5) is a numpy ``.npz`` archive with one layout for
every family: a JSON ``header`` ``{version, spec, meta}``, the decoder's
named arrays, and ``extra.<name>`` arrays such as normalizer statistics. A
trained family stores its parameters; the forest stores ``forest.<field>``,
each node field concatenated over the trees, and ``forest.n_nodes``. Every
array's CRC-32 is checked on load. Float decoder arrays are stored as
float32, so finished decoders are quantized to float32-representable values
once at the end of fitting; save -> load -> predict is then bitwise
reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import ModelLoadError, ShapeError, SpecMismatchError
from .forest import Forest, ForestSpec, Tree, forest_fit, forest_predict
from .sessions import WINDOW_LEN

FAMILIES = (
    "linear",
    "random_forest",
    "ffnn",
    "lstm_rnn",
    "transformer_encoder",
    "speed_rnn",
)
TRAINABLE_FAMILIES = tuple(f for f in FAMILIES if f != "random_forest")
RECURRENT_FAMILIES = ("lstm_rnn", "speed_rnn")
FLAT_FAMILIES = ("linear", "ffnn", "random_forest")

MODEL_VERSION = 5
CONV_KERNEL = 3  # width of the transformer's token convolution


@dataclass(frozen=True)
class DecoderSpec:
    family: str
    n_channels: int = 32
    ffnn_hidden: tuple[int, ...] = (256, 64)
    lstm_hidden: int = 64
    head_hidden: tuple[int, ...] = (32,)
    embed_dim: int = 64
    n_heads: int = 4
    n_trees: int = 100
    max_depth: int | None = 12
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown decoder family {self.family!r}; known: {FAMILIES}")
        if self.n_channels < 1:
            raise ValueError("n_channels must be positive")
        if self.family == "speed_rnn" and self.n_channels != 1:
            raise ValueError("speed_rnn takes exactly one input channel")
        if self.family == "transformer_encoder" and self.embed_dim % self.n_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} must divide into {self.n_heads} heads")

    @property
    def flat_dim(self) -> int:
        return self.n_channels * WINDOW_LEN


def _glorot(rng, shape: tuple[int, int]) -> np.ndarray:
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _mlp_param_names(prefix: str, in_dim: int, hidden: tuple[int, ...]):
    dims = [in_dim, *hidden, 1]
    return [(f"{prefix}.w{i}", f"{prefix}.b{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


def _init_params(spec: DecoderSpec) -> dict[str, ad.Tensor]:
    rng = np.random.default_rng(spec.seed)
    params: dict[str, np.ndarray] = {}
    if spec.family == "linear":
        params["head.w0"] = _glorot(rng, (spec.flat_dim, 1))
        params["head.b0"] = np.zeros(1)
    elif spec.family == "ffnn":
        dims = [spec.flat_dim, *spec.ffnn_hidden]
        for i in range(len(dims) - 1):
            params[f"body.w{i}"] = _glorot(rng, (dims[i], dims[i + 1]))
            params[f"body.b{i}"] = np.zeros(dims[i + 1])
        params["head.w0"] = _glorot(rng, (dims[-1], 1))
        params["head.b0"] = np.zeros(1)
    elif spec.family in RECURRENT_FAMILIES:
        h = spec.lstm_hidden
        params["body.wx"] = _glorot(rng, (spec.n_channels, 4 * h))
        params["body.wh"] = _glorot(rng, (h, 4 * h))
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate bias opens the memory path at init
        params["body.b"] = b
        for name, bname, din, dout in _mlp_param_names("head", h, spec.head_hidden):
            params[name] = _glorot(rng, (din, dout))
            params[bname] = np.zeros(dout)
    else:  # transformer_encoder; a random_forest decoder has no tensors to init
        e = spec.embed_dim
        params["body.embed_w"] = _glorot(rng, (spec.n_channels, e))
        params["body.embed_b"] = np.zeros(e)
        for proj in ("wq", "wk", "wv", "wo"):
            params[f"body.blk0.{proj}"] = _glorot(rng, (e, e))
            params[f"body.blk0.{proj[1]}b"] = np.zeros(e)
        limit = math.sqrt(6.0 / (CONV_KERNEL * e + e))
        params["body.conv_w"] = rng.uniform(-limit, limit, size=(CONV_KERNEL, e, e))
        params["body.conv_b"] = np.zeros(e)
        for name, bname, din, dout in _mlp_param_names("head", e, spec.head_hidden):
            params[name] = _glorot(rng, (din, dout))
            params[bname] = np.zeros(dout)
    return {k: ad.parameter(v, k) for k, v in params.items()}


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal position table (length, dim)."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def _mlp_head(h: ad.Tensor, params, prefix: str, hidden: tuple[int, ...]) -> ad.Tensor:
    n_layers = len(hidden) + 1
    for i in range(n_layers):
        h = ad.add(ad.matmul(h, params[f"{prefix}.w{i}"]), params[f"{prefix}.b{i}"])
        if i < n_layers - 1:
            h = ad.relu(h)
    return h


@dataclass(frozen=True)
class BodyRows:
    """A body's output rows (n, width) for a stack of n windows, from
    :meth:`Decoder.body_rows`. Indexing selects windows and ``shape[0]``
    counts them, as on the stack."""

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx) -> "BodyRows":
        return BodyRows(self.rows[idx])

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rows.shape


def _head_width(spec: DecoderSpec) -> int:
    """Width of the rows the family's head takes."""
    if spec.family == "ffnn" and spec.ffnn_hidden:
        return spec.ffnn_hidden[-1]
    if spec.family in RECURRENT_FAMILIES:
        return spec.lstm_hidden
    if spec.family == "transformer_encoder":
        return spec.embed_dim
    return spec.flat_dim


def _window_input(spec: DecoderSpec, x):
    """The family's input from a time-major window stack of shape (n,
    WINDOW_LEN, n_channels): flat families see each window flattened time
    first (sample 0's channels first), sequence families the stack itself.
    Body rows pass through once their width is the head's."""
    if isinstance(x, BodyRows):
        width = _head_width(spec)
        if spec.family == "random_forest" or x.rows.ndim != 2 or x.rows.shape[1] != width:
            raise ShapeError(
                f"{spec.family} decoder takes (n, {width}) body rows, got shape {x.shape}"
            )
        return x
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (WINDOW_LEN, spec.n_channels):
        raise ShapeError(
            f"{spec.family} decoder takes (n, {WINDOW_LEN}, {spec.n_channels}) "
            f"window stacks, got shape {x.shape}"
        )
    if spec.family in FLAT_FAMILIES:
        # a copy: a reshaped window view has overlapping rows (module docstring)
        return np.ascontiguousarray(x).reshape(len(x), spec.flat_dim)
    return x


class Decoder:
    """A decoder spec plus its parameters (tensors or a fitted forest)."""

    def __init__(self, spec: DecoderSpec, params=None, forest_model: Forest | None = None):
        self.spec = spec
        if spec.family == "random_forest":
            self.params: dict[str, ad.Tensor] = {}
            self.forest = forest_model
        else:
            self.params = params if params is not None else _init_params(spec)
            self.forest = None

    # -- parameter bookkeeping ------------------------------------------------

    def param_items(self):
        return sorted(self.params.items())

    def param_list(self) -> list[ad.Tensor]:
        return [t for _, t in self.param_items()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.params):
            missing = set(self.params) ^ set(arrays)
            raise SpecMismatchError(f"parameter name mismatch: {sorted(missing)}")
        for n, arr in arrays.items():
            if arr.shape != self.params[n].data.shape:
                raise SpecMismatchError(
                    f"parameter {n}: shape {arr.shape} != expected {self.params[n].data.shape}"
                )
            self.params[n].data = np.asarray(arr, dtype=np.float64).copy()

    def clone(self) -> "Decoder":
        return Decoder(self.spec, params={n: ad.parameter(t.data, n) for n, t in self.params.items()})

    def quantize_f32(self) -> None:
        """Snap parameters to float32-representable values (storage grid)."""
        for t in self.params.values():
            t.data = t.data.astype(np.float32).astype(np.float64)

    def checksum(self) -> str:
        h = hashlib.sha256()
        for n, arr in _stored_arrays(self):
            h.update(n.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # -- forward passes --------------------------------------------------------

    def _body(self, p, x: np.ndarray) -> ad.Tensor:
        """The family's body output, one row per window."""
        spec = self.spec
        if spec.family == "linear":
            return ad.constant(x)
        if spec.family == "ffnn":
            h = ad.constant(x)
            for i in range(len(spec.ffnn_hidden)):
                h = ad.relu(ad.add(ad.matmul(h, p[f"body.w{i}"]), p[f"body.b{i}"]))
            return h
        if spec.family in RECURRENT_FAMILIES:
            return ad.lstm_sequence(x, p["body.wx"], p["body.wh"], p["body.b"])
        if spec.family == "transformer_encoder":
            return self._transformer_body(p, x)
        raise ValueError(f"family {spec.family} has no differentiable forward pass")

    def _transformer_body(self, p, x3d: np.ndarray) -> ad.Tensor:
        spec = self.spec
        e = spec.embed_dim
        dh = e // spec.n_heads
        tok = ad.add(ad.matmul(ad.constant(x3d), p["body.embed_w"]), p["body.embed_b"])
        tok = ad.add(tok, ad.constant(positional_encoding(x3d.shape[1], e)))
        q = ad.add(ad.matmul(tok, p["body.blk0.wq"]), p["body.blk0.qb"])
        k = ad.add(ad.matmul(tok, p["body.blk0.wk"]), p["body.blk0.kb"])
        v = ad.add(ad.matmul(tok, p["body.blk0.wv"]), p["body.blk0.vb"])
        heads = []
        for hi in range(spec.n_heads):
            lo, hi_end = hi * dh, (hi + 1) * dh
            qh = ad.narrow(q, 2, lo, hi_end)
            kh = ad.narrow(k, 2, lo, hi_end)
            vh = ad.narrow(v, 2, lo, hi_end)
            scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / math.sqrt(dh))
            heads.append(ad.matmul(ad.softmax(scores, axis=2), vh))
        tok = ad.add(ad.matmul(ad.concat(heads, axis=2), p["body.blk0.wo"]), p["body.blk0.ob"])
        z = ad.relu(ad.conv1d(tok, p["body.conv_w"], p["body.conv_b"]))
        return ad.mean(z, axis=1)

    def _forward(self, params: dict[str, ad.Tensor], x) -> ad.Tensor:
        """The family's batch output (n, 1) from the parameter tensors
        ``params``: the ``head.*`` dense stack applied to the body, or to
        ``x`` itself when it holds body rows. A graph back to the parameters
        when they need a gradient, a bare tensor when they are constants."""
        h = ad.constant(x.rows) if isinstance(x, BodyRows) else self._body(params, x)
        hidden = () if self.spec.family in FLAT_FAMILIES else self.spec.head_hidden
        return _mlp_head(h, params, "head", hidden)

    def _constants(self) -> dict[str, ad.Tensor]:
        return {n: ad.constant(t.data) for n, t in self.params.items()}

    def body_rows(self, x: np.ndarray) -> "BodyRows":
        """The body's output for a window stack, run once on constant views
        of the parameters as at inference. :meth:`loss_batch` and
        :meth:`predict_batch` take the result in place of the stack and run
        only the head."""
        if isinstance(x, BodyRows):
            raise ShapeError("body_rows takes a window stack, not body rows")
        return BodyRows(self._body(self._constants(), _window_input(self.spec, x)).data)

    def loss_batch(self, x, y: np.ndarray) -> ad.Tensor:
        out = self._forward(self.params, _window_input(self.spec, x))
        return ad.mse(out, ad.constant(np.asarray(y, dtype=np.float64).reshape(-1, 1)))

    def predict_batch(self, x) -> np.ndarray:
        x = _window_input(self.spec, x)
        if self.spec.family == "random_forest":
            if self.forest is None:
                raise SpecMismatchError("random_forest decoder has not been fitted")
            return forest_predict(self.forest, x)
        return self._forward(self._constants(), x).data.reshape(-1)


def new_decoder(spec: DecoderSpec) -> Decoder:
    return Decoder(spec)


def fit_forest_decoder(spec: DecoderSpec, x: np.ndarray, y: np.ndarray) -> Decoder:
    fspec = ForestSpec(n_trees=spec.n_trees, max_depth=spec.max_depth, seed=spec.seed)
    return Decoder(spec, forest_model=forest_fit(_window_input(spec, x), y, fspec))


# ---------------------------------------------------------------------------
# model files


# node arrays of a stored tree, with the dtypes the fit gives them
_TREE_FIELDS = {
    "feature": np.int32,
    "threshold": np.float64,
    "left": np.int32,
    "right": np.int32,
    "value": np.float64,
}


def _stored_arrays(decoder: Decoder) -> list[tuple[str, np.ndarray]]:
    """The decoder's named arrays in file order: its parameters, or each node
    field of the forest concatenated over its trees, then the node counts."""
    if decoder.spec.family != "random_forest":
        return [(n, t.data) for n, t in decoder.param_items()]
    if decoder.forest is None:
        raise SpecMismatchError("cannot save an unfitted random_forest decoder")
    trees = decoder.forest.trees
    fields = [(f"forest.{field}", np.concatenate([getattr(t, field) for t in trees])) for field in _TREE_FIELDS]
    return fields + [("forest.n_nodes", np.array([t.n_nodes for t in trees], dtype=np.int32))]


def _spec_from_json(d: dict) -> DecoderSpec:
    d = dict(d)
    d["ffnn_hidden"] = tuple(d["ffnn_hidden"])
    d["head_hidden"] = tuple(d["head_hidden"])
    return DecoderSpec(**d)


def save_state(decoder: Decoder, path, extras: dict[str, np.ndarray] | None = None, meta: dict | None = None) -> None:
    """Write a decoder, plus optional named extra arrays such as normalizer
    statistics, as a model archive. Decoder arrays are stored as float32;
    extras keep their dtype so that reload-and-evaluate is bitwise faithful."""
    header = {"version": MODEL_VERSION, "spec": asdict(decoder.spec), "meta": meta or {}}
    arrays = {n: a.astype(np.float32) if a.dtype == np.float64 else a for n, a in _stored_arrays(decoder)}
    arrays.update((f"extra.{n}", np.asarray(extras[n])) for n in sorted(extras or {}))
    if any(a.dtype.hasobject for a in arrays.values()):
        raise ValueError("a model file holds arrays of numbers, not Python objects")
    with open(path, "wb") as fh:  # a handle, so that numpy appends no .npz
        np.savez(fh, header=np.array(json.dumps(header, sort_keys=True)), **arrays)


def _archive_members(path) -> dict[str, np.ndarray]:
    """Every array of a model archive. numpy checks a member's CRC-32 only if
    it reads to the member's end, so every member is checked in full first."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if isinstance(archive, np.ndarray):
                raise ModelLoadError(f"{path}: a bare .npy array, not a model archive")
            with archive:
                bad = archive.zip.testzip()
                if bad is not None:
                    raise ModelLoadError(f"{path}: bad CRC-32 for member {bad}")
                return {name: archive[name] for name in archive.files}
        except (OSError, EOFError, ValueError, NotImplementedError, zipfile.BadZipFile) as exc:
            raise ModelLoadError(f"{path}: not a model archive ({exc})") from exc


def _forest_from_arrays(spec: DecoderSpec, arrays: dict[str, np.ndarray]) -> Decoder:
    """The forest whose trees' node fields were stored concatenated, cut back
    at the stored node counts and cast to their fitted dtypes."""
    n_nodes = arrays.get("forest.n_nodes", np.empty(0))
    columns = {field: arrays.get(f"forest.{field}", np.empty(0)) for field in _TREE_FIELDS}
    shapes = {c.shape for c in columns.values()}
    if len(arrays) != len(columns) + 1 or n_nodes.shape != (spec.n_trees,) or shapes != {(n_nodes.sum(),)}:
        raise SpecMismatchError(f"stored trees do not match n_trees={spec.n_trees}")
    cuts = np.cumsum(n_nodes)[:-1]
    columns = {field: np.split(columns[field].astype(dt), cuts) for field, dt in _TREE_FIELDS.items()}
    trees = tuple(Tree(**{field: columns[field][i] for field in _TREE_FIELDS}) for i in range(spec.n_trees))
    fspec = ForestSpec(n_trees=spec.n_trees, max_depth=spec.max_depth, seed=spec.seed)
    return Decoder(spec, forest_model=Forest(fspec, spec.flat_dim, trees))


def load_state(path):
    """Read a model file back: (decoder, extras, meta). Any file that is not
    an intact model archive of this version raises :class:`ModelLoadError`."""
    arrays = _archive_members(path)
    extras = {n[len("extra.") :]: arrays.pop(n) for n in list(arrays) if n.startswith("extra.")}
    try:
        header = json.loads(str(arrays.pop("header")))
        if header["version"] != MODEL_VERSION:
            raise ModelLoadError(f"{path}: unsupported model version {header['version']}")
        spec = _spec_from_json(header["spec"])
        if spec.family == "random_forest":
            return _forest_from_arrays(spec, arrays), extras, header["meta"]
        decoder = Decoder(spec)
        decoder.load_arrays(arrays)
        return decoder, extras, header["meta"]
    except (ValueError, KeyError, TypeError, SpecMismatchError) as exc:
        raise ModelLoadError(f"{path}: not a valid model file ({exc!r})") from exc


def gradcheck_decoder(
    spec: DecoderSpec,
    n_windows: int = 3,
    n_samples: int = 60,
    h: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> ad.GradcheckReport:
    """Finite-difference verification of a family's full loss gradient on a
    fixed random batch."""
    if spec.family == "random_forest":
        raise ValueError("random_forest is not gradient-trained")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_windows, WINDOW_LEN, spec.n_channels))
    y = rng.standard_normal(n_windows)
    decoder = new_decoder(spec)
    params = decoder.param_list()
    return ad.gradcheck(
        lambda: decoder.loss_batch(x, y),
        params,
        n_samples=n_samples,
        h=h,
        tolerance=tolerance,
        seed=seed,
    )
