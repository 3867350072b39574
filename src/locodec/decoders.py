"""Decoder families over 200 ms EEG windows.

Five families share one window contract: every entry point
(:meth:`Decoder.predict_batch`, :meth:`Decoder.loss_batch`,
:func:`fit_forest_decoder`) takes time-major stacks of shape (n, 20, C),
one scalar speed per window, and flat families flatten each window here and
nowhere else. The families are a linear readout, a bagged CART forest, a
feedforward net on the flattened window, a single-layer LSTM over the 20
steps, and a one-block encoder-style transformer (token projection,
sinusoidal positions, bidirectional multi-head attention, a width-3
convolution over tokens, dense head). Each trainable family runs one batch
forward on the package's own autodiff graph, whose ops take window stacks;
prediction runs the same forward on constant views of the parameters, so it
builds no graph. The forest is fitted greedily and wrapped behind the same
predict surface.

Each trainable family's forward is its head applied to its body. The body
maps a window stack to one row per window: the flat window (``linear``,
whose body has no parameters), the last hidden layer (``ffnn``, dropout
included), the last LSTM state, or the pooled transformer tokens. The head
is the ``head.*`` dense stack; for the sequence families it first applies
dropout to the body rows. Parameters prefixed ``head.`` are the only ones
updated when fine-tuning with a frozen body. A frozen body is run once per
window stack by :meth:`Decoder.body_rows`, as at inference, and
:meth:`Decoder.loss_batch` and :meth:`Decoder.predict_batch` take the
resulting :class:`BodyRows` in place of the stack and run only the head; a
frozen ``ffnn`` body therefore applies no dropout.

A model file (version 2) has one layout for every family: a JSON header
``{spec, meta}``, then one list of named arrays, the decoder's followed by
``extra.<name>`` arrays such as normalizer statistics. A trained family
stores its parameters; the forest stores ``tree<i>.<field>`` for the node
arrays of each tree (feature, threshold, left, right, value). Float decoder
arrays are stored as float32, so finished decoders are quantized to
float32-representable values once at the end of fitting; save -> load ->
predict is then bitwise reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

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

MODEL_MAGIC = b"LCMD1"
MODEL_VERSION = 2


@dataclass(frozen=True)
class DecoderSpec:
    family: str
    n_channels: int = 32
    window_len: int = WINDOW_LEN
    ffnn_hidden: tuple[int, ...] = (256, 64)
    lstm_hidden: int = 64
    head_hidden: tuple[int, ...] = (32,)
    embed_dim: int = 64
    n_heads: int = 4
    n_blocks: int = 1
    conv_kernel: int = 3
    dropout: float = 0.0
    n_trees: int = 100
    max_depth: int | None = 12
    use_positional: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown decoder family {self.family!r}; known: {FAMILIES}")
        if self.n_channels < 1 or self.window_len < 1:
            raise ValueError("n_channels and window_len must be positive")
        if self.family == "speed_rnn" and self.n_channels != 1:
            raise ValueError("speed_rnn takes exactly one input channel")
        if self.family == "transformer_encoder":
            if self.embed_dim % self.n_heads != 0:
                raise ValueError(
                    f"embed_dim {self.embed_dim} must divide into {self.n_heads} heads"
                )
            if not 1 <= self.conv_kernel <= self.window_len:
                raise ValueError(f"conv_kernel must be in [1, {self.window_len}]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def flat_dim(self) -> int:
        return self.n_channels * self.window_len


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
        for blk in range(spec.n_blocks):
            for proj in ("wq", "wk", "wv", "wo"):
                params[f"body.blk{blk}.{proj}"] = _glorot(rng, (e, e))
                params[f"body.blk{blk}.{proj[1]}b"] = np.zeros(e)
        params["body.conv_w"] = rng.uniform(
            -math.sqrt(6.0 / (spec.conv_kernel * e + e)),
            math.sqrt(6.0 / (spec.conv_kernel * e + e)),
            size=(spec.conv_kernel, e, e),
        )
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


def _dropout(t: ad.Tensor, rate: float, rng) -> ad.Tensor:
    if rng is None or rate <= 0.0:
        return t
    mask = (rng.random(t.data.shape) >= rate) / (1.0 - rate)
    return ad.mul(t, ad.constant(mask))


def _mlp_head(h: ad.Tensor, params, prefix: str, hidden: tuple[int, ...], rate, rng) -> ad.Tensor:
    n_layers = len(hidden) + 1
    for i in range(n_layers):
        h = ad.add(ad.matmul(h, params[f"{prefix}.w{i}"]), params[f"{prefix}.b{i}"])
        if i < n_layers - 1:
            h = _dropout(ad.relu(h), rate, rng)
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
    window_len, n_channels): flat families see each window flattened time
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
    if x.ndim != 3 or x.shape[1:] != (spec.window_len, spec.n_channels):
        raise ShapeError(
            f"{spec.family} decoder takes (n, {spec.window_len}, {spec.n_channels}) "
            f"window stacks, got shape {x.shape}"
        )
    return x.reshape(len(x), spec.flat_dim) if spec.family in FLAT_FAMILIES else x


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

    def _body(self, p, x: np.ndarray, rng) -> ad.Tensor:
        """The family's body output, one row per window."""
        spec = self.spec
        if spec.family == "linear":
            return ad.constant(x)
        if spec.family == "ffnn":
            h = ad.constant(x)
            for i in range(len(spec.ffnn_hidden)):
                h = _dropout(ad.relu(ad.add(ad.matmul(h, p[f"body.w{i}"]), p[f"body.b{i}"])), spec.dropout, rng)
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
        if spec.use_positional:
            tok = ad.add(tok, ad.constant(positional_encoding(x3d.shape[1], e)))
        for blk in range(spec.n_blocks):
            q = ad.add(ad.matmul(tok, p[f"body.blk{blk}.wq"]), p[f"body.blk{blk}.qb"])
            k = ad.add(ad.matmul(tok, p[f"body.blk{blk}.wk"]), p[f"body.blk{blk}.kb"])
            v = ad.add(ad.matmul(tok, p[f"body.blk{blk}.wv"]), p[f"body.blk{blk}.vb"])
            heads = []
            for hi in range(spec.n_heads):
                lo, hi_end = hi * dh, (hi + 1) * dh
                qh = ad.narrow(q, 2, lo, hi_end)
                kh = ad.narrow(k, 2, lo, hi_end)
                vh = ad.narrow(v, 2, lo, hi_end)
                scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / math.sqrt(dh))
                heads.append(ad.matmul(ad.softmax(scores, axis=2), vh))
            tok = ad.add(ad.matmul(ad.concat(heads, axis=2), p[f"body.blk{blk}.wo"]), p[f"body.blk{blk}.ob"])
        z = ad.relu(ad.conv1d(tok, p["body.conv_w"], p["body.conv_b"]))
        return ad.mean(z, axis=1)

    def _head(self, p, h: ad.Tensor, rng) -> ad.Tensor:
        """The ``head.*`` dense stack on body rows; the sequence families
        first apply dropout to those rows."""
        spec = self.spec
        if spec.family in FLAT_FAMILIES:
            return _mlp_head(h, p, "head", (), 0.0, None)
        return _mlp_head(_dropout(h, spec.dropout, rng), p, "head", spec.head_hidden, spec.dropout, rng)

    def _forward(self, params: dict[str, ad.Tensor], x, rng=None) -> ad.Tensor:
        """The family's batch output (n, 1) from the parameter tensors
        ``params``: the head applied to the body, or to ``x`` itself when it
        holds body rows. A graph back to the parameters when they need a
        gradient, a bare tensor when they are constants."""
        h = ad.constant(x.rows) if isinstance(x, BodyRows) else self._body(params, x, rng)
        return self._head(params, h, rng)

    def _constants(self) -> dict[str, ad.Tensor]:
        return {n: ad.constant(t.data) for n, t in self.params.items()}

    def body_rows(self, x: np.ndarray) -> "BodyRows":
        """The body's output for a window stack, run once on constant views
        of the parameters as at inference (so no ``ffnn`` body dropout).
        :meth:`loss_batch` and :meth:`predict_batch` take the result in
        place of the stack and run only the head."""
        if isinstance(x, BodyRows):
            raise ShapeError("body_rows takes a window stack, not body rows")
        return BodyRows(self._body(self._constants(), _window_input(self.spec, x), None).data)

    def loss_batch(self, x, y: np.ndarray, train_rng=None) -> ad.Tensor:
        out = self._forward(self.params, _window_input(self.spec, x), rng=train_rng)
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


def fit_forest_decoder(spec: DecoderSpec, x: np.ndarray, y: np.ndarray, seed: int | None = None) -> Decoder:
    fspec = ForestSpec(
        n_trees=spec.n_trees,
        max_depth=spec.max_depth,
        seed=spec.seed if seed is None else seed,
    )
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
    """The decoder's named arrays in file order: its parameters, or each
    tree's node arrays for the forest."""
    if decoder.spec.family != "random_forest":
        return [(n, t.data) for n, t in decoder.param_items()]
    if decoder.forest is None:
        raise SpecMismatchError("cannot save an unfitted random_forest decoder")
    return [
        (f"tree{i}.{field}", getattr(tree, field))
        for i, tree in enumerate(decoder.forest.trees)
        for field in _TREE_FIELDS
    ]


# decoder arrays are stored as float32 (node indices as int32); extras (e.g.
# normalizer statistics) keep their native precision so reload-and-evaluate
# is bitwise faithful
_DTYPE_CODES = {0: "<f4", 1: "<f8", 2: "<i8", 3: "<i4"}
_CODE_OF = {np.dtype(dt): code for code, dt in _DTYPE_CODES.items()}


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    if arr.dtype not in _CODE_OF:
        raise ValueError(f"unsupported array dtype {arr.dtype}")
    nb = name.encode("utf-8")
    parts = [struct.pack("<H", len(nb)), nb, struct.pack("<BB", arr.ndim, _CODE_OF[arr.dtype])]
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise ModelLoadError(f"{self.path}: truncated model file")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _spec_to_json(spec: DecoderSpec) -> dict:
    d = asdict(spec)
    d["ffnn_hidden"] = list(spec.ffnn_hidden)
    d["head_hidden"] = list(spec.head_hidden)
    return d


def _spec_from_json(d: dict) -> DecoderSpec:
    d = dict(d)
    d["ffnn_hidden"] = tuple(d["ffnn_hidden"])
    d["head_hidden"] = tuple(d["head_hidden"])
    return DecoderSpec(**d)


def save_state(decoder: Decoder, path, extras: dict[str, np.ndarray] | None = None, meta: dict | None = None) -> None:
    """Serialize a decoder (plus optional named extra arrays such as
    normalizer statistics) to the binary model format."""
    header = json.dumps({"spec": _spec_to_json(decoder.spec), "meta": meta or {}}, sort_keys=True).encode("utf-8")
    arrays = [(n, a.astype(np.float32) if a.dtype == np.float64 else a) for n, a in _stored_arrays(decoder)]
    arrays += [(f"extra.{n}", extras[n]) for n in sorted(extras or {})]
    chunks = [MODEL_MAGIC, struct.pack("<II", MODEL_VERSION, len(header)), header]
    chunks.append(struct.pack("<I", len(arrays)))
    chunks.extend(_pack_tensor(n, a) for n, a in arrays)
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _read_tensor(r: _Reader) -> tuple[str, np.ndarray]:
    (name_len,) = r.unpack("<H")
    name = r.take(name_len).decode("utf-8")
    ndim, code = r.unpack("<BB")
    if code not in _DTYPE_CODES:
        raise ModelLoadError(f"{r.path}: unknown tensor dtype code {code}")
    shape = r.unpack(f"<{ndim}I") if ndim else ()
    count = int(np.prod(shape)) if shape else 1
    dt = np.dtype(_DTYPE_CODES[code])
    arr = np.frombuffer(r.take(count * dt.itemsize), dtype=dt).reshape(shape)
    if code == 0:
        return name, arr.astype(np.float64)
    return name, arr.copy()


def _forest_from_arrays(spec: DecoderSpec, arrays: dict[str, np.ndarray], path) -> Decoder:
    """The forest whose ``spec.n_trees`` trees were stored as named node
    arrays, each cast back to its fitted dtype."""
    if set(arrays) != {f"tree{i}.{field}" for i in range(spec.n_trees) for field in _TREE_FIELDS}:
        raise ModelLoadError(f"{path}: stored trees do not match n_trees={spec.n_trees}")
    trees = tuple(
        Tree(**{field: arrays[f"tree{i}.{field}"].astype(dt) for field, dt in _TREE_FIELDS.items()})
        for i in range(spec.n_trees)
    )
    fspec = ForestSpec(n_trees=spec.n_trees, max_depth=spec.max_depth, seed=spec.seed)
    return Decoder(spec, forest_model=Forest(fspec, spec.flat_dim, trees))


def load_state(path):
    """Read a model file back: (decoder, extras, meta)."""
    r = _Reader(Path(path).read_bytes(), path)
    if r.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise ModelLoadError(f"{path}: bad magic, not a model file")
    version, header_len = r.unpack("<II")
    if version != MODEL_VERSION:
        raise ModelLoadError(f"{path}: unsupported model version {version}")
    try:
        header = json.loads(r.take(header_len).decode("utf-8"))
        spec = _spec_from_json(header["spec"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelLoadError(f"{path}: corrupt header ({exc})")
    (n_arrays,) = r.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    extras: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        name, arr = _read_tensor(r)
        if name.startswith("extra."):
            extras[name[len("extra.") :]] = arr
        else:
            arrays[name] = arr
    if spec.family == "random_forest":
        decoder = _forest_from_arrays(spec, arrays, path)
    else:
        decoder = Decoder(spec)
        decoder.load_arrays(arrays)
    return decoder, extras, header.get("meta", {})


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
    x = rng.standard_normal((n_windows, spec.window_len, spec.n_channels))
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
