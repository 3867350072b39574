"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

Define-by-run: each operation allocates a fresh output node. Only a node that
needs a gradient (``requires_grad``: a parameter, or any op with such a
parent) records its parents and a backward closure; an op on constants alone
returns a bare tensor, so inference on constant views of the parameters
builds no graph and keeps none of the ops' saved arrays alive. ``backward``
seeds the scalar loss with gradient one and walks the recorded graph once in
reverse topological order, accumulating into ``Tensor.grad`` of the nodes
that need a gradient and skipping every other gradient expression. No
operation mutates its inputs.

Storage and accumulation are float64 throughout so central finite differences
with h around 1e-5 remain meaningful for gradient verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


class Tensor:
    """Graph node: a float64 array plus gradient slot and provenance."""

    __slots__ = ("data", "grad", "parents", "backward_fn", "name", "requires_grad")

    def __init__(self, data, name: str | None = None, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.backward_fn = None
        self.name = name
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def parameter(data, name: str) -> Tensor:
    """A trainable leaf. Copies its input so later graph ops cannot alias it."""
    return Tensor(np.array(data, dtype=np.float64), name=name, requires_grad=True)


def constant(data) -> Tensor:
    """A leaf that needs no gradient; a float64 array is wrapped, not copied."""
    return Tensor(data)


def _node(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = tuple(parents)
        out.backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # The first gradient is stored as is and may alias another node's: safe
    # only while no op, optimizer or trainer step updates a .grad in place.
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        _accum(a, g * c)

    return _node(a.data * c, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading (stack) axes broadcast."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(data, (a, b), backward_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected at least 2-d, got shape {a.data.shape}")

    def backward_fn(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _node(np.swapaxes(a.data, -1, -2).copy(), (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward_fn(g):
        _accum(a, g * (1.0 - data * data))

    return _node(data, (a,), backward_fn)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function computed via the tanh identity for stability:
    0.5 * (tanh(0.5 * z) + 1), evaluated in place in ``out`` (which may be
    ``z``) or in one new array."""
    s = np.multiply(z, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

    def backward_fn(g):
        _accum(a, g * data * (1.0 - data))

    return _node(data, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward_fn(g):
        _accum(a, g * mask)

    return _node(a.data * mask, (a,), backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax; the row maximum is subtracted before exp."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(a, data * (g - dot))

    return _node(data, (a,), backward_fn)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty input list")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if not p.requires_grad:
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _node(data, tuple(parts), backward_fn)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis."""
    n = a.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"narrow: slice [{start}:{stop}) outside axis of length {n}")
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        _accum(a, full)

    return _node(a.data[sl].copy(), (a,), backward_fn)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.mean(axis=axis)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g / count, a.data.shape).copy())

    return _node(data, (a,), backward_fn)


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid 1-d convolution over axis -2; leading axes of x are a stack.

    x: (..., T, C_in), w: (K, C_in, C_out), b: (C_out,) -> (..., T - K + 1, C_out).
    """
    if x.data.ndim < 2 or w.data.ndim != 3 or x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"conv1d: incompatible shapes {x.data.shape} and {w.data.shape}")
    *stack, t, c_in = x.data.shape
    k, _, c_out = w.data.shape
    if t < k:
        raise ShapeError(f"conv1d: input length {t} shorter than kernel {k}")
    length = t - k + 1
    data = np.zeros((*stack, length, c_out))
    for i in range(k):
        data += x.data[..., i : i + length, :] @ w.data[i]
    data = data + b.data

    def backward_fn(g):
        g_rows = g.reshape(-1, c_out)
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for i in range(k):
                gx[..., i : i + length, :] += g @ w.data[i].T
            _accum(x, gx)
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            for i in range(k):
                gw[i] = x.data[..., i : i + length, :].reshape(-1, c_in).T @ g_rows
            _accum(w, gw)
        if b.requires_grad:
            _accum(b, g_rows.sum(axis=0))

    return _node(data, (x, w, b), backward_fn)


def lstm_sequence(x: np.ndarray, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Final hidden state (N, H) of a one-layer LSTM run from zero state over
    data ``x`` (N, T, C); gates [input, forget, cell, output] are packed
    along the 4H columns of wx (C, 4H), wh (H, 4H) and b (4H,).

    One node with hand-written backpropagation through time in place of the
    ~15 matmul/add/narrow/sigmoid/tanh/mul nodes per step. A step makes one
    sigmoid call over all 4H gate columns (the cell columns' sigmoid goes
    unused) and one tanh call over the cell columns, and reads the input,
    forget and output gates as column views: at a batch of one, the number
    of numpy calls, not arithmetic, sets the cost. Backward writes the
    gates' upstream gradients into one (N, 4H) buffer, applies the sigmoid
    derivative over its full width, then overwrites the cell columns with
    the tanh derivative.

    The layout changes no bit. Every element goes through the composite
    graph's float operations in the same association order; sums and
    products round exactly whatever the memory layout, and numpy's tanh
    gives the same bits on a packed row as on a copied gate slice. Each
    weight's gradient is summed over the steps, last step first as the
    composite graph accumulates it, and accumulated once. So values and
    gradients are bitwise the composite graph's whenever wx, wh and b enter
    the backward pass without a gradient, as after ``zero_grads``;
    ``test_lstm_sequence_matches_the_composite_graph_bitwise`` pins this at
    the shapes the decoders run. The steps' activations are saved for that
    backward pass only when wx, wh or b needs a gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    hdim = wh.data.shape[0]
    shapes = (wx.data.shape, wh.data.shape, b.data.shape)
    if x.ndim != 3 or shapes != ((x.shape[2], 4 * hdim), (hdim, 4 * hdim), (4 * hdim,)):
        raise ShapeError(f"lstm_sequence: incompatible shapes x {x.shape} and wx, wh, b {shapes}")
    n, t_len, _ = x.shape
    i_cols, f_cols = slice(0, hdim), slice(hdim, 2 * hdim)
    g_cols, o_cols = slice(2 * hdim, 3 * hdim), slice(3 * hdim, 4 * hdim)
    h = np.zeros((n, hdim))
    c = np.zeros((n, hdim))
    steps = []
    keep_steps = wx.requires_grad or wh.requires_grad or b.requires_grad
    for t in range(t_len):
        gates = x[:, t, :] @ wx.data
        gates += h @ wh.data
        gates += b.data
        g_g = np.tanh(gates[:, g_cols])
        sig = _sigmoid(gates, out=gates)
        c_prev, h_prev = c, h
        c = sig[:, f_cols] * c_prev
        c += sig[:, i_cols] * g_g
        tc = np.tanh(c)
        h = sig[:, o_cols] * tc
        if keep_steps:
            steps.append((h_prev, c_prev, sig, g_g, tc))
        del gates, sig  # free for the next step's gates, unless saved

    def backward_fn(gh):
        dc_next = None
        gwx = gwh = gb = None
        for t in range(t_len - 1, -1, -1):
            h_prev, c_prev, sig, g_g, tc = steps[t]
            dc = gh * sig[:, o_cols] * (1.0 - tc * tc)
            if dc_next is not None:
                dc += dc_next
            dc_next = dc * sig[:, f_cols]
            # upstream gradients of the activations, then their derivatives
            dgates = np.empty((n, 4 * hdim))
            np.multiply(dc, g_g, out=dgates[:, i_cols])
            np.multiply(dc, c_prev, out=dgates[:, f_cols])
            np.multiply(dc, sig[:, i_cols], out=dgates[:, g_cols])
            np.multiply(gh, tc, out=dgates[:, o_cols])
            d_cell = dgates[:, g_cols] * (1.0 - g_g * g_g)
            dgates *= sig
            dgates *= 1.0 - sig
            dgates[:, g_cols] = d_cell
            if b.requires_grad:
                gb_t = _unbroadcast(dgates, b.data.shape)
                gb = gb_t if gb is None else gb + gb_t
            if wx.requires_grad:
                gwx_t = x[:, t, :].T @ dgates
                gwx = gwx_t if gwx is None else gwx + gwx_t
            if wh.requires_grad:
                gwh_t = h_prev.T @ dgates
                gwh = gwh_t if gwh is None else gwh + gwh_t
            if t > 0:
                gh = dgates @ wh.data.T
        for w, gw in ((wx, gwx), (wh, gwh), (b, gb)):
            if gw is not None:
                _accum(w, gw)

    return _node(h, (wx, wh, b), backward_fn)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, reduced over all elements."""
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse: incompatible shapes {pred.data.shape} and {target.data.shape}")
    diff = pred.data - target.data
    data = np.float64((diff * diff).mean())

    def backward_fn(g):
        gd = (2.0 / diff.size) * float(g) * diff
        if pred.requires_grad:
            _accum(pred, gd)
        if target.requires_grad:
            _accum(target, -gd)

    return _node(data, (pred, target), backward_fn)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def backward(loss: Tensor, params=()) -> None:
    """Reverse-mode sweep from a scalar loss.

    Populates ``grad`` on every node reachable from ``loss`` that needs a
    gradient; only those nodes recorded a graph, and constants are never
    filled. Any tensor in ``params`` that the graph never touched gets an
    explicit zero gradient.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


@dataclass(frozen=True)
class GradcheckEntry:
    name: str
    n_checked: int
    max_rel_err: float


@dataclass(frozen=True)
class GradcheckReport:
    entries: tuple[GradcheckEntry, ...]
    tolerance: float
    h: float

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def n_checked(self) -> int:
        return sum(e.n_checked for e in self.entries)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def gradcheck(
    build_loss,
    params: list[Tensor],
    *,
    n_samples: int = 50,
    h: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    ``build_loss`` must be a pure function of the current parameter values
    that rebuilds the scalar loss graph from scratch on every call. Sampled
    entries are drawn without replacement across the concatenated parameter
    space; relative error uses max(|analytic|, |numeric|, 1e-6) as the
    denominator so near-zero gradients do not blow up the ratio.
    """
    loss = build_loss()
    zero_grads(params)
    backward(loss, params)
    analytic = [p.grad.copy() for p in params]

    sizes = np.array([p.data.size for p in params])
    total = int(sizes.sum())
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_samples, total), replace=False)

    worst = [0.0] * len(params)
    counts = [0] * len(params)
    for flat in sorted(int(v) for v in picks):
        pi = int(np.searchsorted(bounds, flat, side="right")) - 1
        j = flat - bounds[pi]
        p = params[pi]
        orig = p.data.flat[j]
        p.data.flat[j] = orig + h
        f_plus = float(build_loss().data)
        p.data.flat[j] = orig - h
        f_minus = float(build_loss().data)
        p.data.flat[j] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        ana = float(analytic[pi].flat[j])
        rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-6)
        worst[pi] = max(worst[pi], rel)
        counts[pi] += 1

    entries = tuple(
        GradcheckEntry(p.name or f"param{i}", counts[i], worst[i])
        for i, p in enumerate(params)
        if counts[i] > 0
    )
    return GradcheckReport(entries=entries, tolerance=tolerance, h=h)
