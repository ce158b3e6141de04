"""Dense-tensor reverse-mode automatic differentiation.

A ``Tape`` records every op executed while it is active (thread-local);
``Tape.backward`` walks the record in reverse and accumulates adjoints
into every tensor that requires gradients.  Ops are plain functions over
``Tensor`` values backed by numpy arrays.  Broadcasting is limited to
bias-style row/column addition so every adjoint stays a one-liner.
``matmul`` is the 2-D product and ``linear`` the 2-D product plus a row
bias; ``attention`` is multi-head softmax attention over the rows of a
batch of sequences as one op, with a hand-written adjoint.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import NonFinite, NotScalar, ShapeMismatch

DEFAULT_DTYPE = np.float64

_tls = threading.local()
_check_finite = False


def set_check_finite(enabled: bool) -> None:
    """Globally toggle NaN/inf detection on op outputs."""
    global _check_finite
    _check_finite = bool(enabled)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class Tape:
    """Ordered record of executed ops; one consumer, reverse playback."""

    def __init__(self):
        self.entries = []

    def __enter__(self):
        stack = getattr(_tls, "tapes", None)
        if stack is None:
            stack = _tls.tapes = []
        stack.append(self)
        return self

    def __exit__(self, *exc):
        _tls.tapes.pop()
        return False

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(x) into grads of all recorded tensors."""
        if loss.size != 1:
            raise NotScalar(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, inputs, backward_fn in reversed(self.entries):
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            # an op output's adjoint is complete once its op has consumed it
            out.grad = None
            for inp, g in zip(inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                # the first adjoint is adopted as it is and later ones are
                # added out of place: an op may hand one array to several
                # inputs (``add`` does), so no adjoint is ever written to
                inp.grad = g if inp.grad is None else inp.grad + g


def _active_tape() -> Tape | None:
    stack = getattr(_tls, "tapes", None)
    return stack[-1] if stack else None


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _check_finite and not np.all(np.isfinite(out_data)):
        raise NonFinite("op produced non-finite values")
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.entries.append((out, inputs, backward_fn))
    return out


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (undo row/column bias broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if g.shape != shape:
        raise ShapeMismatch(f"cannot reduce grad of shape {g.shape} to {shape}")
    return g


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul of {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def linear(x, w, b) -> Tensor:
    """Rows of x (n, k) times w (k, m) plus the row bias b (m,), as one op."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatch(f"linear of {x.shape} by {w.shape} plus {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    return _emit(out, (x, w, b), lambda g: (g @ wd.T, xd.T @ g, g.sum(axis=0)))


def attention(q, k, v, batch: int, heads: int, scale: float, p: float = 0.0, gens=None) -> Tensor:
    """Multi-head softmax attention over (batch * n, d_model) rows.

    Rows are ``batch`` sequences of n tokens; each head attends within its
    sequence over its d_model / heads columns: softmax(scale * q kᵀ),
    inverted dropout at rate ``p``, times v, heads merged back into
    columns.  With ``p > 0``, ``gens`` holds one generator per (sequence,
    head), sequence-major, and each draws its (n, n) mask in turn.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeMismatch(f"attention of {q.shape}, {k.shape} and {v.shape}")
    rows, width = q.shape
    if batch < 1 or heads < 1 or rows % batch or width % heads:
        raise ShapeMismatch(f"attention of {q.shape} as {batch} sequences with {heads} heads")
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    n, dh = rows // batch, width // heads

    def split(x):  # (batch * n, d_model) -> (batch, heads, n, dh)
        return np.ascontiguousarray(x.reshape(batch, n, heads, dh).swapaxes(1, 2))

    def merge(x):  # (batch, heads, n, dh) -> (batch * n, d_model)
        return x.swapaxes(1, 2).reshape(rows, width)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = qh @ kh.swapaxes(-1, -2)
    s *= scale
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    mask = None
    if p > 0.0:
        if gens is None or len(gens) != batch * heads:
            raise ShapeMismatch(f"attention dropout needs {batch * heads} generators")
        draws = np.concatenate([gen.random((n, n)) for gen in gens]).reshape(s.shape)
        mask = (draws >= p) / (1.0 - p)
    att = s if mask is None else s * mask

    def backward_fn(g):
        gh = split(g)
        d_att = gh @ vh.swapaxes(-1, -2)
        dv = att.swapaxes(-1, -2) @ gh
        if mask is not None:
            d_att *= mask
        # softmax adjoint, then the score scale
        d_s = d_att * s
        d_att -= d_s.sum(axis=-1, keepdims=True)
        d_att *= s
        d_att *= scale
        dq = d_att @ kh
        dk = (qh.swapaxes(-1, -2) @ d_att).swapaxes(-1, -2)
        return merge(dq), merge(dk), merge(dv)

    return _emit(merge(att @ vh), (q, k, v), backward_fn)


def _binary_shapes_ok(a: Tensor, b: Tensor) -> bool:
    try:
        out_shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        return False
    return out_shape == a.shape or out_shape == b.shape


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatch(f"add of {a.shape} and {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    return _emit(a.data + b.data, (a, b), lambda g: (_reduce_to(g, a_shape), _reduce_to(g, b_shape)))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatch(f"sub of {a.shape} and {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    return _emit(a.data - b.data, (a, b), lambda g: (_reduce_to(g, a_shape), _reduce_to(-g, b_shape)))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatch(f"mul of {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    a_shape, b_shape = a.shape, b.shape
    return _emit(ad * bd, (a, b), lambda g: (_reduce_to(g * bd, a_shape), _reduce_to(g * ad, b_shape)))


def scale(a, c: float) -> Tensor:
    a = _wrap(a)
    c = float(c)
    return _emit(a.data * c, (a,), lambda g: (g * c,))


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose expects a matrix, got shape {a.shape}")
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    a_shape = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatch(f"cannot reshape {a_shape} to {shape}") from None
    return _emit(out, (a,), lambda g: (g.reshape(a_shape),))


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = _wrap(a)
    return _emit(a.data.swapaxes(axis1, axis2), (a,), lambda g: (g.swapaxes(axis1, axis2),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return grads

    return _emit(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward_fn)


def slice_(a, key) -> Tensor:
    """Static slice, or a gather of distinct indices; the adjoint scatters
    back into a zero buffer."""
    a = _wrap(a)
    a_shape = a.shape

    def backward_fn(g):
        buf = np.zeros(a_shape, dtype=g.dtype)
        buf[key] = g
        return (buf,)

    return _emit(a.data[key].copy(), (a,), backward_fn)


def embedding_lookup(table, ids) -> Tensor:
    """Gather columns of a (d, V) table at integer ids -> (d, len(ids))."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeMismatch(f"ids must be 1-D, got shape {ids.shape}")
    t_shape = table.shape

    def backward_fn(g):
        buf = np.zeros(t_shape, dtype=g.dtype)
        np.add.at(buf, (slice(None), ids), g)
        return (buf,)

    return _emit(table.data[:, ids].copy(), (table,), backward_fn)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    return _emit(s, (a,), lambda g: (s * (g - (g * s).sum(axis=axis, keepdims=True)),))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    s = np.exp(out)
    return _emit(out, (a,), lambda g: (g - s * g.sum(axis=axis, keepdims=True),))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    xd = x.data
    xhat = xd - xd.mean(axis=-1, keepdims=True)
    # the biased variance, summed as np.var sums it
    inv_std = np.square(xhat).sum(axis=-1, keepdims=True)
    inv_std /= xd.shape[-1]
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data
    gain_data, bias_shape, gain_shape = gain.data, bias.shape, gain.shape

    def backward_fn(g):
        dgain = _reduce_to(g * xhat, gain_shape)
        dbias = _reduce_to(g, bias_shape)
        dx = g * gain_data
        proj = dx * xhat
        proj = np.multiply(xhat, proj.mean(axis=-1, keepdims=True), out=proj)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= proj
        dx *= inv_std
        return dx, dgain, dbias

    return _emit(out, (x, gain, bias), backward_fn)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x) -> Tensor:
    """Tanh-approximate GELU: 0.5 x (1 + tanh(c (x + 0.044715 x³)))."""
    x = _wrap(x)
    xd = x.data
    t = xd * xd
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= xd
    out *= 0.5

    def backward_fn(g):
        # 0.5 (1 + t) + 0.5 x (1 - t²) c (1 + 3 · 0.044715 x²), times g
        d_inner = xd * xd
        d_inner *= 3 * 0.044715
        d_inner += 1.0
        d_inner *= _GELU_C
        dx = t * t
        np.subtract(1.0, dx, out=dx)
        dx *= 0.5 * xd
        dx *= d_inner
        half = t + 1.0
        half *= 0.5
        dx += half
        dx *= g
        return (dx,)

    return _emit(out, (x,), backward_fn)


def relu(x) -> Tensor:
    x = _wrap(x)
    mask = x.data > 0
    return _emit(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def mean(a, axis=None) -> Tensor:
    a = _wrap(a)
    a_shape = a.shape
    count = a.size if axis is None else a.shape[axis]

    def backward_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a_shape) / count,)

    return _emit(np.mean(a.data, axis=axis), (a,), backward_fn)


def sum_(a, axis=None) -> Tensor:
    a = _wrap(a)
    a_shape = a.shape

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, a_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a_shape).copy(),)

    return _emit(np.sum(a.data, axis=axis), (a,), backward_fn)


def mse_loss(pred, target) -> Tensor:
    pred, target = _wrap(pred), _wrap(target)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"mse_loss of {pred.shape} and {target.shape}")
    diff = pred.data - target.data
    n = diff.size
    return _emit(
        np.asarray(np.mean(diff**2)),
        (pred, target),
        lambda g: (g * 2.0 * diff / n, g * -2.0 * diff / n),
    )


def cross_entropy_loss(logits, targets, weights=None) -> Tensor:
    """Negative log-likelihood over rows of (n, V) logits.

    The mean over rows, or with per-row ``weights`` the weighted sum.
    """
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeMismatch(f"cross_entropy_loss of {logits.shape} with targets {targets.shape}")
    n = logits.shape[0]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ShapeMismatch(f"cross_entropy_loss weights of shape {weights.shape} for {n} rows")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = log_z[np.arange(n), targets]
    nll = -picked.mean() if weights is None else -(weights * picked).sum()

    def backward_fn(g):
        grad = np.exp(log_z)
        grad[np.arange(n), targets] -= 1.0
        return (g * grad / n,) if weights is None else (g * grad * weights[:, None],)

    return _emit(np.asarray(nll), (logits,), backward_fn)


def dropout(x, p: float, gens) -> Tensor:
    """Inverted dropout.

    ``gens`` is a list of generators that draw the mask of equal
    consecutive blocks of the leading axis in turn, so each sequence of
    a batch keeps its own stream.
    """
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    if x.data.ndim == 0 or not gens or x.shape[0] % len(gens):
        raise ShapeMismatch(f"cannot split dropout of shape {x.shape} into {len(gens)} blocks")
    block = (x.shape[0] // len(gens),) + x.shape[1:]
    draws = np.concatenate([gen.random(block) for gen in gens])
    mask = (draws >= p) / (1.0 - p)
    return _emit(x.data * mask, (x,), lambda g: (g * mask,))


class ParamStore:
    """Named parameters plus Adam first/second-moment state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, data) -> Tensor:
        if name in self.params:
            raise KeyError(f"duplicate parameter name {name!r}")
        t = param(data)
        self.params[name] = t
        self.moment1[name] = np.zeros_like(t.data)
        self.moment2[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None


def adam_step(
    store: ParamStore,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update; gradients are cleared afterward."""
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in store.params.items():
        if p.grad is None:
            continue
        m = store.moment1[name]
        v = store.moment2[name]
        m *= beta1
        m += (1.0 - beta1) * p.grad
        v *= beta2
        v += (1.0 - beta2) * p.grad**2
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    store.zero_grad()
