"""Dense-tensor reverse-mode automatic differentiation.

A ``Tape`` records every op executed while it is active (thread-local);
``Tape.backward`` walks the record in reverse and accumulates adjoints
into every tensor that requires gradients.  Ops are plain functions over
``Tensor`` values backed by numpy arrays.  Broadcasting is limited to
bias-style row/column addition so every adjoint stays a one-liner.
``matmul`` is the 2-D product; ``bmm`` multiplies stacks of matrices,
and ``reshape``/``swapaxes`` move a batch between the two layouts.
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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
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

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def sum(self, axis=None):
        return sum_(self, axis)

    def mean(self, axis=None):
        return mean(self, axis)

    @property
    def T(self):
        return transpose(self)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def param(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


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

    def clear(self):
        self.entries.clear()

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
                if inp.grad is None:
                    inp.grad = np.zeros_like(inp.data)
                inp.grad += g


def _active_tape() -> Tape | None:
    stack = getattr(_tls, "tapes", None)
    return stack[-1] if stack else None


def backward(loss: Tensor) -> None:
    """Backward on the currently active tape."""
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("no active tape; run the forward pass inside `with Tape():`")
    tape.backward(loss)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _check_finite and not np.all(np.isfinite(out_data)):
        raise NonFinite("op produced non-finite values")
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs), dtype=out_data.dtype)
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


def bmm(a, b) -> Tensor:
    """Batched product (..., n, k) @ (..., k, m) over equal leading axes."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 3 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"bmm of {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


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
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = xhat * gain.data + bias.data
    gain_data, bias_shape, gain_shape = gain.data, bias.shape, gain.shape

    def backward_fn(g):
        dxhat = g * gain_data
        dx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        dgain = _reduce_to(g * xhat, gain_shape)
        dbias = _reduce_to(g, bias_shape)
        return dx, dgain, dbias

    return _emit(out, (x, gain, bias), backward_fn)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x) -> Tensor:
    x = _wrap(x)
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def backward_fn(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * xd**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t**2) * d_inner),)

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


def dropout(x, p: float, rng) -> Tensor:
    """Inverted dropout.

    ``rng`` is one generator, or a list of generators that draw the mask
    of equal consecutive blocks of the leading axis in turn, so each
    sequence of a batch keeps its own stream.
    """
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return _emit(x.data.copy(), (x,), lambda g: (g,))
    if isinstance(rng, np.random.Generator):
        draws = rng.random(x.shape)
    else:
        if x.data.ndim == 0 or not rng or x.shape[0] % len(rng):
            raise ShapeMismatch(f"cannot split dropout of shape {x.shape} into {len(rng)} blocks")
        block = (x.shape[0] // len(rng),) + x.shape[1:]
        draws = np.concatenate([gen.random(block) for gen in rng])
    mask = (draws >= p) / (1.0 - p)
    return _emit(x.data * mask, (x,), lambda g: (g * mask,))


class ParamStore:
    """Named parameters plus Adam first/second-moment state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, data, dtype=None) -> Tensor:
        if name in self.params:
            raise KeyError(f"duplicate parameter name {name!r}")
        t = param(data, dtype=dtype)
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
