"""Dense-tensor reverse-mode automatic differentiation.

A ``Tape`` records every op run while it is the innermost open tape;
``Tape.backward`` consumes the record in reverse and accumulates adjoints
into every tensor that requires gradients.  Ops are plain functions of
``Tensor`` inputs backed by numpy arrays.  A tape entry holds the
gradient slots of the op's output and inputs, not the tensors, so an
output's array lives only while a caller or some adjoint holds it.
Broadcasting is limited to bias-style row/column addition so every
adjoint stays a one-liner.
``matmul`` is the 2-D product and ``linear`` the 2-D product plus a row
bias; ``attention`` is multi-head softmax attention over the rows of a
batch of sequences as one op, with a hand-written adjoint that rebuilds
the softmax from row statistics, and ``feed_forward`` is a transformer
feed-forward block as one op, whose adjoint rebuilds its activation from
the pre-activation.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .errors import NotScalar, ShapeMismatch

# glibc's M_TOP_PAD: the heap keeps this much free memory at its top
# through every trim, so the pages a training step frees stay mapped for
# the next step instead of coming back as fresh zeroed pages, and a large
# array is cut from that top before malloc considers mmap for it.  Minor
# faults a step, median (mean) over the benchmark's timed steps (seed 11,
# 6 s runs): a criterion-9 step (gauss-l16) takes 0 (25) at 2 MiB and
# 0 (1) from 16 MiB up; a masked step on lines of up to 128 tokens
# (masked-varlen) takes 666 (2,749) at 2 MiB, 0 (945) at 8 MiB, 0 (37) at
# 32 MiB and 0 (0) at 64 MiB, the smallest power of two at which it takes
# none.  The pad only holds pages a step has touched.
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20

# Scores (sequences x heads x n x n) attention works on at once, in the
# forward pass and in the adjoint: 1 MiB of float64 per temporary, so a
# criterion-9 batch (8 x 2 x 32²) is one block and a 128-token line
# (N = 256) is one per block.
_ATTENTION_BLOCK = 1 << 17


def _retain_heap() -> bool:
    """Set the heap's top pad; False where glibc's mallopt is missing."""
    try:
        return bool(ctypes.CDLL("libc.so.6").mallopt(_M_TOP_PAD, _TOP_PAD_BYTES))
    except (OSError, AttributeError):
        return False


HEAP_RETAINED = _retain_heap()


class Slot:
    """A tensor's gradient slot: all a tape entry keeps of a tensor."""

    __slots__ = ("requires_grad", "grad")

    def __init__(self, requires_grad: bool):
        self.requires_grad = requires_grad
        self.grad = None


class Tensor:
    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = Slot(requires_grad)

    @property
    def requires_grad(self):
        return self.slot.requires_grad

    @property
    def grad(self):
        return self.slot.grad

    @grad.setter
    def grad(self, value):
        self.slot.grad = value

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


class Tape:
    """Ordered record of executed ops; one consumer, reverse playback."""

    def __init__(self):
        self.entries = []

    def __enter__(self):
        _tapes.append(self)
        return self

    def __exit__(self, *exc):
        _tapes.pop()

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(x) into grads of all recorded tensors."""
        if loss.size != 1:
            raise NotScalar(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        entries = self.entries
        # playback consumes the record of (output slot, input slots,
        # adjoint) entries: an entry, with the arrays its adjoint saved,
        # is freed as soon as that adjoint is handed on
        while entries:
            out, inputs, backward_fn = entries.pop()
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


# open tapes, innermost last; an op is recorded on the last one only
_tapes: list[Tape] = []


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad and _tapes:
        _tapes[-1].entries.append((out.slot, tuple(t.slot for t in inputs), backward_fn))
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
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul of {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def backward_fn(g):  # no product for an input that takes no gradient
        return (g @ bd.T if a.requires_grad else None, ad.T @ g if b.requires_grad else None)

    return _emit(ad @ bd, (a, b), backward_fn)


def linear(x, w, b) -> Tensor:
    """Rows of x (n, k) times w (k, m) plus the row bias b (m,), as one op."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatch(f"linear of {x.shape} by {w.shape} plus {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data

    def backward_fn(g):
        return (
            g @ wd.T if x.requires_grad else None,
            xd.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _emit(out, (x, w, b), backward_fn)


def feed_forward(x, w1, b1, w2, b2, p: float = 0.0, gens=None) -> Tensor:
    """``linear(dropout(gelu(linear(x, w1, b1)), p, gens), w2, b2)`` as one op.

    The forward pass runs exactly those four ops' operations in turn.
    Only the pre-activation ``u = x w1 + b1`` (and with ``p > 0`` the
    boolean keep mask) outlives the call: the adjoint rebuilds GELU's
    tanh and output from ``u`` by the same operations, so every gradient
    is bit for bit the unfused chain's, and it holds at most three
    arrays of u's shape at once.
    """
    if (
        x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
        or x.shape[1] != w1.shape[0] or w1.shape[1] != w2.shape[0]
        or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],)
    ):
        raise ShapeMismatch(f"feed_forward of {x.shape} by {w1.shape} plus {b1.shape}, then {w2.shape} plus {b2.shape}")
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    rows = x.shape[0]
    if p > 0.0 and (not gens or rows % len(gens)):
        raise ShapeMismatch(f"cannot split dropout of {rows} rows into {len(gens or ())} blocks")
    xd, w1d, w2d = x.data, w1.data, w2.data
    u = xd @ w1d
    u += b1.data
    t = _gelu_tanh(u)
    a = _gelu_out(u, t, out=t)
    keep = None
    if p > 0.0:
        keep = _dropout_mask(gens, (rows // len(gens), u.shape[1]), p)
        a *= keep / (1.0 - p)
    out = a @ w2d
    out += b2.data
    del t, a

    def backward_fn(g):
        # each buffer is dropped once used up, so at most three are alive
        t = _gelu_tanh(u)
        dw2 = None
        if w2.requires_grad:
            a = _gelu_out(u, t)
            if keep is not None:
                a *= keep / (1.0 - p)
            dw2 = a.T @ g
            del a
        du = _gelu_slope(u, t)
        del t
        da = g @ w2d.T
        if keep is not None:
            da *= keep / (1.0 - p)
        du *= da
        del da
        return (
            du @ w1d.T if x.requires_grad else None,
            xd.T @ du if w1.requires_grad else None,
            du.sum(axis=0) if b1.requires_grad else None,
            dw2,
            g.sum(axis=0) if b2.requires_grad else None,
        )

    return _emit(out, (x, w1, b1, w2, b2), backward_fn)


def attention(q, k, v, batch: int, heads: int, scale: float, p: float = 0.0, gens=None) -> Tensor:
    """Multi-head softmax attention over (batch * n, d_model) rows.

    Rows are ``batch`` sequences of n tokens; each head attends within its
    sequence over its d_model / heads columns: softmax(scale * q kᵀ),
    inverted dropout at rate ``p``, times v, heads merged back into
    columns.  With ``p > 0``, ``gens`` holds one generator per (sequence,
    head), sequence-major, and each draws its (n, n) mask in turn.
    """
    if q.data.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeMismatch(f"attention of {q.shape}, {k.shape} and {v.shape}")
    rows, width = q.shape
    if batch < 1 or heads < 1 or rows % batch or width % heads:
        raise ShapeMismatch(f"attention of {q.shape} as {batch} sequences with {heads} heads")
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    if p > 0.0 and (gens is None or len(gens) != batch * heads):
        raise ShapeMismatch(f"attention dropout needs {batch * heads} generators")
    n, dh = rows // batch, width // heads

    def view(x):  # (batch * n, d_model) -> (batch, heads, n, dh), a view of the rows
        return np.ascontiguousarray(x).reshape(batch, n, heads, dh).swapaxes(1, 2)

    def split(x):  # the same heads, copied
        return np.ascontiguousarray(view(x))

    def merge(x):  # (batch, heads, n, dh) -> (batch * n, d_model)
        return x.swapaxes(1, 2).reshape(rows, width)

    # only each row's max and sum (and the dropout masks, as booleans)
    # outlive this call: the backward pass takes the heads of q, k and v
    # from the inputs' arrays again and rebuilds each block's softmax
    row_max = np.empty((batch, heads, n, 1))
    row_sum = np.empty((batch, heads, n, 1))

    def block_softmax(qh, kh, blk, fresh):
        s = qh[blk] @ kh[blk].swapaxes(-1, -2)
        s *= scale
        if fresh:
            np.max(s, axis=-1, keepdims=True, out=row_max[blk])
        s -= row_max[blk]
        np.exp(s, out=s)
        if fresh:
            np.sum(s, axis=-1, keepdims=True, out=row_sum[blk])
        s /= row_sum[blk]
        return s

    # both passes run over blocks of whole sequences, so they never hold
    # more than _ATTENTION_BLOCK scores at once
    step = max(1, _ATTENTION_BLOCK // (heads * n * n))
    blocks = [slice(lo, lo + step) for lo in range(0, batch, step)]
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    outh = np.empty_like(qh)
    keep = []
    for blk in blocks:
        att = block_softmax(qh, kh, blk, True)
        if p > 0.0:
            keep.append(_dropout_mask(gens[blk.start * heads : blk.stop * heads], (n, n), p).reshape(att.shape))
            att *= keep[-1] / (1.0 - p)
        np.matmul(att, vh[blk], out=outh[blk])
    out = merge(outh)

    def backward_fn(g):
        # heads are read in place, not copied, except one column wide:
        # BLAS sums such a head, a strided vector, in another order
        heads_of = view if dh > 1 else split
        gh, qh, kh, vh = heads_of(g), heads_of(q.data), heads_of(k.data), heads_of(v.data)
        dq, dv = np.empty((batch, heads, n, dh)), np.empty((batch, heads, n, dh))
        dk = np.empty((batch, heads, dh, n))  # kᵀ's adjoint, merged transposed
        for i, blk in enumerate(blocks):
            sb = block_softmax(qh, kh, blk, False)
            mask = keep[i] / (1.0 - p) if keep else None
            att = sb if mask is None else sb * mask
            d_att = gh[blk] @ vh[blk].swapaxes(-1, -2)
            np.matmul(att.swapaxes(-1, -2), gh[blk], out=dv[blk])
            if mask is not None:
                d_att *= mask
            # softmax adjoint, then the score scale
            d_att -= (d_att * sb).sum(axis=-1, keepdims=True)
            d_att *= sb
            d_att *= scale
            np.matmul(d_att, kh[blk], out=dq[blk])
            np.matmul(qh[blk].swapaxes(-1, -2), d_att, out=dk[blk])
        return merge(dq), merge(dk.swapaxes(-1, -2)), merge(dv)

    return _emit(out, (q, k, v), backward_fn)


def _dropout_mask(gens, block: tuple, p: float) -> np.ndarray:
    """Kept entries at rate p: one ``block`` per generator, in turn, on the leading axis."""
    return np.concatenate([gen.random(block) for gen in gens]) >= p


def _binary_shapes_ok(a: Tensor, b: Tensor) -> bool:
    try:
        out_shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        return False
    return out_shape == a.shape or out_shape == b.shape


def add(a, b) -> Tensor:
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatch(f"add of {a.shape} and {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    return _emit(a.data + b.data, (a, b), lambda g: (_reduce_to(g, a_shape), _reduce_to(g, b_shape)))


def sub(a, b) -> Tensor:
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatch(f"sub of {a.shape} and {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    return _emit(a.data - b.data, (a, b), lambda g: (_reduce_to(g, a_shape), _reduce_to(-g, b_shape)))


def mul(a, b) -> Tensor:
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatch(f"mul of {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    a_shape, b_shape = a.shape, b.shape
    return _emit(ad * bd, (a, b), lambda g: (_reduce_to(g * bd, a_shape), _reduce_to(g * ad, b_shape)))


def scale(a, c: float) -> Tensor:
    c = float(c)
    return _emit(a.data * c, (a,), lambda g: (g * c,))


def transpose(a) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose expects a matrix, got shape {a.shape}")
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape) -> Tensor:
    a_shape = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatch(f"cannot reshape {a_shape} to {shape}") from None
    return _emit(out, (a,), lambda g: (g.reshape(a_shape),))


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    return _emit(a.data.swapaxes(axis1, axis2), (a,), lambda g: (g.swapaxes(axis1, axis2),))


def concat(tensors, axis: int = 0) -> Tensor:
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
    a_shape = a.shape

    def backward_fn(g):
        buf = np.zeros(a_shape, dtype=g.dtype)
        buf[key] = g
        return (buf,)

    return _emit(a.data[key].copy(), (a,), backward_fn)


def embedding_lookup(table, ids) -> Tensor:
    """Gather columns of a (d, V) table at integer ids -> (d, len(ids))."""
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
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    return _emit(s, (a,), lambda g: (s * (g - (g * s).sum(axis=axis, keepdims=True)),))


def log_softmax(a, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
    s = np.exp(out)
    return _emit(out, (a,), lambda g: (g - s * g.sum(axis=axis, keepdims=True),))


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then affine."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xhat = xd - mu
    # the biased variance, summed as np.var sums it
    inv_std = np.square(xhat).sum(axis=-1, keepdims=True)
    inv_std /= xd.shape[-1]
    inv_std += 1e-5
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data
    gain_data, bias_shape, gain_shape = gain.data, bias.shape, gain.shape

    def backward_fn(g):
        # only the row statistics outlive the forward pass: xhat again
        # from the input, by the forward's two operations
        xhat = xd - mu
        xhat *= inv_std
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


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c (x + 0.044715 x³)), the inner term of tanh-approximate GELU."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_out(x: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """0.5 x (1 + t) for t = _gelu_tanh(x), into ``out`` if given."""
    out = np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5
    return out


def _gelu_slope(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's derivative at x, 0.5 (1 + t) + 0.5 x (1 - t²) c (1 + 3 · 0.044715 x²).

    Takes over the buffer of t = _gelu_tanh(x) and holds at most two
    more arrays of its shape at once.
    """
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    tmp = 0.5 * x
    dx *= tmp
    d_inner = np.multiply(x, x, out=tmp)
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _GELU_C
    dx *= d_inner
    del tmp, d_inner
    t += 1.0
    t *= 0.5
    dx += t
    return dx


def gelu(x) -> Tensor:
    """Tanh-approximate GELU: 0.5 x (1 + tanh(c (x + 0.044715 x³)))."""
    xd = x.data
    t = _gelu_tanh(xd)
    out = _gelu_out(xd, t)

    def backward_fn(g):
        dx = _gelu_slope(xd, t.copy())
        dx *= g
        return (dx,)

    return _emit(out, (x,), backward_fn)


def relu(x) -> Tensor:
    mask = x.data > 0
    return _emit(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def mean(a, axis=None) -> Tensor:
    a_shape = a.shape
    count = a.size if axis is None else a.shape[axis]

    def backward_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a_shape) / count,)

    return _emit(np.mean(a.data, axis=axis), (a,), backward_fn)


def sum_(a, axis=None) -> Tensor:
    a_shape = a.shape

    def backward_fn(g):
        if axis is None:
            return (np.broadcast_to(g, a_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a_shape).copy(),)

    return _emit(np.sum(a.data, axis=axis), (a,), backward_fn)


def mse_loss(pred, target) -> Tensor:
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
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    if x.data.ndim == 0 or not gens or x.shape[0] % len(gens):
        raise ShapeMismatch(f"cannot split dropout of shape {x.shape} into {len(gens)} blocks")
    keep = _dropout_mask(gens, (x.shape[0] // len(gens),) + x.shape[1:], p)
    return _emit(x.data * (keep / (1.0 - p)), (x,), lambda g: (g * (keep / (1.0 - p)),))


class ParamStore:
    """Named parameters plus Adam first/second-moment state, in three flat buffers.

    Built once from the full parameter list, ``(name, shape, by_rows)``
    triples.  Every parameter's ``data``, and its two moments, are views
    into ``values``, ``first`` and ``second``; ``names()`` keeps the
    list's order, while the buffers put parameters with ``by_rows`` (a
    position table, read one leading block of rows at a time) last.
    ``reach`` keeps the most rows any forward pass has read, a count that
    only grows, and Adam updates only those rows: a row that has never
    had a gradient has zero moments, so Adam would move it by exactly 0.
    """

    def __init__(self, specs):
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.rows_reached = {name: 0 for name, _, by_rows in specs if by_rows}
        self.step_count = 0
        total = sum(math.prod(shape) for _, shape, _ in specs)
        self.values, self.first, self.second = np.zeros(total), np.zeros(total), np.zeros(total)
        # each parameter's first entry in the buffers, in buffer order: a
        # stable sort puts the row tables, and so their unreached rows, last
        self.offsets: dict[str, int] = {}
        lo = 0
        for name, shape, _ in sorted(specs, key=lambda spec: spec[2]):
            if name in self.offsets:
                raise KeyError(f"duplicate parameter name {name!r}")
            self.offsets[name] = lo
            lo += math.prod(shape)
        for name, shape, _ in specs:
            part = slice(self.offsets[name], self.offsets[name] + math.prod(shape))
            self.params[name] = Tensor(self.values[part].reshape(shape), requires_grad=True)
            self.moment1[name] = self.first[part].reshape(shape)
            self.moment2[name] = self.second[part].reshape(shape)

    def reach(self, name: str, rows: int) -> None:
        """Record that a forward pass reads the first ``rows`` rows of ``name``."""
        self.rows_reached[name] = max(self.rows_reached[name], rows)

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
    """One bias-corrected Adam update; gradients are cleared afterward.

    The gradients are gathered into one temporary, and the passes run
    once per run of adjacent parameters in the buffers that have one (a
    training step is one run), in place on it and one more, in the
    rounding order of ``m = β1 m + (1-β1) g``, ``v = β2 v + (1-β2) g²`` and
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``.  A parameter without a
    gradient keeps its value and moments; the gradients are only read.
    """
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    # each parameter's gradient, flat, and the runs they cover in the
    # buffers, [start, end), in buffer order
    grads, runs = [], []
    for name, lo in store.offsets.items():
        g = store.params[name].grad
        if g is None:
            continue
        if name in store.rows_reached:
            g = g[: store.rows_reached[name]]
        grads.append(g.ravel())
        if runs and runs[-1][1] == lo:
            runs[-1][1] += g.size
        else:
            runs.append([lo, lo + g.size])
    gathered = np.concatenate(grads) if grads else None
    at = 0
    for lo, hi in runs:
        g = gathered[at : at + hi - lo]
        at += hi - lo
        w, m, v = store.values[lo:hi], store.first[lo:hi], store.second[lo:hi]
        a = g * (1.0 - beta1)
        m *= beta1
        m += a
        np.square(g, out=a)
        a *= 1.0 - beta2
        v *= beta2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        b = np.divide(v, c2, out=g)  # the gathered gradient is used up
        np.sqrt(b, out=b)
        b += eps
        a /= b
        w -= a
    store.zero_grad()
