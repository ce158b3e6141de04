"""Dense-tensor reverse-mode automatic differentiation.

A ``Tape`` records every op run while it is the innermost open tape;
``Tape.backward`` consumes the record in reverse and accumulates adjoints
into every tensor that requires gradients.  Ops are plain functions of
``Tensor`` inputs backed by numpy arrays.  A tape entry holds the
gradient slots of the op's output and inputs, not the tensors, so an
output's array lives only while a caller or some adjoint holds it.
Broadcasting is limited to bias-style row/column addition so every
adjoint stays a one-liner.
``linear``, ``feed_forward`` and ``cross_entropy_loss`` act on the last
axis of an input of any rank, whose leading axes they flatten into rows.
The two pre-norm sublayers are one op each and take the residual stream
itself: ``attention`` layer-normalises its (batch, n, d_model) input and
runs multi-head softmax attention over the q, k and v projections of the
normed rows, and ``feed_forward`` layer-normalises its input and runs
``linear`` -> GELU -> dropout -> ``linear`` on it.  Each keeps its input
and the norm's row statistics, not the normed rows, and its adjoint
rebuilds the normed rows with the forward's own operations; attention
also keeps the softmax's row statistics and the dropout masks and
rebuilds q, k, v and the softmax, and the feed-forward keeps no
more than its dropout mask and rebuilds its pre-activation, then writes
GELU's output over it one block of rows at a time.
``layer_norm``, the final norm, shares the norm's forward and adjoint
with them.  The model calls no plain 2-D ``matmul``.
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
# forward pass and in the adjoint: 512 KiB of float64 per temporary.  The
# adjoint holds the rebuilt q, k and v, q's adjoint and up to three such
# temporaries at once (the softmax, its adjoint and either the dropped-out
# softmax, written over the dropout factors, or the softmax adjoint's row
# product): at 1 << 17 the backward pass of a masked step on 64-letter
# lines held 2.4 MiB above the forward pass's live memory and the
# gradients, and test_backward_holds_no_more_than_the_forward_pass_left
# allows 2 MiB.  A block is whole sequences, or whole heads of one
# sequence when its heads exceed the budget: a criterion-9 batch
# (8 x 2 x 32²) and a masked batch of 8 sequences of 48 tokens stay one
# block, and a 128-token line (N = 256, 2 x 256² scores) is one block
# per head.
_ATTENTION_BLOCK = 1 << 16

# Rows of feed_forward's GELU chain worked on at once, in the forward pass
# and in the adjoint: at d_ff 128, 128 KiB of float64 per temporary, so a
# criterion-9 batch (256 rows) is two blocks and an 8 x 128-token masked
# batch (2,048 rows) sixteen.  Each block's GELU output is formed in a
# temporary and then written over the block's pre-activation, which the
# adjoint reads for GELU's slope first.
_FF_BLOCK_ROWS = 128


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


def linear(x, w, b=None) -> Tensor:
    """x (..., k) times w (k, m), plus the row bias b (m,) if given, as one 2-D product."""
    if x.data.ndim == 0 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] or (b is not None and b.shape != (w.shape[1],)):
        raise ShapeMismatch(f"linear of {x.shape} by {w.shape} plus {None if b is None else b.shape}")
    x_shape, x_grad, w_grad, b_grad = x.shape, x.requires_grad, w.requires_grad, b is not None and b.requires_grad
    # the row count, not -1, so a (..., 0) input with no features reshapes too
    xd, wd = x.data.reshape(math.prod(x_shape[:-1]), w.shape[0]), w.data
    out = xd @ wd
    if b is not None:
        out += b.data
    # the input is read again only for w's gradient
    xd = xd if w_grad else None

    def backward_fn(g):
        g = g.reshape(-1, wd.shape[1])
        return (
            (g @ wd.T).reshape(x_shape) if x_grad else None,
            xd.T @ g if w_grad else None,
            g.sum(axis=0) if b_grad else None,
        )

    return _emit(out.reshape(x_shape[:-1] + (wd.shape[1],)), (x, w) if b is None else (x, w, b), backward_fn)


def feed_forward(h, ln_g, ln_b, w1, b1, w2, b2, p: float = 0.0, gens=None) -> Tensor:
    """``linear(dropout(gelu(linear(layer_norm(h, ln_g, ln_b), w1, b1)), p, gens), w2, b2)`` as one op.

    The forward pass runs exactly those five ops' operations in turn on
    the rows of h (..., k), the GELU chain and the dropout scaling over
    blocks of ``_FF_BLOCK_ROWS`` rows; the products and the row sums run
    on all rows at once.  Each block's GELU output is written over its
    pre-activation ``u = x w1 + b1`` of the normed rows x, so one array of
    u's shape serves as u and as GELU's output.  Only h and the norm's row
    statistics (and with ``p > 0`` the boolean keep mask) outlive the call:
    the adjoint rebuilds u from h by the same operations and forms
    ``da = g w2ᵀ``, then for each block rebuilds GELU's tanh and output
    from u, scales that block of ``da`` by the slope in place and writes
    the output over u's block, for ``dw2 = aᵀ g``.  It then drops u and the
    mask, and only then rebuilds x for w1's gradient, and the norm's
    ``xhat`` last, for the norm's adjoint.
    Every output and gradient is thus bit for bit the unfused chain's;
    without the norm that chain is ``linear`` -> ``gelu`` -> ``linear``.
    The adjoint holds at most two arrays of u's shape, u and ``da``, plus
    one block's temporaries.
    """
    if (
        h.data.ndim == 0 or w1.data.ndim != 2 or w2.data.ndim != 2
        or h.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]
        or ln_g.shape != (w1.shape[0],) or ln_b.shape != (w1.shape[0],)
        or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],)
    ):
        shapes = ", ".join(str(t.shape) for t in (h, ln_g, ln_b, w1, b1, w2, b2))
        raise ShapeMismatch(f"feed_forward of h, ln_g, ln_b, w1, b1, w2 and b2 of shapes {shapes}")
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    h_shape, rows = h.shape, math.prod(h.shape[:-1])
    if p > 0.0 and (not gens or rows % len(gens)):
        raise ShapeMismatch(f"cannot split dropout of {rows} rows into {len(gens or ())} blocks")
    w1_grad, b1_grad, w2_grad, b2_grad = w1.requires_grad, b1.requires_grad, w2.requires_grad, b2.requires_grad
    h_data, w1d, w2d = h.data, w1.data, w2.data
    mu, inv_std = _norm_stats(h_data)

    def normed_rows():  # the normed input as (rows, k), formed afresh
        return _normed(h_data, mu, inv_std, ln_g.data, ln_b.data).reshape(rows, w1d.shape[0])

    def pre_activation():  # u = x w1 + b1 of the normed rows x, formed afresh
        u = normed_rows() @ w1d
        u += b1.data
        return u

    keep = _dropout_mask(gens, (rows // len(gens), w1d.shape[1]), p) if p > 0.0 else None
    blocks = [slice(lo, lo + _FF_BLOCK_ROWS) for lo in range(0, rows, _FF_BLOCK_ROWS)]

    def dropout_factors(blk):  # the block's inverted-dropout factors, or None
        return None if keep is None else keep[blk] / (1.0 - p)

    def activation(u_blk, t, factors):  # the block's dropped-out GELU output, a new array
        a_blk = _gelu_out(u_blk, t)
        if factors is not None:
            a_blk *= factors
        return a_blk

    # GELU's output is written over u block by block: u's buffer becomes a
    a = pre_activation()
    for blk in blocks:
        a[blk] = activation(a[blk], _gelu_tanh(a[blk]), dropout_factors(blk))
    out = a @ w2d
    out += b2.data
    del a

    def block_adjoint(u_blk, da_blk, factors):  # da's block becomes du's, and u's a's if w2 takes a gradient
        t = _gelu_tanh(u_blk)
        a_blk = activation(u_blk, t, factors) if w2_grad else None
        if factors is not None:
            da_blk *= factors
        # the slope times the block's adjoint; then u's block is used up
        da_blk *= _gelu_slope(u_blk, t)
        if a_blk is not None:
            u_blk[...] = a_blk

    def backward_fn(g):
        nonlocal keep
        g = g.reshape(-1, w2d.shape[1])
        # u first, so the normed rows it is formed from are freed before da is
        u = pre_activation()
        da = g @ w2d.T
        # a call per block, so no view of u or da outlives the loop
        for blk in blocks:
            block_adjoint(u[blk], da[blk], dropout_factors(blk))
        # the tape runs an adjoint once, so the mask is used up
        keep = None
        dw2 = u.T @ g if w2_grad else None
        del u  # used up before the products with w1
        x = normed_rows()
        grads = (x.T @ da if w1_grad else None, da.sum(axis=0) if b1_grad else None, dw2, g.sum(axis=0) if b2_grad else None)
        del x
        dx = (da @ w1d.T).reshape(h_shape)
        del da
        return (*_norm_backward(dx, h_data, mu, inv_std, ln_g, ln_b, out=dx), *grads)

    return _emit(out.reshape(h_shape[:-1] + (w2d.shape[1],)), (h, ln_g, ln_b, w1, b1, w2, b2), backward_fn)


def attention(h, ln_g, ln_b, wq, bq, wk, bk, wv, bv, heads: int, scale: float, p: float = 0.0, gens=None) -> Tensor:
    """Multi-head softmax attention over the projections of the layer-normed (batch, n, d) sequences h.

    x = ``layer_norm(h, ln_g, ln_b)``, and q, k and v are x times wq, wk
    and wv (d, m) plus the row biases bq, bk and bv (m,), each formed as
    ``linear`` forms it.  Each head attends within its sequence over its
    m / heads columns: softmax(scale * q kᵀ), inverted dropout at rate
    ``p``, times v, heads merged back into (batch, n, m).  With ``p > 0``,
    ``gens`` holds one generator per (sequence, head), sequence-major,
    and each draws its (n, n) mask in turn.

    Only h, the norm's row statistics, each score row's max and sum,
    and the dropout masks (as booleans) outlive the call.  The adjoint
    rebuilds x from h by the norm's operations, then q, k and v from x,
    and frees x; it rebuilds each block's softmax from the row
    statistics, then x again for the weight products, and the norm's
    ``xhat`` last, for the norm's adjoint.  Each block writes v's
    adjoint over v's rows once it has read them, q's adjoint into a
    fresh buffer, and k's adjoint over k's rows once q's adjoint has
    read them; blocks partition (sequence, head), so no later block
    reads what is written over.  It sums x's adjoint in the order a tape
    sums three ``linear`` ops' adjoints (v's, then k's, then q's), so
    every output and gradient is bit for bit that of ``layer_norm``,
    those ops and attention over their outputs.  Both passes run over
    blocks of whole sequences, or of whole heads of one sequence, read
    heads through strided views (heads one column wide excepted) and
    write each block's products through views of (batch·n, m) buffers,
    so no head is merged by a copy.
    """
    weights, biases = (wq, wk, wv), (bq, bk, bv)
    if (
        h.data.ndim != 3 or wq.data.ndim != 2 or h.shape[-1] != wq.shape[0]
        or ln_g.shape != (wq.shape[0],) or ln_b.shape != (wq.shape[0],)
        or any(w.shape != wq.shape for w in weights) or any(b.shape != (wq.shape[1],) for b in biases)
    ):
        shapes = ", ".join(str(t.shape) for t in (h, ln_g, ln_b) + weights + biases)
        raise ShapeMismatch(f"attention of h, ln_g, ln_b, wq, wk, wv, bq, bk and bv of shapes {shapes}")
    batch, n, width = h.shape[0], h.shape[1], wq.shape[1]
    if heads < 1 or width % heads:
        raise ShapeMismatch(f"attention of width {width} with {heads} heads")
    if not 0.0 <= p < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    if p > 0.0 and (gens is None or len(gens) != batch * heads):
        raise ShapeMismatch(f"attention dropout needs {batch * heads} generators")
    dh = width // heads
    h_data = h.data
    mu, inv_std = _norm_stats(h_data)
    params = [(w.data, b.data, w.requires_grad, b.requires_grad) for w, b in zip(weights, biases)]

    def normed_rows():  # x as (batch·n, d) rows, formed afresh
        return _normed(h_data, mu, inv_std, ln_g.data, ln_b.data).reshape(batch * n, wq.shape[0])

    def view(a):  # (batch·n, m) rows -> (batch, heads, n, dh), a view
        return a.reshape(batch, n, heads, dh).swapaxes(1, 2)

    def heads_of(a):  # read in place, not copied, except one column wide:
        # BLAS sums such a head, a strided vector, in another order
        a = view(np.ascontiguousarray(a))
        return a if dh > 1 else np.ascontiguousarray(a)

    def projections():  # q, k and v as (batch·n, m) rows, formed as linear forms them, and their heads
        x, out = normed_rows(), []
        for w, b, _, _ in params:
            rows = x @ w
            rows += b
            out.append((rows, heads_of(rows)))
        return out

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

    # both passes run over blocks of whole sequences, or of whole heads of
    # one sequence, so they never hold more than _ATTENTION_BLOCK scores
    # at once (or one head's, if that is more)
    seqs = max(1, _ATTENTION_BLOCK // (heads * n * n))
    per_block = max(1, min(heads, _ATTENTION_BLOCK // (n * n)))
    blocks = [(slice(b, b + seqs), slice(lo, lo + per_block)) for b in range(0, batch, seqs) for lo in range(0, heads, per_block)]
    qh, kh, vh = (heads for _, heads in projections())
    out = np.empty((batch * n, width))
    keep = []
    for blk in blocks:
        att = block_softmax(qh, kh, blk, True)
        if p > 0.0:
            block_gens = [gens[b * heads + i] for b in range(batch)[blk[0]] for i in range(heads)[blk[1]]]
            keep.append(_dropout_mask(block_gens, (n, n), p).reshape(att.shape))
            att *= keep[-1] / (1.0 - p)
        np.matmul(att, vh[blk], out=view(out)[blk])

    def backward_fn(g):
        (q_rows, qh), (k_rows, kh), (v_rows, vh) = projections()
        del q_rows  # read through its heads alone
        gh = heads_of(g)
        dq = np.empty((batch * n, width))
        # each block writes the adjoints of k and v over k's and v's rows,
        # once it has read them: blocks partition (sequence, head), so no
        # later block reads a row that is written over
        for i, blk in enumerate(blocks):
            sb = block_softmax(qh, kh, blk, False)
            d_att = gh[blk] @ vh[blk].swapaxes(-1, -2)
            if keep:
                mask = keep[i] / (1.0 - p)
                d_att *= mask
                # the factors are used up: their buffer takes the dropped-out softmax
                att = np.multiply(sb, mask, out=mask)
                del mask
            else:
                att = sb
            np.matmul(att.swapaxes(-1, -2), gh[blk], out=view(v_rows)[blk])
            del att
            # softmax adjoint, then the score scale
            d_att -= (d_att * sb).sum(axis=-1, keepdims=True)
            d_att *= sb
            del sb
            d_att *= scale
            np.matmul(d_att, kh[blk], out=view(dq)[blk])
            # k's rows take kᵀ's adjoint qᵀ d_att transposed, now that q's adjoint has read k
            np.matmul(d_att.swapaxes(-1, -2), qh[blk], out=view(k_rows)[blk])
            del d_att
        # v's products, then k's, then q's, each adjoint freed once used
        ds, grads, dx = [dq, k_rows, v_rows], [None] * 6, None
        del qh, kh, vh, gh, dq, k_rows, v_rows
        x = normed_rows()
        for j in (2, 1, 0):
            d, ds[j] = ds[j], None
            w, _, w_grad, b_grad = params[j]
            if dx is None:
                dx = d @ w.T
            else:
                dx += d @ w.T
            grads[2 * j : 2 * j + 2] = x.T @ d if w_grad else None, d.sum(axis=0) if b_grad else None
            del d
        del x
        dx = dx.reshape(h.shape)
        return (*_norm_backward(dx, h_data, mu, inv_std, ln_g, ln_b, out=dx), *grads)

    return _emit(out.reshape(batch, n, width), (h, ln_g, ln_b, wq, bq, wk, bk, wv, bv), backward_fn)


def _dropout_mask(gens, block: tuple, p: float) -> np.ndarray:
    """Kept entries at rate p: one ``block`` per generator, in turn, on the leading axis.

    Each generator's draw is compared as it is drawn, so no float array
    larger than one ``block`` is built.
    """
    keep = np.empty((len(gens) * block[0],) + tuple(block[1:]), dtype=bool)
    for i, gen in enumerate(gens):
        np.greater_equal(gen.random(block), p, out=keep[i * block[0] : (i + 1) * block[0]])
    return keep


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
    """Columns of a (d, V) table at integer ids (..., n): (..., d, n), a view of the gather ``table[:, ids]``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 0:
        raise ShapeMismatch("ids must have at least one axis, got a scalar")
    t_shape, flat = table.shape, ids.ravel()

    def backward_fn(g):
        buf = np.zeros(t_shape, dtype=g.dtype)
        np.add.at(buf, (slice(None), flat), np.moveaxis(g, -2, 0).reshape(t_shape[0], -1))
        return (buf,)

    cols = table.data[:, flat].reshape((t_shape[0],) + ids.shape)
    return _emit(np.moveaxis(cols, 0, -2), (table,), backward_fn)


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


def _norm_stats(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean and 1 / sqrt(variance + 1e-5) over the last axis, (..., 1)."""
    mu = xd.mean(axis=-1, keepdims=True)
    # the biased variance, summed as np.var sums it
    inv_std = np.square(xd - mu).sum(axis=-1, keepdims=True)
    inv_std /= xd.shape[-1]
    inv_std += 1e-5
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    return mu, inv_std


def _xhat(xd: np.ndarray, mu: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """The normalised rows (xd - mu) inv_std, by the same two operations every time."""
    xhat = xd - mu
    xhat *= inv_std
    return xhat


def _normed(xd: np.ndarray, mu: np.ndarray, inv_std: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The layer norm's output xhat gain + bias, formed in place on xhat."""
    out = _xhat(xd, mu, inv_std)
    out *= gain
    out += bias
    return out


def _norm_backward(g, xd, mu, inv_std, gain, bias, out=None) -> tuple:
    """The adjoints of the layer norm's input xd and of its ``gain`` and ``bias``
    tensors for the output's adjoint g; ``xhat`` is rebuilt from xd here.

    xd's adjoint is written into ``out`` if given, which may be g itself:
    g is read for the other two adjoints first.
    """
    xhat = _xhat(xd, mu, inv_std)
    dgain = _reduce_to(g * xhat, gain.shape)
    dbias = _reduce_to(g, bias.shape)
    dx = np.multiply(g, gain.data, out=out)
    proj = dx * xhat
    proj = np.multiply(xhat, proj.mean(axis=-1, keepdims=True), out=proj)
    del xhat
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= proj
    dx *= inv_std
    return dx, dgain, dbias


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then affine.

    Only each row's mean and inv_std outlive the call; the adjoint
    rebuilds the normalised input from x, which ``attention`` and
    ``feed_forward`` do for the norms they run themselves.
    """
    xd = x.data
    mu, inv_std = _norm_stats(xd)
    out = _normed(xd, mu, inv_std, gain.data, bias.data)
    return _emit(out, (x, gain, bias), lambda g: _norm_backward(g, xd, mu, inv_std, gain, bias))


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


def _gelu_out(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 x (1 + t) for t = _gelu_tanh(x), a new array."""
    out = t + 1.0
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

    # C-ordered whatever the strides: BLAS sums a transposed layout in another order
    return _emit(np.asarray(np.sum(a.data, axis=axis), order="C"), (a,), backward_fn)


def mse_loss(pred, target) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeMismatch(f"mse_loss of {pred.shape} and {target.shape}")
    # C-ordered, so the mean sums in index order whatever the inputs' strides
    diff = np.subtract(pred.data, target.data, order="C")
    n = diff.size
    return _emit(
        np.asarray(np.mean(diff**2)),
        (pred, target),
        lambda g: (g * 2.0 * diff / n, g * -2.0 * diff / n),
    )


def cross_entropy_loss(logits, targets, weights=None) -> Tensor:
    """Negative log-likelihood over the rows of (..., V) logits.

    The mean over rows, or with per-row ``weights`` the weighted sum;
    ``targets`` and ``weights`` have the logits' leading shape.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim == 0 or targets.shape != logits.shape[:-1]:
        raise ShapeMismatch(f"cross_entropy_loss of {logits.shape} with targets {targets.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != targets.shape:
            raise ShapeMismatch(f"cross_entropy_loss weights of shape {weights.shape} for targets {targets.shape}")
    logits_shape, targets, n = logits.shape, targets.ravel(), targets.size
    rows = logits.data.reshape(n, logits_shape[-1])
    z = rows - rows.max(axis=1, keepdims=True)
    log_z = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = log_z[np.arange(n), targets]
    nll = -picked.mean() if weights is None else -(weights.ravel() * picked).sum()

    def backward_fn(g):
        grad = np.exp(log_z)
        grad[np.arange(n), targets] -= 1.0
        return ((g * grad / n if weights is None else g * grad * weights.reshape(-1, 1)).reshape(logits_shape),)

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
        raise ShapeMismatch(f"cannot split dropout of shape {x.shape} into {len(gens or ())} blocks")
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

    ``state``, three float64 arrays of the buffers' size (or a (3, n)
    array, whose rows are such arrays), is adopted as ``values``,
    ``first`` and ``second``, not copied; without it the buffers are zeros.
    Each row table's ``rows_reached`` is one past its last row with a
    nonzero moment, so 0 in a fresh store.  The buffers do not hold
    ``step_count``: whoever adopts a state sets it.
    """

    def __init__(self, specs, state=None):
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.rows_reached: dict[str, int] = {}
        self.step_count = 0
        total = sum(math.prod(shape) for _, shape, _ in specs)
        if state is None:
            state = np.zeros(total), np.zeros(total), np.zeros(total)
        elif len(state) != 3 or any(np.shape(buf) != (total,) for buf in state):
            raise ShapeMismatch(f"state of shape {[np.shape(buf) for buf in state]}, the model's is 3 × ({total},)")
        self.values, self.first, self.second = state
        # each parameter's first entry in the buffers, in buffer order: a
        # stable sort puts the row tables, and so their unreached rows, last
        self.offsets: dict[str, int] = {}
        lo = 0
        for name, shape, _ in sorted(specs, key=lambda spec: spec[2]):
            if name in self.offsets:
                raise KeyError(f"duplicate parameter name {name!r}")
            self.offsets[name] = lo
            lo += math.prod(shape)
        for name, shape, by_rows in specs:
            part = slice(self.offsets[name], self.offsets[name] + math.prod(shape))
            self.params[name] = Tensor(self.values[part].reshape(shape), requires_grad=True)
            self.moment1[name] = self.first[part].reshape(shape)
            self.moment2[name] = self.second[part].reshape(shape)
            if by_rows:
                # rows past the last one with a nonzero moment have no Adam state
                # to carry; any() per row makes no temporary the table's size
                moved = [m.reshape(len(m), -1).any(axis=1) for m in (self.moment1[name], self.moment2[name])]
                rows = np.flatnonzero(moved[0] | moved[1])
                self.rows_reached[name] = int(rows[-1]) + 1 if rows.size else 0

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
