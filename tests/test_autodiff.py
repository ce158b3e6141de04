"""Forward values, adjoint correctness, and optimizer behavior."""

import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import autodiff as ad
from curvelang import checkpoint
from curvelang import model as M
from curvelang.corpus import build_vocab
from curvelang.curvemap import CurveConfig, build_cache
from curvelang.errors import NotScalar, ShapeMismatch
from curvelang.rng import RngStream

from _oracles import (
    finite_difference_grad,
    reference_adam_step,
    reference_attention,
    reference_feed_forward,
    relative_grad_error,
)


def _grads(op_fn, arrays, grad_index=0, h=1e-5):
    """Finite-difference and analytic gradients of one input.

    The scalar objective is a fixed random weighting of the op output, so
    every output element influences the loss.
    """
    weights = None

    def run(values):
        nonlocal weights
        tensors = [ad.Tensor(v.copy(), requires_grad=True) for v in values]
        with ad.Tape() as tape:
            out = op_fn(*tensors)
            if weights is None:
                weights = RngStream(99, "probe").normal(out.shape)
            loss = ad.sum_(ad.mul(out, ad.Tensor(weights)))
            tape.backward(loss)
        return float(loss.data), tensors

    _, tensors = run(arrays)
    analytic = tensors[grad_index].grad

    def scalar(x):
        values = [a.copy() for a in arrays]
        values[grad_index] = x
        return run(values)[0]

    return finite_difference_grad(scalar, arrays[grad_index], h=h), analytic


def _probe(op_fn, arrays, grad_index=0, h=1e-5):
    """The relative error of one input's analytic gradient against finite differences."""
    return relative_grad_error(*_grads(op_fn, arrays, grad_index, h))


def _probe_attention(op_fn, arrays, label):
    """Finite-difference probes of all nine inputs of ``attention``.

    The key bias adds q·bk to every score of a row, which the softmax
    ignores: its gradient is exactly 0, so both gradients must be 0 up
    to rounding, where a relative error would compare two roundings.
    """
    for i in range(9):
        if i == 6:
            numeric, analytic = _grads(op_fn, arrays, i)
            assert np.abs(numeric).max() < 1e-8 and np.abs(analytic).max() < 1e-8, label
        else:
            assert _probe(op_fn, arrays, i) < 1e-6, label + (i,)


class TestForwardValues:
    def test_softmax_uniform(self):
        out = ad.softmax(ad.Tensor(np.zeros((1, 4))), axis=1)
        npt.assert_allclose(out.data, 0.25)

    def test_matmul_identity(self):
        x = RngStream(1, "mm").normal((3, 5))
        npt.assert_array_equal(ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(x)).data, x)

    def test_cross_entropy_margin(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        loss = ad.cross_entropy_loss(ad.Tensor(logits), np.array([0, 1]))
        assert float(loss.data) < 1e-4

    def test_log_softmax_matches_log_of_softmax(self):
        x = RngStream(2, "ls").normal((4, 6))
        npt.assert_allclose(
            ad.log_softmax(ad.Tensor(x), axis=1).data,
            np.log(ad.softmax(ad.Tensor(x), axis=1).data),
            atol=1e-12,
        )

    def test_relu_and_gelu_limits(self):
        x = np.array([-100.0, 0.0, 100.0])
        npt.assert_allclose(ad.relu(ad.Tensor(x)).data, [0.0, 0.0, 100.0])
        g = ad.gelu(ad.Tensor(x)).data
        npt.assert_allclose(g, [0.0, 0.0, 100.0], atol=1e-8)

    def test_dropout_zero_rate_is_identity(self):
        x = RngStream(3, "dr").normal((6, 5))
        for n_gens in (1, 3):
            gens = [RngStream(0, "m", i).generator() for i in range(n_gens)]
            out = ad.dropout(ad.Tensor(x), 0.0, gens)
            npt.assert_array_equal(out.data, x)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeMismatch):
            ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeMismatch):
            ad.mse_loss(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)))

    def test_dropout_shape_errors(self):
        x = ad.Tensor(np.zeros((6, 5)))
        # no generators at all, an empty list, and one that does not split the rows
        for gens in (None, [], [RngStream(0, "m", i).generator() for i in range(4)]):
            with pytest.raises(ShapeMismatch, match="cannot split dropout"):
                ad.dropout(x, 0.5, gens)
        with pytest.raises(ShapeMismatch, match="dropout rate"):
            ad.dropout(x, 1.0, [RngStream(0, "m").generator()])


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = ad.Tensor(RngStream(4, "s").normal(7), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.sum_(x))
        npt.assert_array_equal(x.grad, np.ones(7))

    def test_mse_grad(self):
        data = RngStream(5, "m").normal(6)
        x = ad.Tensor(data, requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.mse_loss(x, ad.Tensor(np.zeros(6))))
        npt.assert_allclose(x.grad, 2.0 * data / 6.0, atol=1e-14)

    def test_not_scalar(self):
        x = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.scale(x, 2.0)
            with pytest.raises(NotScalar):
                tape.backward(y)

    def test_grad_accumulates_across_reuse(self):
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.add(ad.mul(x, x), x)  # x^2 + x
            tape.backward(ad.sum_(y))
        npt.assert_allclose(x.grad, [7.0])

    def test_adopted_adjoint_of_add_to_itself(self):
        # add hands one adjoint array to both of its inputs
        x0 = RngStream(12, "xx").normal((3, 4))
        w = RngStream(13, "w").normal((3, 4))

        def run(x_data):
            x = ad.Tensor(x_data, requires_grad=True)
            with ad.Tape() as tape:
                loss = ad.sum_(ad.mul(ad.add(x, x), ad.Tensor(w)))
                tape.backward(loss)
            return float(loss.data), x.grad

        grad = run(x0)[1]
        numeric = finite_difference_grad(lambda v: run(v)[0], x0)
        assert relative_grad_error(numeric, grad) < 1e-8
        npt.assert_allclose(grad, 2.0 * w, rtol=1e-15)

    def test_adopted_adjoint_is_not_written_by_a_later_contribution(self):
        # a is used before and after add(a, b): either way its second
        # adjoint must not reach b, which adopted the same array
        a0 = RngStream(14, "a").normal((2, 3))
        b0 = RngStream(15, "b").normal((2, 3))
        w1 = RngStream(16, "w1").normal((2, 3))
        w2 = RngStream(17, "w2").normal((2, 3))
        for a_first in (True, False):

            def run(a_data, b_data, _a_first=a_first):
                a, b = ad.Tensor(a_data, requires_grad=True), ad.Tensor(b_data, requires_grad=True)
                with ad.Tape() as tape:
                    if _a_first:
                        other = ad.sum_(ad.mul(a, ad.Tensor(w2)))
                    s = ad.sum_(ad.mul(ad.add(a, b), ad.Tensor(w1)))
                    if not _a_first:
                        other = ad.sum_(ad.mul(a, ad.Tensor(w2)))
                    loss = ad.add(s, other)
                    tape.backward(loss)
                return float(loss.data), a.grad, b.grad

            _, a_grad, b_grad = run(a0, b0)
            npt.assert_array_equal(b_grad, w1)
            npt.assert_allclose(a_grad, w1 + w2, rtol=1e-15)
            numeric_a = finite_difference_grad(lambda v: run(v, b0)[0], a0)
            numeric_b = finite_difference_grad(lambda v: run(a0, v)[0], b0)
            assert relative_grad_error(numeric_a, a_grad) < 1e-8, a_first
            assert relative_grad_error(numeric_b, b_grad) < 1e-8, a_first

    def test_no_grad_leakage(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        c = ad.Tensor(np.ones((2, 2)))
        with ad.Tape() as tape:
            tape.backward(ad.sum_(ad.mul(x, c)))
        assert x.grad is not None
        assert c.grad is None

    def test_nested_tapes_record_on_the_innermost_only(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as outer:
            first = ad.scale(x, 3.0)
            with ad.Tape() as inner:
                middle = ad.scale(x, 4.0)
            last = ad.scale(x, 5.0)  # the outer tape records again
        assert [entry[0] for entry in outer.entries] == [first.slot, last.slot]
        assert [entry[0] for entry in inner.entries] == [middle.slot]
        ad.scale(x, 6.0)  # outside any tape: recorded nowhere
        assert len(outer.entries) == 2 and len(inner.entries) == 1

    def test_tape_keeps_no_residual_branch_array(self):
        # add's adjoint reads only shapes, so once the caller drops the
        # branch linear(x, w, b), nothing holds its array; the gradients
        # are those of a run that keeps it
        rng = RngStream(12, "branch")
        arrays = [rng.child(name).normal(shape) for name, shape in (("h", (5, 4)), ("x", (5, 3)), ("w", (3, 4)), ("b", (4,)))]

        def run(keep_branch):
            h, x, w, b = (ad.Tensor(a, requires_grad=True) for a in arrays)
            with ad.Tape() as tape:
                branch = ad.linear(x, w, b)
                alive = weakref.ref(branch.data)
                out = h + branch
                if not keep_branch:
                    del branch
                    assert alive() is None
                    assert len(tape.entries) == 2
                tape.backward(ad.sum_(ad.mul(out, out)))
            return [t.grad for t in (h, x, w, b)]

        for got, want in zip(run(False), run(True)):
            npt.assert_array_equal(got, want)

    def test_op_outputs_release_grads_and_parameters_keep_them(self):
        w = ad.Tensor(RngStream(10, "w").normal((3, 4)), requires_grad=True)
        x = ad.Tensor(RngStream(11, "x").normal((2, 3)))
        with ad.Tape() as tape:
            h = ad.matmul(x, w)
            y = ad.gelu(h)
            loss = ad.sum_(y)
            tape.backward(loss)
        assert tape.entries == []
        assert h.grad is None and y.grad is None and loss.grad is None
        assert w.grad is not None and w.grad.shape == (3, 4)
        assert x.grad is None

    def test_determinism(self):
        def run():
            rng = RngStream(6, "det")
            x = ad.Tensor(rng.child("x").normal((4, 4)), requires_grad=True)
            with ad.Tape() as tape:
                y = ad.gelu(ad.matmul(x, ad.Tensor(rng.child("w").normal((4, 4)))))
                y = ad.dropout(y, 0.3, [rng.child("drop").generator()])
                loss = ad.mse_loss(y, ad.Tensor(np.zeros((4, 4))))
                tape.backward(loss)
            return float(loss.data), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        npt.assert_array_equal(g1, g2)


class TestGradientChecks:
    RNG = RngStream(7, "gc")

    def test_matmul(self):
        a = self.RNG.child("a").normal((3, 4))
        b = self.RNG.child("b").normal((4, 5))
        assert _probe(ad.matmul, [a, b], 0) < 1e-6
        assert _probe(ad.matmul, [a, b], 1) < 1e-6

    def test_add_sub_mul(self):
        a = self.RNG.child("c").normal((4, 4))
        b = self.RNG.child("d").normal((4, 4))
        for op in (ad.add, ad.sub, ad.mul):
            assert _probe(op, [a, b], 0) < 1e-6
            assert _probe(op, [a, b], 1) < 1e-6

    def test_bias_broadcast(self):
        a = self.RNG.child("e").normal((5, 3))
        row = self.RNG.child("f").normal((1, 3))
        col = self.RNG.child("g").normal((5, 1))
        assert _probe(ad.add, [a, row], 1) < 1e-6
        assert _probe(ad.add, [a, col], 1) < 1e-6
        assert _probe(ad.mul, [a, row], 1) < 1e-6

    def test_unary_ops(self):
        x = self.RNG.child("h").normal((4, 6))
        assert _probe(lambda t: ad.scale(t, -2.7), [x]) < 1e-6
        assert _probe(ad.transpose, [x]) < 1e-6
        assert _probe(lambda t: ad.softmax(t, axis=1), [x]) < 1e-5
        assert _probe(lambda t: ad.log_softmax(t, axis=0), [x]) < 1e-5
        assert _probe(ad.gelu, [x]) < 1e-6
        assert _probe(lambda t: ad.relu(t), [x + 0.1]) < 1e-6
        assert _probe(lambda t: ad.mean(t, axis=1), [x]) < 1e-6
        assert _probe(lambda t: ad.sum_(t, axis=0), [x]) < 1e-6

    def test_concat_slice(self):
        a = self.RNG.child("i").normal((3, 4))
        b = self.RNG.child("j").normal((2, 4))
        assert _probe(lambda u, v: ad.concat([u, v], axis=0), [a, b], 0) < 1e-6
        assert _probe(lambda u, v: ad.concat([u, v], axis=0), [a, b], 1) < 1e-6
        assert _probe(lambda t: ad.slice_(t, (slice(1, 3), slice(0, 2))), [a]) < 1e-6

    def test_reshape_swapaxes(self):
        x = self.RNG.child("r").normal((2, 3, 4))
        assert _probe(lambda t: ad.reshape(t, (6, 4)), [x]) < 1e-6
        assert _probe(lambda t: ad.reshape(t, (4, -1)), [x]) < 1e-6
        assert _probe(lambda t: ad.swapaxes(t, 1, 2), [x]) < 1e-6
        assert _probe(lambda t: ad.swapaxes(t, 0, 2), [x]) < 1e-6
        # a reshape of swapped axes, as the attention heads use it
        assert _probe(lambda t: ad.reshape(ad.swapaxes(t, 0, 1), (3, 8)), [x]) < 1e-6

    def test_linear(self):
        x = self.RNG.child("s").normal((5, 4))
        w = self.RNG.child("t").normal((4, 3))
        b = self.RNG.child("u").normal(3)
        for i in range(3):
            assert _probe(ad.linear, [x, w, b], i) < 1e-6, i
        npt.assert_allclose(ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data, x @ w + b, rtol=1e-14)

    def test_linear_without_bias(self):
        x = self.RNG.child("s").normal((5, 4))
        w = self.RNG.child("t").normal((4, 3))
        for i in range(2):
            assert _probe(ad.linear, [x, w], i) < 1e-6, i
        npt.assert_array_equal(ad.linear(ad.Tensor(x), ad.Tensor(w)).data, x @ w)

    @staticmethod
    def _feed_forward_inputs(seed, rows, d, d_ff):
        rng = RngStream(seed, "feed-forward")
        shapes = {"x": (rows, d), "ln_g": (d,), "ln_b": (d,), "w1": (d, d_ff), "b1": (d_ff,), "w2": (d_ff, d), "b2": (d,)}
        return [rng.child(name).normal(shape) for name, shape in shapes.items()]

    @staticmethod
    def _ff_gens(count):
        return [RngStream(45, "ff-drop", i).generator() for i in range(count)]

    def test_feed_forward(self):
        arrays = self._feed_forward_inputs(30, 6, 4, 7)
        for p in (0.0, 0.3):

            def op(*tensors, _p=p):
                return ad.feed_forward(*tensors, _p, self._ff_gens(2) if _p else None)

            for i in range(7):
                assert _probe(op, arrays, i) < 1e-6, (p, i)

    def test_feed_forward_matches_the_unfused_chain_bit_for_bit(self):
        arrays = self._feed_forward_inputs(31, 8, 5, 9)
        weights = RngStream(32, "ff-weights").normal((8, 5))

        def run(fused, p, x_grad):
            tensors = [ad.Tensor(a, requires_grad=x_grad or i > 0) for i, a in enumerate(arrays)]
            x, ln_g, ln_b, w1, b1, w2, b2 = tensors
            gens = self._ff_gens(2) if p else None
            with ad.Tape() as tape:
                if fused:
                    out = ad.feed_forward(x, ln_g, ln_b, w1, b1, w2, b2, p, gens)
                else:
                    a = ad.gelu(ad.linear(ad.layer_norm(x, ln_g, ln_b), w1, b1))
                    out = ad.linear(ad.dropout(a, p, gens) if p else a, w2, b2)
                tape.backward(ad.sum_(ad.mul(out, ad.Tensor(weights))))
            return out.data, [t.grad for t in tensors]

        for p in (0.0, 0.3):
            for x_grad in (True, False):
                out, grads = run(True, p, x_grad)
                ref_out, ref_grads = run(False, p, x_grad)
                npt.assert_array_equal(out, ref_out)
                assert (grads[0] is None) == (not x_grad)
                for got, want in zip(grads, ref_grads):
                    assert (got is None and want is None) or np.array_equal(got, want), (p, x_grad)

    @pytest.mark.parametrize("p", [0.0, 0.1])
    @pytest.mark.parametrize("w2_grad", [True, False])
    def test_feed_forward_row_blocks_match_the_unblocked_oracle_bit_for_bit(self, p, w2_grad):
        block = ad._FF_BLOCK_ROWS
        for rows in (1, block - 1, block, block + 1, 3 * block + 5):
            # an odd d_ff, so most blocks start off any SIMD alignment
            arrays = self._feed_forward_inputs(34, rows, 5, 9)
            weights = RngStream(35, "ff-weights", rows).normal((rows, 5))
            count = next(c for c in (4, 3, 2, 1) if rows % c == 0)
            tensors = [ad.Tensor(a, requires_grad=i != 5 or w2_grad) for i, a in enumerate(arrays)]
            with ad.Tape() as tape:
                out = ad.feed_forward(*tensors, p, self._ff_gens(count) if p else None)
                tape.backward(ad.sum_(ad.mul(out, ad.Tensor(weights))))
            ref_out, ref_grads = reference_feed_forward(*arrays, weights, p, self._ff_gens(count) if p else None)
            assert np.array_equal(out.data, ref_out), (rows, p)
            for i, (t, want) in enumerate(zip(tensors, ref_grads)):
                if i == 5 and not w2_grad:
                    assert t.grad is None
                else:
                    assert np.array_equal(t.grad, want), (rows, p, i)

    def test_feed_forward_shape_errors(self):
        x, ln_g, ln_b, w1, b1, w2, b2 = (ad.Tensor(a) for a in self._feed_forward_inputs(33, 6, 4, 7))
        for p in (-0.1, 1.0):
            with pytest.raises(ShapeMismatch):
                ad.feed_forward(x, ln_g, ln_b, w1, b1, w2, b2, p, self._ff_gens(2))
        for gens in (self._ff_gens(4), [], None):
            with pytest.raises(ShapeMismatch):
                ad.feed_forward(x, ln_g, ln_b, w1, b1, w2, b2, 0.5, gens)
        with pytest.raises(ShapeMismatch):
            ad.feed_forward(x, ln_g, ln_b, w1, b2, w2, b2)
        with pytest.raises(ShapeMismatch):
            ad.feed_forward(x, ln_g, ln_b, w1, b1, w1, b2)
        # a norm gain or bias of the wrong size
        with pytest.raises(ShapeMismatch):
            ad.feed_forward(x, b1, ln_b, w1, b1, w2, b2)
        with pytest.raises(ShapeMismatch):
            ad.feed_forward(x, ln_g, b1, w1, b1, w2, b2)

    @staticmethod
    def _attention_inputs(seed, batch, n, width, d_in=None):
        """h (batch, n, d_in), the norm's gain and bias, then wq, bq, wk, bk, wv and bv projecting d_in columns to width.

        The weights are scaled by 1 / sqrt(d_in), so q, k and v have
        entries of about the normed rows' size.
        """
        rng = RngStream(seed, "attention")
        d_in = width if d_in is None else d_in
        arrays = [rng.child("x").normal((batch, n, d_in)), 1.0 + 0.5 * rng.child("ln_g").normal((d_in,)), rng.child("ln_b").normal((d_in,))]
        for name in ("q", "k", "v"):
            arrays += [rng.child("w" + name).normal((d_in, width)) / np.sqrt(d_in), rng.child("b" + name).normal((width,))]
        return arrays

    @staticmethod
    def _selecting(d, columns, biases=(0.0, 0.0, 0.0)):
        """wq, bq, wk, bk, wv and bv that select three lists of columns of the normed rows x (d columns).

        Each weight is ones and zeros, so every projected entry is one
        entry of x plus exact zeros, plus its bias; and x's adjoint holds,
        in each selected column, that column's adjoint of q, k or v.
        """
        sel = np.eye(d)
        arrays = []
        for cols, bias in zip(columns, biases):
            arrays += [np.ascontiguousarray(sel[:, cols]), np.full(len(cols), bias)]
        return arrays

    @classmethod
    def _identity_v_inputs(cls, signs, heads, n):
        """Attention inputs whose q and k are c times ``signs`` (batch, n, 2·width),
        and whose v is 2c times the identity in each head's first n columns and
        0 elsewhere, for c = 1 / sqrt(1 + 1e-5).

        Each row of h is ±1 with as many of each (a last block of columns
        balances it), so its mean is exactly 0 and its variance exactly 1:
        at unit gain and zero bias the normed rows are exactly ±c, and v's
        bias c turns them into 0 and 2c.
        """
        batch, _, width = signs.shape[0], signs.shape[1], signs.shape[2] // 2
        dh = width // heads
        eye = -np.ones((batch, n, width))
        for hd in range(heads):
            eye[:, :, hd * dh : hd * dh + n] = 2.0 * np.eye(n) - 1.0
        rows = np.concatenate([signs, eye], axis=-1)
        ones = (rows > 0).sum(axis=-1, keepdims=True)
        h = np.concatenate([rows, np.where(np.arange(3 * width) < 3 * width - ones, 1.0, -1.0)], axis=-1)
        d = 6 * width
        columns = [list(range(i * width, (i + 1) * width)) for i in range(3)]
        return [h, np.ones(d), np.zeros(d)] + cls._selecting(d, columns, (0.0, 0.0, 1.0 / np.sqrt(1.0 + 1e-5)))

    @staticmethod
    def _gens(seed, count):
        return [RngStream(seed, "att-drop", i).generator() for i in range(count)]

    def test_attention(self):
        # one sequence and two
        n = 3
        for batch in (1, 2):
            for heads in (1, 2, 4):
                for p in (0.0, 0.3):
                    arrays = self._attention_inputs(heads, batch, n, 8, d_in=5)

                    def op(*tensors, _batch=batch, _heads=heads, _p=p):
                        gens = self._gens(50 + _heads, _batch * _heads) if _p else None
                        return ad.attention(*tensors, _heads, 0.7, _p, gens)

                    _probe_attention(op, arrays, (batch, heads, p))

    def test_attention_matches_per_sequence_head_oracle(self):
        batch, n = 3, 4
        for heads in (1, 2, 4):
            dh = 5
            width = heads * dh
            arrays = self._attention_inputs(10 + heads, batch, n, width)
            for p in (0.0, 0.4):
                gens = self._gens(60 + heads, batch * heads) if p else None
                out = ad.attention(*map(ad.Tensor, arrays), heads, 0.45, p, gens).data
                ref_gens = self._gens(60 + heads, batch * heads) if p else None
                expected, masks = reference_attention(*arrays, heads, 0.45, p, ref_gens)
                npt.assert_allclose(out, expected, rtol=0, atol=1e-12, err_msg=f"heads {heads}, p {p}")
                # with v a multiple of the identity in each head's first n
                # columns, the output is that head's dropped attention
                # matrix times 2c: its zeros are exactly the dropout mask's
                signs = np.where(RngStream(12, "signs", heads).uniform((batch, n, 2 * width)) < 0.5, -1.0, 1.0)
                gens = self._gens(60 + heads, batch * heads) if p else None
                att = ad.attention(*map(ad.Tensor, self._identity_v_inputs(signs, heads, n)), heads, 0.45, p, gens).data
                att = att.reshape(batch, n, heads, dh)[..., :n].swapaxes(1, 2)
                npt.assert_array_equal(att == 0, masks == 0)
                if p:
                    assert (masks == 0).any() and (masks != 0).any()

    def test_each_head_matches_attention_over_its_columns_alone(self):
        # bit for bit, also for heads one column wide, whose strided
        # columns BLAS would sum in another order than a contiguous copy.
        # The weights select q, k and v exactly from the normed rows x, so
        # the norm's gain and bias adjoints are, column by column, sums over
        # the rows of q's, k's and v's adjoints (times xhat for the gain):
        # a head alone must give the same sums in its columns
        batch, heads = 3, 4

        def run(arrays, columns, n_heads, weights):
            d = arrays[0].shape[-1]
            tensors = [ad.Tensor(a, requires_grad=True) for a in arrays + self._selecting(d, columns)]
            with ad.Tape() as tape:
                out = ad.attention(*tensors, n_heads, 0.6)
                tape.backward(ad.sum_(ad.mul(out, ad.Tensor(weights))))
            picked = [c for cols in columns for c in cols]
            return out.data, tensors[1].grad[picked], tensors[2].grad[picked]

        for n in (2, 7):
            for dh in (1, 3):
                width = heads * dh
                rng = RngStream(5, "heads", n, dh)
                arrays = [rng.child("h").normal((batch, n, 3 * width)), rng.child("g").normal(3 * width), rng.child("b").normal(3 * width)]
                weights = rng.child("w").normal((batch, n, width))
                columns = [list(range(i * width, (i + 1) * width)) for i in range(3)]
                out, dgain, dbias = run(arrays, columns, heads, weights)
                for hd in range(heads):
                    cols = slice(hd * dh, (hd + 1) * dh)
                    alone = run(arrays, [c[cols] for c in columns], 1, np.ascontiguousarray(weights[..., cols]))
                    picked = [i * width + c for i in range(3) for c in range(width)[cols]]
                    for got, want in zip((out[..., cols], dgain[picked], dbias[picked]), alone):
                        npt.assert_array_equal(got, want, err_msg=f"n {n}, dh {dh}, head {hd}")

    def test_batched_shape_errors(self):
        x = ad.Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, ad.Tensor(np.zeros((3, 2))), ad.Tensor(np.zeros(2)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, ad.Tensor(np.zeros((3, 2))))
        g, w, b = ad.Tensor(np.ones(4)), ad.Tensor(np.zeros((4, 4))), ad.Tensor(np.zeros(4))
        ad.attention(x, g, b, w, b, w, b, w, b, 2, 1.0)
        # a weight of the wrong size, in each of the three places
        for wrong in (ad.Tensor(np.zeros((4, 2))), ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros(4))):
            for at in (2, 4, 6):
                params = [g, b, w, b, w, b, w, b]
                params[at] = wrong
                with pytest.raises(ShapeMismatch):
                    ad.attention(x, *params, 2, 1.0)
        # a bias of the wrong size, in each of the three places, and a
        # norm gain or bias of the wrong size
        for at in (0, 1, 3, 5, 7):
            params = [g, b, w, b, w, b, w, b]
            params[at] = ad.Tensor(np.zeros(3))
            with pytest.raises(ShapeMismatch):
                ad.attention(x, *params, 2, 1.0)
        with pytest.raises(ShapeMismatch):
            ad.attention(ad.Tensor(np.zeros((6, 4))), g, b, w, b, w, b, w, b, 2, 1.0)
        with pytest.raises(ShapeMismatch):
            ad.attention(x, g, b, w, b, w, b, w, b, 3, 1.0)
        with pytest.raises(ShapeMismatch):
            ad.attention(x, g, b, w, b, w, b, w, b, 2, 1.0, 0.5, [RngStream(0, "a", i).generator() for i in range(3)])
        with pytest.raises(ShapeMismatch):
            ad.attention(x, g, b, w, b, w, b, w, b, 2, 1.0, 1.0, [RngStream(0, "a", i).generator() for i in range(4)])
        with pytest.raises(ShapeMismatch):
            ad.reshape(ad.Tensor(np.zeros((2, 3))), (4, 2))
        with pytest.raises(ShapeMismatch):
            ad.dropout(ad.Tensor(np.zeros((5, 2))), 0.5, [RngStream(0, "d", i).generator() for i in range(2)])

    def test_embedding_lookup(self):
        table = self.RNG.child("k").normal((4, 9))
        ids = np.array([1, 3, 3, 0])
        assert _probe(lambda t: ad.embedding_lookup(t, ids), [table]) < 1e-6

    def test_layer_norm(self):
        x = self.RNG.child("l").normal((5, 8))
        gain = self.RNG.child("m").normal(8) * 0.5 + 1.0
        bias = self.RNG.child("n").normal(8) * 0.1
        assert _probe(ad.layer_norm, [x, gain, bias], 0) < 1e-5
        assert _probe(ad.layer_norm, [x, gain, bias], 1) < 1e-6
        assert _probe(ad.layer_norm, [x, gain, bias], 2) < 1e-6

    def test_losses(self):
        pred = self.RNG.child("o").normal((3, 5))
        target = self.RNG.child("p").normal((3, 5))
        assert _probe(ad.mse_loss, [pred, target], 0) < 1e-6
        labels = np.array([0, 2, 4])
        assert _probe(lambda t: ad.cross_entropy_loss(t, labels), [pred]) < 1e-6
        weights = np.array([0.5, 2.0, 0.25])
        assert _probe(lambda t: ad.cross_entropy_loss(t, labels, weights), [pred]) < 1e-6

    def test_weighted_cross_entropy_is_weighted_sum_of_rows(self):
        logits = self.RNG.child("ce").normal((4, 6))
        labels = np.array([5, 0, 2, 2])
        weights = np.array([0.1, 3.0, 0.7, 1.5])
        logp = logits - logits.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        expected = -(weights * logp[np.arange(4), labels]).sum()
        out = ad.cross_entropy_loss(ad.Tensor(logits), labels, weights)
        npt.assert_allclose(float(out.data), expected, rtol=1e-13)
        with pytest.raises(ShapeMismatch):
            ad.cross_entropy_loss(ad.Tensor(logits), labels, weights[:3])

    def test_dropout_fixed_mask(self):
        x = self.RNG.child("q").normal((6, 6))

        def op(t):
            return ad.dropout(t, 0.4, [RngStream(42, "fixed-mask").generator()])

        assert _probe(op, [x]) < 1e-6

    def test_dropout_block_generators(self):
        # a list of generators draws the mask of consecutive leading-axis
        # blocks, each exactly as that generator alone would draw it
        x = np.ones((6, 4))
        gens = [RngStream(43, "block", i).generator() for i in range(3)]
        out = ad.dropout(ad.Tensor(x), 0.5, gens).data
        for i in range(3):
            alone = ad.dropout(ad.Tensor(x[:2]), 0.5, [RngStream(43, "block", i).generator()]).data
            npt.assert_array_equal(out[2 * i : 2 * i + 2], alone)

        def op(t):
            return ad.dropout(t, 0.4, [RngStream(44, "b", i).generator() for i in range(2)])

        assert _probe(op, [self.RNG.child("y").normal((4, 3))]) < 1e-6

    def test_random_shapes_sweep(self):
        rng = RngStream(8, "shapes").generator()
        for trial in range(20):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            inner = int(rng.integers(1, 7))
            a = rng.standard_normal((rows, inner))
            b = rng.standard_normal((inner, cols))
            assert _probe(ad.matmul, [a, b], trial % 2) < 1e-6


class TestAttentionBlocks:
    """The attention adjoint over blocks of whole sequences, or of whole
    heads of one sequence, against one block."""

    BATCH, N, SCALE = 3, 4, 0.6

    def _op(self, heads, p):
        def op(*tensors):
            gens = TestGradientChecks._gens(70 + heads, self.BATCH * heads) if p else None
            return ad.attention(*tensors, heads, self.SCALE, p, gens)

        return op

    def _run(self, heads, p, arrays):
        tensors = [ad.Tensor(x, requires_grad=True) for x in arrays]
        weights = RngStream(71, "att-weights").normal(arrays[0].shape)
        with ad.Tape() as tape:
            out = self._op(heads, p)(*tensors)
            tape.backward(ad.sum_(ad.mul(out, ad.Tensor(weights))))
        return out.data, [t.grad for t in tensors]

    # budgets in sequences: one sequence per block, then blocks of 2 and
    # 1, then less than one sequence's heads: blocks of one head at 1 and
    # 2 heads, and of 3 heads and then 1 at 4 heads
    @pytest.mark.parametrize("per_block", [1, 2, 0.75])
    def test_blocks_match_one_block_and_the_oracles(self, monkeypatch, per_block):
        for heads in (1, 2, 4):
            arrays = TestGradientChecks._attention_inputs(20 + heads, self.BATCH, self.N, 3 * heads)
            for p in (0.0, 0.3):
                assert ad._ATTENTION_BLOCK >= self.BATCH * heads * self.N**2
                whole_out, whole = self._run(heads, p, arrays)
                with monkeypatch.context() as m:
                    m.setattr(ad, "_ATTENTION_BLOCK", int(per_block * heads * self.N**2))
                    out, blocked = self._run(heads, p, arrays)
                    _probe_attention(self._op(heads, p), arrays, (heads, p))
                npt.assert_array_equal(out, whole_out)
                for a, b in zip(blocked, whole):
                    npt.assert_array_equal(a, b, err_msg=f"heads {heads}, p {p}")
                gens = TestGradientChecks._gens(70 + heads, self.BATCH * heads) if p else None
                expected, _ = reference_attention(*arrays, heads, self.SCALE, p, gens)
                npt.assert_allclose(out, expected, rtol=0, atol=1e-12, err_msg=f"heads {heads}, p {p}")


class TestLeadingAxes:
    """An op on (B, n, k) inputs gives, bit for bit, the values and
    adjoints of the same op on the flattened (B * n, k) rows."""

    B, N = 3, 4
    RNG = RngStream(90, "leading-axes")

    @staticmethod
    def _run(op, arrays, weights=None):
        """Output and input adjoints of sum(op(*arrays) * weights); the
        weights default to one seeded draw in the output's flat order."""
        tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
        with ad.Tape() as tape:
            out = op(*tensors)
            if weights is None:
                weights = RngStream(91, "weights").normal(out.size).reshape(out.shape)
            tape.backward(ad.sum_(ad.mul(out, ad.Tensor(weights))))
        return out.data, [t.grad for t in tensors]

    def _assert_rows_match(self, op, x, params, op_rows=None):
        out, grads = self._run(op, [x] + params)
        want_out, want = self._run(op_rows or op, [x.reshape(-1, x.shape[-1])] + params)
        if out.ndim:
            assert out.shape == x.shape[:-1] + want_out.shape[-1:]
        npt.assert_array_equal(out, want_out.reshape(out.shape))
        npt.assert_array_equal(grads[0], want[0].reshape(x.shape))
        for got, expected in zip(grads[1:], want[1:]):
            npt.assert_array_equal(got, expected)

    def test_linear(self):
        x = self.RNG.child("x").normal((self.B, self.N, 5))
        w = self.RNG.child("w").normal((5, 3))
        b = self.RNG.child("b").normal(3)
        self._assert_rows_match(ad.linear, x, [w, b])
        self._assert_rows_match(ad.linear, x, [w])

    def test_linear_of_no_features(self):
        # the (B, 1, 0) time features of a model with time_dim 0
        x, w = np.zeros((self.B, 1, 0)), np.zeros((0, 3))
        b = self.RNG.child("b0").normal(3)
        out, grads = self._run(ad.linear, [x, w, b])
        npt.assert_array_equal(out, np.broadcast_to(b, (self.B, 1, 3)))
        assert grads[0].shape == (self.B, 1, 0) and grads[1].shape == (0, 3)
        weights = RngStream(91, "weights").normal(out.size).reshape(-1, 3)
        npt.assert_array_equal(grads[2], weights.sum(axis=0))

    def test_feed_forward(self):
        x = self.RNG.child("ff-x").normal((self.B, self.N, 5))
        shapes = (("ln_g", (5,)), ("ln_b", (5,)), ("w1", (5, 7)), ("b1", (7,)), ("w2", (7, 5)), ("b2", (5,)))
        params = [self.RNG.child(name).normal(shape) for name, shape in shapes]
        for p in (0.0, 0.3):

            def op(*tensors, _p=p):
                # one dropout stream per sequence, drawn afresh for each run
                return ad.feed_forward(*tensors, _p, TestGradientChecks._ff_gens(self.B) if _p else None)

            self._assert_rows_match(op, x, params)

    def test_cross_entropy_loss(self):
        logits = self.RNG.child("logits").normal((self.B, self.N, 6))
        targets = self.RNG.child("targets").generator().integers(0, 6, size=(self.B, self.N))
        weights = self.RNG.child("ce-weights").uniform((self.B, self.N))
        self._assert_rows_match(
            lambda t: ad.cross_entropy_loss(t, targets), logits, [], lambda t: ad.cross_entropy_loss(t, targets.ravel())
        )
        self._assert_rows_match(
            lambda t: ad.cross_entropy_loss(t, targets, weights),
            logits,
            [],
            lambda t: ad.cross_entropy_loss(t, targets.ravel(), weights.ravel()),
        )
        with pytest.raises(ShapeMismatch):
            ad.cross_entropy_loss(ad.Tensor(logits), targets.ravel())
        with pytest.raises(ShapeMismatch):
            ad.cross_entropy_loss(ad.Tensor(logits), targets, weights.ravel())

    def test_embedding_lookup(self):
        d = 4
        table = self.RNG.child("table").normal((d, 9))
        ids = np.array([[1, 3, 3, 0], [8, 1, 2, 3], [0, 0, 5, 1]])  # repeats accumulate
        weights = self.RNG.child("emb-weights").normal((self.B, d, self.N))
        out, (grad,) = self._run(lambda t: ad.embedding_lookup(t, ids), [table], weights)
        flat_weights = np.moveaxis(weights, 1, 0).reshape(d, -1)
        want_out, (want,) = self._run(lambda t: ad.embedding_lookup(t, ids.ravel()), [table], flat_weights)
        assert out.shape == (self.B, d, self.N)
        npt.assert_array_equal(np.moveaxis(out, 1, 0).reshape(d, -1), want_out)
        npt.assert_array_equal(grad, want)
        with pytest.raises(ShapeMismatch):
            ad.embedding_lookup(ad.Tensor(table), 3)


def _saved_arrays(fn):
    """Every distinct array a backward closure keeps alive.

    Walks the closure's cells through the functions, tensors, lists and
    tuples they hold; a view counts as the array it views.
    """
    seen, found, todo = set(), {}, [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, ad.Tensor):
            todo.extend([obj.data, obj.grad])
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return list(found.values())


class TestSavedForBackward:
    """What the attention, layer-norm and feed-forward adjoints keep between the passes."""

    def test_attention_keeps_no_score_stack(self):
        """Nor the normed rows, q, k or v: of arrays of their size, the entry keeps h itself alone."""
        batch, heads, n, width = 2, 2, 64, 8
        arrays = TestGradientChecks._attention_inputs(80, batch, n, width)
        stack_bytes = batch * heads * n * n * 8
        for p in (0.0, 0.3):
            gens = TestGradientChecks._gens(81, batch * heads) if p else None
            tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
            with ad.Tape() as tape:
                ad.attention(*tensors, heads, 0.5, p, gens)
            (_, _, backward_fn), = tape.entries
            saved = _saved_arrays(backward_fn)
            assert sum(a.nbytes for a in saved) < stack_bytes, (p, saved, stack_bytes)
            h_sized = [a for a in saved if a.size == batch * n * width]
            assert len(h_sized) == 1 and h_sized[0] is tensors[0].data, p

    def test_attention_adjoint_writes_k_and_v_adjoints_over_their_rows(self):
        """The adjoint holds q, k and v, one fresh adjoint (q's) and a block's
        temporaries: over one entry's backward on 8 sequences of 256 rows
        and 2 heads (one head a block), it peaks at 5.5 arrays of
        (batch·n, m) floats.  With fresh buffers for all three adjoints it
        peaked at 7.5, with or without dropout."""
        batch, heads, n, width = 8, 2, 256, 64
        rows_bytes = batch * n * width * 8
        for p in (0.0, 0.1):
            tensors = [ad.Tensor(a, requires_grad=True) for a in TestGradientChecks._attention_inputs(88, batch, n, width)]
            gens = TestGradientChecks._gens(89, batch * heads) if p else None
            with ad.Tape() as tape:
                out = ad.attention(*tensors, heads, 0.125, p, gens)
            (_, _, backward_fn), = tape.entries
            g = RngStream(90, "att-peak").normal(out.shape)
            del out
            tracemalloc.start()
            try:
                backward_fn(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6.5 * rows_bytes, (p, peak / rows_bytes)

    def test_layer_norm_keeps_no_activation_of_its_own(self):
        rows, d = 64, 16
        x = ad.Tensor(RngStream(82, "ln").normal((rows, d)), requires_grad=True)
        gain = ad.Tensor(np.ones(d), requires_grad=True)
        bias = ad.Tensor(np.zeros(d), requires_grad=True)
        with ad.Tape() as tape:
            ad.layer_norm(x, gain, bias)
        (_, _, backward_fn), = tape.entries
        own = [a for a in _saved_arrays(backward_fn) if a is not x.data and a.shape == (rows, d)]
        assert own == []

    def test_feed_forward_keeps_only_its_input(self):
        """Not the pre-activation, nor the normed rows: of arrays of u's
        shape only the boolean keep mask (with ``p > 0``), of h's size h itself."""
        rows, d, d_ff = 12, 4, 32
        arrays = TestGradientChecks._feed_forward_inputs(84, rows, d, d_ff)
        for p in (0.0, 0.3):
            x, ln_g, ln_b, w1, b1, w2, b2 = (ad.Tensor(a, requires_grad=True) for a in arrays)
            with ad.Tape() as tape:
                ad.feed_forward(x, ln_g, ln_b, w1, b1, w2, b2, p, TestGradientChecks._ff_gens(3) if p else None)
            (_, _, backward_fn), = tape.entries
            saved = _saved_arrays(backward_fn)
            wide = [a for a in saved if a.shape == (rows, d_ff)]
            assert [a.dtype for a in wide] == ([np.dtype(bool)] if p else []), p
            h_sized = [a for a in saved if a.size == rows * d]
            assert len(h_sized) == 1 and h_sized[0] is x.data, p

    def test_linear_keeps_its_input_only_for_the_weight_gradient(self):
        rows, k, m = 12, 5, 3
        rng = RngStream(86, "linear-saved")
        w_data = rng.child("w").normal((k, m))
        # a contiguous input, and a transposed view that the op's reshape copies (as to_points' input)
        for x_data in (rng.child("x").normal((rows, k)), rng.child("xt").normal((k, rows)).T):
            for w_grad in (True, False):
                x, w = ad.Tensor(x_data, requires_grad=True), ad.Tensor(w_data, requires_grad=w_grad)
                with ad.Tape() as tape:
                    ad.linear(x, w)
                (_, _, backward_fn), = tape.entries
                inputs = [a for a in _saved_arrays(backward_fn) if a.size == rows * k]
                assert len(inputs) == (1 if w_grad else 0), (x_data.flags.c_contiguous, w_grad)


class TestAdam:
    def test_zero_grad_no_change(self):
        store = ad.ParamStore([("w", (2,), False)])
        w = store["w"]
        w.data[...] = [1.0, -2.0]
        with ad.Tape() as tape:
            loss = ad.mse_loss(ad.mul(w, ad.Tensor(np.zeros(2))), ad.Tensor(np.zeros(2)))
            tape.backward(loss)
        ad.adam_step(store, lr=0.1)
        npt.assert_array_equal(w.data, [1.0, -2.0])

    def test_constant_grad_step_size_approaches_lr(self):
        # with a constant gradient the bias-corrected update tends to
        # lr * sign(g) in magnitude
        store = ad.ParamStore([("w", (1,), False)])
        w = store["w"]
        w.data[...] = [0.0]
        g = np.array([3.7])
        for _ in range(500):
            w.grad = g.copy()
            ad.adam_step(store, lr=0.01)
        w.grad = g.copy()
        before = w.data.copy()
        ad.adam_step(store, lr=0.01)
        npt.assert_allclose(before - w.data, [0.01], rtol=1e-6)

    def test_quadratic_convergence(self):
        store = ad.ParamStore([("w", (1,), False)])
        w = store["w"]
        w.data[...] = [5.0]
        for _ in range(2000):
            with ad.Tape() as tape:
                loss = ad.mse_loss(w, ad.Tensor(np.array([2.0])))
                tape.backward(loss)
            ad.adam_step(store, lr=1e-2)
        assert abs(float(w.data[0]) - 2.0) < 1e-3

    def test_grads_cleared_after_step(self):
        store = ad.ParamStore([("w", (3,), False)])
        w = store["w"]
        w.data[...] = np.ones(3)
        w.grad = np.ones(3)
        ad.adam_step(store, lr=0.1)
        assert w.grad is None

    @staticmethod
    def _stores():
        """Two stores of the same values: a row table beside whole parameters."""
        stores = []
        for _ in range(2):
            store = ad.ParamStore([("pos", (12, 3), True), ("w", (4, 3), False), ("u", (4, 3), False), ("b", (3,), False)])
            init = RngStream(5, "adam-rows")
            for name in store.names():
                store[name].data[...] = init.child(name).normal(store[name].shape)
            stores.append(store)
        return stores

    @staticmethod
    def _train_against_reference(stores, skip_middle, steps=50):
        """Adam and the reference Adam on the same gradients; returns the rows reached."""
        new, ref = stores
        reached = 0
        for step in range(steps):
            rows, grads = TestAdam._grads(step, skip_middle)
            reached = max(reached, rows)
            kept = {name: g.copy() for name, g in grads.items()}
            new.reach("pos", rows)
            for store in stores:
                for name, g in grads.items():
                    store[name].grad = g
            ad.adam_step(new, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
            reference_adam_step(ref, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
            for name, g in grads.items():
                assert np.array_equal(g, kept[name]), f"adam_step wrote into the {name} gradient"
            assert new.rows_reached["pos"] == reached
            for name in new.names():
                for got, want in ((new[name].data, ref[name].data), (new.moment1[name], ref.moment1[name]), (new.moment2[name], ref.moment2[name])):
                    assert np.array_equal(got, want), f"{name} at step {step}"
        return reached

    @staticmethod
    def _grads(step, skip_middle):
        rng = RngStream(5, "adam-grads", step)
        rows = int(rng.child("rows").integers(1, 9))
        pos_grad = np.zeros((12, 3))
        pos_grad[:rows] = rng.child("pos").normal((rows, 3))
        shared = rng.child("w").normal((4, 3))
        grads = {"pos": pos_grad, "w": shared, "u": shared}
        if step % 3:
            grads["b"] = rng.child("b").normal((3,))
        if skip_middle and step % 4 == 1:
            del grads["u"]
        return rows, grads

    def test_matches_reference_with_unreached_trailing_rows(self):
        # a row table whose last rows never get a gradient, beside whole
        # parameters; one gradient array is shared by two of them, as an
        # op's adjoint may be
        new, _ = stores = self._stores()
        reached = self._train_against_reference(stores, skip_middle=False)
        assert reached < 12
        assert not new.moment1["pos"][reached:].any() and not new.moment2["pos"][reached:].any()

    def test_matches_reference_when_a_middle_parameter_has_no_gradient(self):
        # u lies between w and b in the buffers: without its gradient the
        # step updates two runs and leaves u's value and moments alone
        new, _ = stores = self._stores()
        self._train_against_reference(stores, skip_middle=True)
        assert new.offsets["w"] < new.offsets["u"] < new.offsets["b"] < new.offsets["pos"]

    def test_step_without_gradients_changes_nothing_but_counts(self):
        new, _ = stores = self._stores()
        self._train_against_reference(stores, skip_middle=False, steps=5)
        before = [buf.copy() for buf in (new.values, new.first, new.second)]
        ad.adam_step(new, lr=0.01)
        assert new.step_count == 6
        for got, want in zip((new.values, new.first, new.second), before):
            assert np.array_equal(got, want)


class TestParamStore:
    SPECS = [("a", (2, 3), False), ("pos", (5, 2), True), ("b", (4,), False), ("rows", (3, 2), True), ("c", (1,), False)]

    def test_parameters_and_moments_are_views_of_three_buffers(self):
        store = ad.ParamStore(self.SPECS)
        assert store.names() == [name for name, _, _ in self.SPECS]
        buffers = (store.values, store.first, store.second)
        assert all(buf.shape == (6 + 10 + 4 + 6 + 1,) for buf in buffers)
        for name, shape, _ in self.SPECS:
            views = (store[name].data, store.moment1[name], store.moment2[name])
            for i, view in enumerate(views):
                assert view.shape == shape, name
                assert [np.shares_memory(view, buf) for buf in buffers] == [j == i for j in range(3)], name
        # the row tables fill the buffers' tail, in list order
        tail = store.values[-(10 + 6):]
        assert np.shares_memory(tail[:10], store["pos"].data) and np.shares_memory(tail[10:], store["rows"].data)
        assert not np.shares_memory(store.values[:-16], store["pos"].data)
        assert list(store.offsets) == ["a", "b", "c", "pos", "rows"]
        assert store.rows_reached == {"pos": 0, "rows": 0}

    def test_state_is_adopted_not_copied(self):
        state = tuple(np.arange(27.0) + k for k in range(3))
        store = ad.ParamStore(self.SPECS, state)
        assert all(got is want for got, want in zip((store.values, store.first, store.second), state))
        assert np.shares_memory(store["pos"].data, state[0]) and np.shares_memory(store.moment2["a"], state[2])
        assert np.array_equal(store["pos"].data.ravel(), state[0][11:21])
        # each row table reaches one past its last row with a nonzero moment
        assert store.rows_reached == {"pos": 5, "rows": 3}
        first, second = np.zeros(27), np.zeros(27)
        assert ad.ParamStore(self.SPECS, (state[0], first, second)).rows_reached == {"pos": 0, "rows": 0}
        first[11 + 2], second[21] = 1.0, -1.0  # pos row 1's first moment, rows row 0's second
        assert ad.ParamStore(self.SPECS, (state[0], first, second)).rows_reached == {"pos": 2, "rows": 1}
        for bad in (state[:2], (*state[:2], state[2][1:]), np.zeros((3, 26))):
            with pytest.raises(ShapeMismatch, match="state of shape"):
                ad.ParamStore(self.SPECS, bad)

    def test_duplicate_name_is_refused(self):
        with pytest.raises(KeyError):
            ad.ParamStore([("w", (2,), False), ("w", (3,), False)])

    def test_loaded_checkpoint_keeps_views_and_resumes_exactly(self, tmp_path):
        # a model trained in memory takes the same next step as its
        # loaded copy, whose state is the same bytes
        model = M.SclmModel(
            noise="masked", vocab=build_vocab([list("abcd")]), cache=build_cache(CurveConfig(l_min=2, l_max=8)),
            schedule=M.build_schedule(10, "linear"),
            backbone=M.BackboneConfig(layers=1, d_model=8, d_ff=16, dropout=0.1, max_positions=32, time_dim=4),
            embed_dim=4, seed=3,
        )
        batches = [[RngStream(3, "batch", i, j).generator().integers(1, 5, size=6) for j in range(3)] for i in range(4)]
        optimizer = M.AdamConfig(lr=1e-2)
        for step in range(3):
            M.train_step(model, batches[step], optimizer, step)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=3)
        loaded, _, _ = checkpoint.load(path)
        for name in loaded.store.names():
            for view, buf in ((loaded.store[name].data, loaded.store.values), (loaded.store.moment1[name], loaded.store.first), (loaded.store.moment2[name], loaded.store.second)):
                assert np.shares_memory(view, buf), name
        assert loaded.store.rows_reached == model.store.rows_reached and loaded.store.step_count == model.store.step_count
        records = [M.train_step(m, batches[3], optimizer, 3) for m in (model, loaded)]
        assert records[0] == records[1]
        for got, want in zip((loaded.store.values, loaded.store.first, loaded.store.second), (model.store.values, model.store.first, model.store.second)):
            assert np.array_equal(got, want)


class TestMlpGradient:
    def test_three_layer_mlp_matches_finite_differences(self):
        rng = RngStream(21, "mlp")
        dims = [6, 10, 8, 4]
        weights = [rng.child("w", i).normal((dims[i], dims[i + 1])) * 0.4 for i in range(3)]
        biases = [rng.child("b", i).normal(dims[i + 1]) * 0.1 for i in range(3)]
        x0 = rng.child("x").normal((5, 6))
        target = rng.child("y").normal((5, 4))

        def forward(ws):
            params = [ad.Tensor(w.copy(), requires_grad=True) for w in ws]
            with ad.Tape() as tape:
                h = ad.Tensor(x0)
                for i, (w, b) in enumerate(zip(params, biases)):
                    h = ad.matmul(h, w) + ad.Tensor(b)
                    if i < 2:
                        h = ad.relu(h)
                loss = ad.mse_loss(h, ad.Tensor(target))
                tape.backward(loss)
            return float(loss.data), params

        _, params = forward(weights)
        for i in range(3):
            def scalar(w, _i=i):
                ws = [v for v in weights]
                ws[_i] = w
                return forward(ws)[0]

            numeric = finite_difference_grad(scalar, weights[i], h=1e-5)
            assert relative_grad_error(numeric, params[i].grad) < 1e-4, i


class TestComposedBlock:
    def test_two_layer_transformer_block_grad(self):
        # a small end-to-end composition: the same structure the backbone uses
        rng = RngStream(9, "block")
        n, dm, dff = 5, 8, 16
        names = ["wq", "wk", "wv", "wo", "w1", "w2", "g1", "b1", "g2", "b2"]
        shapes = {
            "wq": (dm, dm), "wk": (dm, dm), "wv": (dm, dm), "wo": (dm, dm),
            "w1": (dm, dff), "w2": (dff, dm),
            "g1": (dm,), "b1": (dm,), "g2": (dm,), "b2": (dm,),
        }
        arrays = {k: rng.child(k).normal(shapes[k]) * 0.3 for k in names}
        arrays["g1"] = np.abs(arrays["g1"]) + 0.5
        arrays["g2"] = np.abs(arrays["g2"]) + 0.5
        x0 = rng.child("x").normal((n, dm))
        target = rng.child("y").normal((n, dm))

        def forward(vals):
            params = {k: ad.Tensor(vals[k].copy(), requires_grad=True) for k in names}
            x = ad.Tensor(x0)
            with ad.Tape() as tape:
                h = x
                for _ in range(2):
                    hn = ad.layer_norm(h, params["g1"], params["b1"])
                    q = ad.matmul(hn, params["wq"])
                    k = ad.matmul(hn, params["wk"])
                    v = ad.matmul(hn, params["wv"])
                    att = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dm)), axis=-1)
                    h = h + ad.matmul(ad.matmul(att, v), params["wo"])
                    hn2 = ad.layer_norm(h, params["g2"], params["b2"])
                    h = h + ad.matmul(ad.gelu(ad.matmul(hn2, params["w1"])), params["w2"])
                loss = ad.mse_loss(h, ad.Tensor(target))
                tape.backward(loss)
            return float(loss.data), params

        _, params = forward(arrays)
        for name in ("wq", "wv", "w1", "g1", "b2"):
            analytic = params[name].grad

            def scalar(v, _name=name):
                vals = {k: arrays[k] for k in names}
                vals[_name] = v
                return forward(vals)[0]

            numeric = finite_difference_grad(scalar, arrays[name], h=1e-5)
            assert relative_grad_error(numeric, analytic) < 1e-4, name
