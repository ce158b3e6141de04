"""Forward values, adjoint correctness, and optimizer behavior."""

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import autodiff as ad
from curvelang.errors import NonFinite, NotScalar, ShapeMismatch
from curvelang.rng import RngStream

from _oracles import finite_difference_grad, reference_attention, relative_grad_error


def _probe(op_fn, arrays, grad_index=0, h=1e-5):
    """Compare analytic and finite-difference gradients for one input.

    The scalar objective is a fixed random weighting of the op output, so
    every output element influences the loss.
    """
    weights = None

    def run(values):
        nonlocal weights
        tensors = [ad.param(v.copy()) for v in values]
        with ad.Tape() as tape:
            out = op_fn(*tensors)
            if weights is None:
                weights = RngStream(99, "probe").normal(out.shape)
            loss = ad.sum_(ad.mul(out, ad.tensor(weights)))
            tape.backward(loss)
        return float(loss.data), tensors

    _, tensors = run(arrays)
    analytic = tensors[grad_index].grad

    def scalar(x):
        values = [a.copy() for a in arrays]
        values[grad_index] = x
        return run(values)[0]

    numeric = finite_difference_grad(scalar, arrays[grad_index], h=h)
    return relative_grad_error(numeric, analytic)


class TestForwardValues:
    def test_softmax_uniform(self):
        out = ad.softmax(ad.tensor(np.zeros((1, 4))), axis=1)
        npt.assert_allclose(out.data, 0.25)

    def test_matmul_identity(self):
        x = RngStream(1, "mm").normal((3, 5))
        npt.assert_array_equal(ad.matmul(ad.tensor(np.eye(3)), ad.tensor(x)).data, x)

    def test_cross_entropy_margin(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        loss = ad.cross_entropy_loss(ad.tensor(logits), np.array([0, 1]))
        assert float(loss.data) < 1e-4

    def test_log_softmax_matches_log_of_softmax(self):
        x = RngStream(2, "ls").normal((4, 6))
        npt.assert_allclose(
            ad.log_softmax(ad.tensor(x), axis=1).data,
            np.log(ad.softmax(ad.tensor(x), axis=1).data),
            atol=1e-12,
        )

    def test_relu_and_gelu_limits(self):
        x = np.array([-100.0, 0.0, 100.0])
        npt.assert_allclose(ad.relu(ad.tensor(x)).data, [0.0, 0.0, 100.0])
        g = ad.gelu(ad.tensor(x)).data
        npt.assert_allclose(g, [0.0, 0.0, 100.0], atol=1e-8)

    def test_dropout_zero_rate_is_identity(self):
        x = RngStream(3, "dr").normal((6, 5))
        for n_gens in (1, 3):
            gens = [RngStream(0, "m", i).generator() for i in range(n_gens)]
            out = ad.dropout(ad.tensor(x), 0.0, gens)
            npt.assert_array_equal(out.data, x)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeMismatch):
            ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeMismatch):
            ad.mse_loss(ad.tensor(np.zeros(3)), ad.tensor(np.zeros(4)))

    def test_nonfinite_check(self):
        ad.set_check_finite(True)
        try:
            with np.errstate(over="ignore"), pytest.raises(NonFinite):
                ad.scale(ad.tensor(np.array([1e308])), 10.0)
        finally:
            ad.set_check_finite(False)


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = ad.param(RngStream(4, "s").normal(7))
        with ad.Tape() as tape:
            tape.backward(ad.sum_(x))
        npt.assert_array_equal(x.grad, np.ones(7))

    def test_mse_grad(self):
        data = RngStream(5, "m").normal(6)
        x = ad.param(data)
        with ad.Tape() as tape:
            tape.backward(ad.mse_loss(x, ad.tensor(np.zeros(6))))
        npt.assert_allclose(x.grad, 2.0 * data / 6.0, atol=1e-14)

    def test_not_scalar(self):
        x = ad.param(np.zeros((2, 2)))
        with ad.Tape() as tape:
            y = ad.scale(x, 2.0)
            with pytest.raises(NotScalar):
                tape.backward(y)

    def test_grad_accumulates_across_reuse(self):
        x = ad.param(np.array([3.0]))
        with ad.Tape() as tape:
            y = ad.add(ad.mul(x, x), x)  # x^2 + x
            tape.backward(ad.sum_(y))
        npt.assert_allclose(x.grad, [7.0])

    def test_adopted_adjoint_of_add_to_itself(self):
        # add hands one adjoint array to both of its inputs
        x0 = RngStream(12, "xx").normal((3, 4))
        w = RngStream(13, "w").normal((3, 4))

        def run(x_data):
            x = ad.param(x_data)
            with ad.Tape() as tape:
                loss = ad.sum_(ad.mul(ad.add(x, x), ad.tensor(w)))
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
                a, b = ad.param(a_data), ad.param(b_data)
                with ad.Tape() as tape:
                    if _a_first:
                        other = ad.sum_(ad.mul(a, ad.tensor(w2)))
                    s = ad.sum_(ad.mul(ad.add(a, b), ad.tensor(w1)))
                    if not _a_first:
                        other = ad.sum_(ad.mul(a, ad.tensor(w2)))
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
        x = ad.param(np.ones((2, 2)))
        c = ad.tensor(np.ones((2, 2)))
        with ad.Tape() as tape:
            tape.backward(ad.sum_(ad.mul(x, c)))
        assert x.grad is not None
        assert c.grad is None

    def test_op_outputs_release_grads_and_parameters_keep_them(self):
        w = ad.param(RngStream(10, "w").normal((3, 4)))
        x = ad.tensor(RngStream(11, "x").normal((2, 3)))
        with ad.Tape() as tape:
            h = ad.matmul(x, w)
            y = ad.gelu(h)
            loss = ad.sum_(y)
            tape.backward(loss)
        for out, _, _ in tape.entries:
            assert out.grad is None
        assert h.grad is None and y.grad is None and loss.grad is None
        assert w.grad is not None and w.grad.shape == (3, 4)
        assert x.grad is None

    def test_determinism(self):
        def run():
            rng = RngStream(6, "det")
            x = ad.param(rng.child("x").normal((4, 4)))
            with ad.Tape() as tape:
                y = ad.gelu(ad.matmul(x, ad.tensor(rng.child("w").normal((4, 4)))))
                y = ad.dropout(y, 0.3, [rng.child("drop").generator()])
                loss = ad.mse_loss(y, ad.tensor(np.zeros((4, 4))))
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
        npt.assert_allclose(ad.linear(ad.tensor(x), ad.tensor(w), ad.tensor(b)).data, x @ w + b, rtol=1e-14)

    @staticmethod
    def _attention_inputs(seed, batch, n, width):
        rng = RngStream(seed, "attention")
        return [rng.child(name).normal((batch * n, width)) for name in "qkv"]

    @staticmethod
    def _gens(seed, count):
        return [RngStream(seed, "att-drop", i).generator() for i in range(count)]

    def test_attention(self):
        batch, n = 2, 3
        for heads in (1, 2, 4):
            for p in (0.0, 0.3):
                arrays = self._attention_inputs(heads, batch, n, 8)

                def op(q, k, v, _heads=heads, _p=p):
                    gens = self._gens(50 + _heads, batch * _heads) if _p else None
                    return ad.attention(q, k, v, batch, _heads, 0.7, _p, gens)

                for i in range(3):
                    assert _probe(op, arrays, i) < 1e-6, (heads, p, i)

    def test_attention_matches_per_sequence_head_oracle(self):
        batch, n = 3, 4
        for heads in (1, 2, 4):
            dh = 5
            width = heads * dh
            q, k, v = self._attention_inputs(10 + heads, batch, n, width)
            for p in (0.0, 0.4):
                gens = self._gens(60 + heads, batch * heads) if p else None
                out = ad.attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), batch, heads, 0.45, p, gens).data
                ref_gens = self._gens(60 + heads, batch * heads) if p else None
                expected, masks = reference_attention(q, k, v, batch, heads, 0.45, p, ref_gens)
                npt.assert_allclose(out, expected, rtol=0, atol=1e-12, err_msg=f"heads {heads}, p {p}")
                # with v the identity in each head's first n columns, the
                # output is that head's dropped attention matrix: its zeros
                # are exactly the dropout mask's
                eye = np.zeros((batch * n, width))
                for hd in range(heads):
                    eye[:, hd * dh : hd * dh + n] = np.tile(np.eye(n), (batch, 1))
                gens = self._gens(60 + heads, batch * heads) if p else None
                att = ad.attention(ad.tensor(q), ad.tensor(k), ad.tensor(eye), batch, heads, 0.45, p, gens).data
                att = att.reshape(batch, n, heads, dh)[..., :n].swapaxes(1, 2)
                npt.assert_array_equal(att == 0, masks == 0)
                if p:
                    assert (masks == 0).any() and (masks != 0).any()

    def test_batched_shape_errors(self):
        x = ad.tensor(np.zeros((6, 4)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, ad.tensor(np.zeros((3, 2))), ad.tensor(np.zeros(2)))
        with pytest.raises(ShapeMismatch):
            ad.linear(x, ad.tensor(np.zeros((4, 2))), ad.tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatch):
            ad.attention(x, x, ad.tensor(np.zeros((6, 2))), 2, 2, 1.0)
        with pytest.raises(ShapeMismatch):
            ad.attention(x, x, x, 4, 2, 1.0)
        with pytest.raises(ShapeMismatch):
            ad.attention(x, x, x, 2, 3, 1.0)
        with pytest.raises(ShapeMismatch):
            ad.attention(x, x, x, 2, 2, 1.0, 0.5, [RngStream(0, "a", i).generator() for i in range(3)])
        with pytest.raises(ShapeMismatch):
            ad.attention(x, x, x, 2, 2, 1.0, 1.0, [RngStream(0, "a", i).generator() for i in range(4)])
        with pytest.raises(ShapeMismatch):
            ad.reshape(ad.tensor(np.zeros((2, 3))), (4, 2))
        with pytest.raises(ShapeMismatch):
            ad.dropout(ad.tensor(np.zeros((5, 2))), 0.5, [RngStream(0, "d", i).generator() for i in range(2)])

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
        out = ad.cross_entropy_loss(ad.tensor(logits), labels, weights)
        npt.assert_allclose(float(out.data), expected, rtol=1e-13)
        with pytest.raises(ShapeMismatch):
            ad.cross_entropy_loss(ad.tensor(logits), labels, weights[:3])

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
        out = ad.dropout(ad.tensor(x), 0.5, gens).data
        for i in range(3):
            alone = ad.dropout(ad.tensor(x[:2]), 0.5, [RngStream(43, "block", i).generator()]).data
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


class TestAdam:
    def test_zero_grad_no_change(self):
        store = ad.ParamStore()
        w = store.add("w", np.array([1.0, -2.0]))
        with ad.Tape() as tape:
            loss = ad.mse_loss(ad.mul(w, ad.tensor(np.zeros(2))), ad.tensor(np.zeros(2)))
            tape.backward(loss)
        ad.adam_step(store, lr=0.1)
        npt.assert_array_equal(w.data, [1.0, -2.0])

    def test_constant_grad_step_size_approaches_lr(self):
        # with a constant gradient the bias-corrected update tends to
        # lr * sign(g) in magnitude
        store = ad.ParamStore()
        w = store.add("w", np.array([0.0]))
        g = np.array([3.7])
        for _ in range(500):
            w.grad = g.copy()
            ad.adam_step(store, lr=0.01)
        w.grad = g.copy()
        before = w.data.copy()
        ad.adam_step(store, lr=0.01)
        npt.assert_allclose(before - w.data, [0.01], rtol=1e-6)

    def test_quadratic_convergence(self):
        store = ad.ParamStore()
        w = store.add("w", np.array([5.0]))
        for _ in range(2000):
            with ad.Tape() as tape:
                loss = ad.mse_loss(w, ad.tensor(np.array([2.0])))
                tape.backward(loss)
            ad.adam_step(store, lr=1e-2)
        assert abs(float(w.data[0]) - 2.0) < 1e-3

    def test_grads_cleared_after_step(self):
        store = ad.ParamStore()
        w = store.add("w", np.ones(3))
        w.grad = np.ones(3)
        ad.adam_step(store, lr=0.1)
        assert w.grad is None


class TestMlpGradient:
    def test_three_layer_mlp_matches_finite_differences(self):
        rng = RngStream(21, "mlp")
        dims = [6, 10, 8, 4]
        weights = [rng.child("w", i).normal((dims[i], dims[i + 1])) * 0.4 for i in range(3)]
        biases = [rng.child("b", i).normal(dims[i + 1]) * 0.1 for i in range(3)]
        x0 = rng.child("x").normal((5, 6))
        target = rng.child("y").normal((5, 4))

        def forward(ws):
            params = [ad.param(w.copy()) for w in ws]
            with ad.Tape() as tape:
                h = ad.tensor(x0)
                for i, (w, b) in enumerate(zip(params, biases)):
                    h = ad.matmul(h, w) + ad.tensor(b)
                    if i < 2:
                        h = ad.relu(h)
                loss = ad.mse_loss(h, ad.tensor(target))
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
            params = {k: ad.param(vals[k].copy()) for k in names}
            x = ad.tensor(x0)
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
                loss = ad.mse_loss(h, ad.tensor(target))
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
