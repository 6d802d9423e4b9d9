import gc
import weakref

import numpy as np
import pytest

from openset3cm import autodiff as ad

LOG2 = 0.6931471805599453


def kl_to_constant(tape, z, q):
    """KL(softmax(z) || q) built from primitives, q held constant."""
    p = ad.softmax(z, axis=0)
    lp = ad.log(p, floor=1e-12)
    lq = tape.constant(np.log(q))
    diff = ad.add(lp, ad.multiply(lq, -1.0))
    return ad.sum_all(ad.multiply(p, diff))


class TestForward:
    def test_softmax_equal_logits(self):
        t = ad.Tape()
        out = ad.softmax(t.leaf([0.0, 0.0]), axis=0)
        np.testing.assert_array_equal(out.values, [0.5, 0.5])

    def test_softmax_log3(self):
        t = ad.Tape()
        out = ad.softmax(t.leaf([np.log(3.0), 0.0]), axis=0)
        assert abs(out.values[0] - 0.75) < 1e-12
        assert abs(out.values[1] - 0.25) < 1e-12

    def test_softmax_rows_on_simplex(self):
        rng = np.random.default_rng(2)
        t = ad.Tape()
        out = ad.softmax(t.leaf(rng.normal(0, 5, (40, 7))), axis=1)
        rows = out.array
        assert np.all(rows > 0.0)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_overflow_safe(self):
        t = ad.Tape()
        out = ad.softmax(t.leaf([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.values))

    def test_max_reduce_columnwise(self):
        t = ad.Tape()
        out = ad.max_reduce(t.leaf([[1.0, 5.0], [4.0, 2.0]]), axis=0)
        np.testing.assert_array_equal(out.values, [4.0, 5.0])

    def test_matmul_inner_dim_mismatch(self):
        t = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((4, 2))))

    def test_add_shape_mismatch(self):
        t = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.add(t.leaf([1.0, 2.0]), t.leaf([1.0, 2.0, 3.0]))

    def test_concat_shape_mismatch(self):
        t = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.concat([t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 3)))], axis=1)

    def test_concat_values(self):
        t = ad.Tape()
        out = ad.concat([t.leaf(np.ones((2, 2))), t.leaf(np.zeros((2, 1)))], axis=1)
        np.testing.assert_array_equal(out.array, [[1, 1, 0], [1, 1, 0]])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        t = ad.Tape()
        x = t.leaf(np.arange(6.0).reshape(2, 3))
        ad.backward(t, ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones(6))

    def test_relu_mask(self):
        t = ad.Tape()
        x = t.leaf([-1.0, 2.0])
        ad.backward(t, ad.sum_all(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_kl_of_constant_to_softmax_is_p_minus_q(self):
        """grad_z KL(q || softmax(z)) = softmax(z) - q, the classic form."""
        rng = np.random.default_rng(23)
        for _ in range(20):
            zv = rng.normal(0, 2, 4)
            q = rng.exponential(1, 4)
            q /= q.sum()
            t = ad.Tape()
            z = t.leaf(zv)
            p = ad.softmax(z, axis=0)
            # KL(q||p) = sum q log q - sum q log p; only the second term moves
            nll = ad.multiply(ad.sum_all(ad.multiply(ad.log(p, floor=1e-12), t.constant(q))), -1.0)
            ad.backward(t, nll)
            expect = np.exp(zv - zv.max())
            expect /= expect.sum()
            np.testing.assert_allclose(z.grad, expect - q, atol=1e-9)

    def test_kl_of_softmax_to_constant(self):
        # frozen from central differences: 0.5*(log 2 - KL([.5,.5]||[.25,.75]))
        t = ad.Tape()
        z = t.leaf([0.0, 0.0])
        ad.backward(t, kl_to_constant(t, z, np.array([0.25, 0.75])))
        np.testing.assert_allclose(
            z.grad, [0.27465307216702745, -0.27465307216702745], atol=1e-12
        )

    def test_max_reduce_tie_routes_to_lowest_index(self):
        t = ad.Tape()
        x = t.leaf([[3.0, 3.0, 1.0]])
        ad.backward(t, ad.sum_all(ad.max_reduce(x, axis=1)))
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_non_scalar_output_rejected(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.backward(t, ad.relu(x))

    def test_resweep_restarts_from_zero(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        out = ad.sum_all(ad.multiply(x, x))
        ad.backward(t, out)
        first = x.grad.copy()
        ad.backward(t, out)
        np.testing.assert_array_equal(x.grad, first)

    def test_fanout_accumulates(self):
        t = ad.Tape()
        x = t.leaf([2.0])
        ad.backward(t, ad.sum_all(ad.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_deterministic_forward_and_grads(self):
        def run():
            rng = np.random.default_rng(31)
            t = ad.Tape()
            x = t.leaf(rng.normal(0, 1, (5, 3)))
            w = t.leaf(rng.normal(0, 1, (3, 4)))
            b = t.leaf(np.zeros(4))
            out = ad.sum_all(ad.softmax(ad.relu(ad.linear(x, w, b)), axis=1))
            ad.backward(t, out)
            return out.values.copy(), w.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(g1, g2)


def max_reduce_reference(arr, axis, g):
    """The two-reduction forward and put_along_axis backward max_reduce
    replaced: (values, gradient of sum(g * values))."""
    out = arr.max(axis=axis)
    idx = arr.argmax(axis=axis)
    routed = np.zeros(arr.shape)
    np.put_along_axis(routed, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
    return out, routed.ravel()


class TestMaxReduceOnePass:
    CASES = [((8, 16, 6), 1), ((5, 7), 0), ((5, 7), 1), ((3, 4, 5), 0), ((3, 4, 5), 2), ((9,), 0)]

    @staticmethod
    def one_pass(arr, axis, g):
        t = ad.Tape()
        x = t.leaf(arr)
        y = ad.max_reduce(x, axis)
        ad.backward(t, ad.sum_all(ad.multiply(y, t.constant(g))))
        return y.array, x.grad

    @pytest.mark.parametrize("shape,axis", CASES)
    @pytest.mark.parametrize("kind", ["distinct", "ties", "nan"])
    def test_bitwise_equal_to_reference(self, shape, axis, kind):
        rng = np.random.default_rng([*shape, axis, len(kind)])
        if kind == "distinct":
            arr = rng.normal(size=shape)
        else:  # few distinct values, so most maxima are tied
            arr = rng.integers(0, 3, size=shape).astype(float)
        if kind == "nan":
            arr.flat[rng.integers(arr.size)] = np.nan
        g = rng.normal(size=np.delete(shape, axis))
        ref_values, ref_grad = max_reduce_reference(arr, axis, g)
        values, grad = self.one_pass(arr, axis, g)
        assert values.tobytes() == ref_values.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_tie_goes_to_lowest_index_and_nan_wins(self):
        arr = np.array([[1.0, 4.0, 4.0, 2.0], [np.nan, 5.0, np.nan, 5.0]])
        values, grad = self.one_pass(arr, 1, np.array([1.0, 2.0]))
        assert values[0] == 4.0 and np.isnan(values[1])
        np.testing.assert_array_equal(grad, [0, 1, 0, 0, 2, 0, 0, 0])


class TestRequiresGrad:
    def test_flags(self):
        t = ad.Tape()
        x, c = t.leaf([1.0, 2.0]), t.constant([3.0, 4.0])
        assert x.requires_grad and not c.requires_grad
        assert ad.add(x, c).requires_grad
        assert not ad.relu(c).requires_grad
        assert not ad.multiply(c, 2.0).requires_grad

    def test_constants_keep_no_gradient(self):
        t = ad.Tape()
        x = t.constant([[1.0, -2.0], [0.5, 3.0]])
        w = t.leaf([[0.3, -0.1], [0.2, 0.4]])
        b = t.constant([0.1, 0.2])
        lq = t.constant([[0.5], [-1.0]])
        h = ad.relu(ad.linear(x, w, b))
        out = ad.multiply(ad.sum_all(ad.matmul(h, lq)), 3.0)
        ad.backward(t, out)
        for node in t.nodes:
            if not node.requires_grad:
                assert node._grad is None
        np.testing.assert_array_equal(x.grad, np.zeros(4))
        # d out / d w: 3 * x^T (mask * lq^T)
        mask = (np.array([[1.0, -2.0], [0.5, 3.0]]) @ w.array + [0.1, 0.2]) > 0
        expected = 3.0 * np.array([[1.0, -2.0], [0.5, 3.0]]).T @ (mask * [0.5, -1.0])
        np.testing.assert_allclose(w.grad.reshape(2, 2), expected, rtol=1e-15)


class TestLifetime:
    def test_swept_tape_is_freed_by_refcounting(self):
        gc.disable()
        try:
            t = ad.Tape()
            x = t.leaf([1.0, -2.0, 3.0])
            out = ad.sum_all(ad.multiply(ad.relu(x), x))
            ad.backward(t, out)
            tape_ref, grad_ref = weakref.ref(t), weakref.ref(x.grad)
            del t
            assert tape_ref() is None
            del x, out
            assert grad_ref() is None
        finally:
            gc.enable()

    def test_node_of_dropped_tape_raises_value_error(self):
        t = ad.Tape()
        x = t.leaf([1.0, -2.0])
        del t
        np.testing.assert_array_equal(x.values, [1.0, -2.0])
        with pytest.raises(ValueError, match="tape was dropped"):
            ad.relu(x)
        with pytest.raises(ValueError, match="tape was dropped"):
            ad.multiply(x, 2.0)


class TestShapePlumbing:
    def test_reshape_roundtrip_gradient(self):
        t = ad.Tape()
        x = t.leaf(np.arange(6.0))
        y = ad.reshape(x, (2, 3))
        ad.backward(t, ad.sum_all(ad.multiply(y, y)))
        np.testing.assert_array_equal(x.grad, 2 * np.arange(6.0))

    def test_repeat_rows_1d(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        out = ad.repeat_rows(x, 3)
        assert out.shape == (3, 2)
        ad.backward(t, ad.sum_all(out))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_repeat_rows_2d_consecutive(self):
        t = ad.Tape()
        x = t.leaf([[1.0, 2.0], [3.0, 4.0]])
        out = ad.repeat_rows(x, 2)
        np.testing.assert_array_equal(out.array, [[1, 2], [1, 2], [3, 4], [3, 4]])

    def test_take_rows_duplicate_index_accumulates(self):
        t = ad.Tape()
        x = t.leaf([[1.0, 1.0], [5.0, 5.0]])
        out = ad.take_rows(x, [0, 0, 1])
        ad.backward(t, ad.sum_all(out))
        np.testing.assert_array_equal(x.grad.reshape(2, 2), [[2, 2], [1, 1]])

    def test_pick_out_of_range(self):
        t = ad.Tape()
        with pytest.raises(ad.ShapeError):
            ad.pick(t.leaf(np.ones((2, 3))), [0, 3])

    def test_narrow_carves_segment(self):
        t = ad.Tape()
        x = t.leaf(np.arange(5.0))
        seg = ad.narrow(x, 1, 3)
        np.testing.assert_array_equal(seg.values, [1.0, 2.0, 3.0])
        ad.backward(t, ad.sum_all(seg))
        np.testing.assert_array_equal(x.grad, [0, 1, 1, 1, 0])


def check_primitive(build, n_params, seed, h=1e-5, bound=1e-4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        params = rng.normal(0.0, 1.0, n_params)
        worst = max(worst, ad.gradient_check(build, params, h=h))
    assert worst <= bound, worst
    return worst


class TestGradientCheck:
    """Every primitive against central differences, then composites."""

    def test_linear_map_is_exact(self):
        a = np.array([0.3, -1.2, 2.5, 0.7])

        def build(tape, p):
            return ad.sum_all(ad.multiply(p, tape.constant(a)))

        assert ad.gradient_check(build, np.ones(4), h=1e-5) <= 1e-10

    def test_add(self):
        check_primitive(
            lambda t, p: ad.sum_all(
                ad.multiply(ad.add(ad.narrow(p, 0, 3), ad.narrow(p, 3, 3)), 1.7)
            ),
            6,
            101,
        )

    def test_add_rowvec(self):
        def build(t, p):
            x = ad.reshape(ad.narrow(p, 0, 6), (2, 3))
            b = ad.narrow(p, 6, 3)
            y = ad.add_rowvec(x, b)
            return ad.sum_all(ad.multiply(y, y))

        check_primitive(build, 9, 102)

    def test_multiply_elementwise(self):
        check_primitive(
            lambda t, p: ad.sum_all(ad.multiply(ad.narrow(p, 0, 4), ad.narrow(p, 4, 4))),
            8,
            103,
        )

    def test_multiply_scalar(self):
        def build(t, p):
            s = ad.reshape(ad.narrow(p, 0, 1), ())
            v = ad.narrow(p, 1, 5)
            return ad.sum_all(ad.multiply(v, s))

        check_primitive(build, 6, 104)

    def test_matmul(self):
        def build(t, p):
            a = ad.reshape(ad.narrow(p, 0, 6), (2, 3))
            b = ad.reshape(ad.narrow(p, 6, 12), (3, 4))
            y = ad.matmul(a, b)
            return ad.sum_all(ad.multiply(y, y))

        check_primitive(build, 18, 105)

    def test_linear_fused(self):
        def build(t, p):
            x = ad.reshape(ad.narrow(p, 0, 6), (2, 3))
            w = ad.reshape(ad.narrow(p, 6, 12), (3, 4))
            b = ad.narrow(p, 18, 4)
            y = ad.linear(x, w, b)
            return ad.sum_all(ad.multiply(y, y))

        check_primitive(build, 22, 106)

    def test_relu(self):
        # inputs drawn away from the kink at 0
        def build(t, p):
            return ad.sum_all(ad.multiply(ad.relu(p), ad.relu(p)))

        rng = np.random.default_rng(107)
        params = rng.normal(0.0, 1.0, 8)
        params[np.abs(params) < 0.05] = 0.5
        assert ad.gradient_check(build, params) <= 1e-4

    def test_log(self):
        def build(t, p):
            return ad.sum_all(ad.log(ad.multiply(ad.multiply(p, p), 0.5)))

        check_primitive(build, 5, 108)

    def test_exp(self):
        check_primitive(lambda t, p: ad.sum_all(ad.exp(p)), 5, 109)

    def test_max_reduce(self):
        def build(t, p):
            y = ad.max_reduce(ad.reshape(p, (3, 4)), axis=0)
            return ad.sum_all(ad.multiply(y, y))

        # distinct entries keep the argmax stable under the probe step
        params = np.arange(12.0) * 0.37 - 2.0
        rng = np.random.default_rng(110)
        assert ad.gradient_check(build, rng.permutation(params)) <= 1e-4

    def test_concat(self):
        def build(t, p):
            a = ad.reshape(ad.narrow(p, 0, 4), (2, 2))
            b = ad.reshape(ad.narrow(p, 4, 2), (2, 1))
            y = ad.concat([a, b], axis=1)
            return ad.sum_all(ad.multiply(y, y))

        check_primitive(build, 6, 111)

    def test_softmax(self):
        def build(t, p):
            y = ad.softmax(ad.reshape(p, (2, 4)), axis=1)
            return ad.sum_all(ad.multiply(y, y))

        check_primitive(build, 8, 112)

    def test_repeat_take_pick(self):
        def build(t, p):
            x = ad.reshape(ad.narrow(p, 0, 6), (2, 3))
            rep = ad.repeat_rows(x, 2)
            took = ad.take_rows(rep, np.array([0, 2, 3]))
            picked = ad.pick(took, np.array([1, 0, 2]))
            tail = ad.repeat_rows(ad.narrow(p, 6, 3), 2)
            return ad.add(ad.sum_all(ad.multiply(picked, picked)), ad.sum_all(tail))

        check_primitive(build, 9, 113)

    def test_two_layer_relu_network_with_ce(self):
        """~50 params through linear-relu-linear-softmax-nll."""
        labels = np.array([0, 2, 1, 2])
        x0 = np.random.default_rng(114).normal(0.0, 1.0, (4, 3))

        def build(t, p):
            w1 = ad.reshape(ad.narrow(p, 0, 15), (3, 5))
            b1 = ad.narrow(p, 15, 5)
            w2 = ad.reshape(ad.narrow(p, 20, 15), (5, 3))
            b2 = ad.narrow(p, 35, 3)
            h = ad.relu(ad.linear(t.constant(x0), w1, b1))
            logits = ad.linear(h, w2, b2)
            lp = ad.log(ad.softmax(logits, axis=1), floor=1e-12)
            return ad.multiply(ad.sum_all(ad.pick(lp, labels)), -0.25)

        rng = np.random.default_rng(115)
        worst = max(ad.gradient_check(build, rng.normal(0, 0.5, 38)) for _ in range(3))
        assert worst <= 1e-4

    def test_non_finite_probe_raises(self):
        def build(t, p):
            return ad.sum_all(ad.log(p))

        with pytest.raises(FloatingPointError):
            ad.gradient_check(build, np.array([-1.0, 2.0]))

    def test_rejects_non_scalar_build(self):
        with pytest.raises(ValueError):
            ad.gradient_check(lambda t, p: ad.relu(p), np.ones(3))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ad.gradient_check(lambda t, p: ad.sum_all(p), np.ones(3), h=0.0)
