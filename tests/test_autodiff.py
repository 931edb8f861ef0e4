"""Reverse-mode gradients checked against central finite differences, op by op."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcproto import autodiff as ad


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar-valued f at x."""
    x = x.copy()
    g = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), g.ravel()
    for i in range(x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        fp = f(x)
        flat_x[i] = orig - eps
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * eps)
    return g


def leaf(x) -> ad.Tensor:
    """A trainable input: a leaf tensor that collects a gradient."""
    return ad.Tensor(x, requires_grad=True)


def check(build, x0: np.ndarray, rtol: float = 1e-5, atol: float = 1e-7):
    """build(tensor) -> scalar Tensor; compares backward grad to FD."""
    t = leaf(x0)
    out = build(t)
    out.backward()
    fd = fd_grad(lambda x: float(build(ad.const(x)).data), x0)
    np.testing.assert_allclose(t.grad, fd, rtol=rtol, atol=atol)


RNG = np.random.default_rng(2024)


def weighted(op):
    """Scalar projection of an op's output with fixed weights, for FD checks."""

    def build(t):
        y = op(t)
        w = RNG_W[y.data.shape]
        return ad.sum_(ad.mul(y, ad.const(w)))

    return build


class _WeightCache(dict):
    def __missing__(self, shape):
        self[shape] = np.random.default_rng(hash(shape) % (2**32)).normal(size=shape)
        return self[shape]


RNG_W = _WeightCache()


class TestElementwise:
    def test_add_broadcast_row(self):
        b = RNG.normal(size=(4,))
        full = RNG.normal(size=(3, 4))
        check(weighted(lambda t: ad.add(t, ad.const(b))), full.copy())
        check(weighted(lambda t: ad.add(ad.const(full), t)), b.copy())

    def test_add_broadcast_col(self):
        full = RNG.normal(size=(3, 4))
        check(weighted(lambda t: ad.add(t, ad.const(full))), RNG.normal(size=(3, 1)))

    def test_sub(self):
        other = RNG.normal(size=(2, 5))
        check(weighted(lambda t: ad.sub(t, ad.const(other))), RNG.normal(size=(2, 5)))
        check(weighted(lambda t: ad.sub(ad.const(other), t)), RNG.normal(size=(2, 5)))

    def test_mul_broadcast(self):
        other = RNG.normal(size=(5,))
        full = RNG.normal(size=(2, 5))
        check(weighted(lambda t: ad.mul(t, ad.const(other))), full.copy())
        check(weighted(lambda t: ad.mul(ad.const(full), t)), other.copy())

    def test_relu_away_from_kink(self):
        x = RNG.normal(size=(3, 4))
        x += np.where(x >= 0, 0.2, -0.2)
        check(weighted(ad.relu), x)

    def test_relu_zero_subgradient(self):
        t = leaf(np.zeros((2, 2)))
        ad.sum_(ad.relu(t)).backward()
        np.testing.assert_array_equal(t.grad, np.zeros((2, 2)))

    def test_sqrt_positive(self):
        check(weighted(ad.sqrt), RNG.uniform(0.5, 4.0, size=(3, 3)))

    def test_sqrt_zero_subgradient(self):
        t = leaf(np.array([0.0, 4.0]))
        ad.sum_(ad.sqrt(t)).backward()
        np.testing.assert_array_equal(t.grad, [0.0, 0.25])


class TestMatmulAndShape:
    def test_matmul_left(self):
        b = RNG.normal(size=(4, 5))
        check(weighted(lambda t: ad.matmul(t, ad.const(b))), RNG.normal(size=(3, 4)))

    def test_matmul_right(self):
        a = RNG.normal(size=(3, 4))
        check(weighted(lambda t: ad.matmul(ad.const(a), t)), RNG.normal(size=(4, 5)))

    def test_matmul_stack_with_broadcast_weight(self):
        # (B, t, D) @ (D, E): the weight's gradient is summed over the stack
        w = RNG.normal(size=(4, 5))
        x = RNG.normal(size=(3, 2, 4))
        check(weighted(lambda t: ad.matmul(t, ad.const(w))), x.copy())
        check(weighted(lambda t: ad.matmul(ad.const(x), t)), w.copy())

    def test_matmul_stacks(self):
        # per-head products: (B, H, t, d) @ (B, H, d, s)
        k = RNG.normal(size=(2, 3, 4, 5))
        q = RNG.normal(size=(2, 3, 1, 4))
        check(weighted(lambda t: ad.matmul(t, ad.const(k))), q.copy())
        check(weighted(lambda t: ad.matmul(ad.const(q), t)), k.copy())

    def test_transpose(self):
        check(weighted(lambda t: ad.transpose(t)), RNG.normal(size=(3, 5)))

    @pytest.mark.parametrize("axes", [(0, 2, 1, 3), (0, 2, 3, 1)])
    def test_transpose_axes(self, axes):
        check(weighted(lambda t: ad.transpose(t, axes)), RNG.normal(size=(2, 3, 4, 5)))

    def test_split_heads(self):
        for axes in ((0, 2, 1, 3), (0, 2, 3, 1)):
            check(weighted(lambda t: ad.split_heads(t, 3, axes)), RNG.normal(size=(2, 4, 6)))

    def test_merge_heads(self):
        check(weighted(ad.merge_heads), RNG.normal(size=(2, 3, 4, 5)))

    def test_linear(self):
        w, b, x = RNG.normal(size=(4, 5)), RNG.normal(size=(5,)), RNG.normal(size=(2, 3, 4))
        check(weighted(lambda t: ad.linear(t, ad.const(w), ad.const(b))), x.copy())
        check(weighted(lambda t: ad.linear(ad.const(x), t, ad.const(b))), w.copy())
        check(weighted(lambda t: ad.linear(ad.const(x), ad.const(w), t)), b.copy())

    def test_take_rows_with_duplicates(self):
        check(weighted(lambda t: ad.take_rows(t, [0, 2, 0, 1])), RNG.normal(size=(4, 3)))

    def test_take_rows_index_matrix(self):
        check(weighted(lambda t: ad.take_rows(t, [[0, 2], [0, 0]])), RNG.normal(size=(3, 4)))

    def test_concat_rows(self):
        other = RNG.normal(size=(2, 3))
        check(
            weighted(lambda t: ad.concat([t, ad.const(other), t], axis=0)),
            RNG.normal(size=(2, 3)),
        )

    def test_concat_cols(self):
        other = RNG.normal(size=(3, 2))
        check(weighted(lambda t: ad.concat([ad.const(other), t], axis=1)), RNG.normal(size=(3, 4)))

    def test_concat_axis1_of_stacks(self):
        # a key/value cache grows along axis 1 of (B, t, D)
        other = RNG.normal(size=(2, 3, 4))
        check(
            weighted(lambda t: ad.concat([ad.const(other), t, t], axis=1)),
            RNG.normal(size=(2, 1, 4)),
        )


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_sum(self, axis, keepdims):
        check(weighted(lambda t: ad.sum_(t, axis, keepdims)), RNG.normal(size=(3, 4)))

    def test_sum_last_axis_of_stack(self):
        check(weighted(lambda t: ad.sum_(t, -1, True)), RNG.normal(size=(2, 3, 4)))


class TestNormalizers:
    def test_softmax_rows(self):
        check(weighted(ad.softmax_rows), RNG.normal(size=(3, 5)))

    def test_softmax_rows_3d(self):
        check(weighted(ad.softmax_rows), RNG.normal(size=(2, 3, 4)))

    def test_softmax_rows_masked(self):
        # an additive -inf key mask: masked entries get weight 0 and no gradient
        mask = np.zeros((2, 1, 1, 5))
        mask[0, ..., 3:] = -np.inf
        mask[1, ..., 1:] = -np.inf
        build = weighted(lambda t: ad.softmax_rows(ad.add(t, ad.const(mask))))
        x0 = RNG.normal(size=(2, 3, 2, 5))
        check(build, x0)
        t = leaf(x0)
        y = ad.softmax_rows(ad.add(t, ad.const(mask)))
        np.testing.assert_array_equal(y.data[np.broadcast_to(mask, x0.shape) < 0], 0.0)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, rtol=1e-15)
        build(t).backward()
        np.testing.assert_array_equal(t.grad[np.broadcast_to(mask, x0.shape) < 0], 0.0)

    def test_layer_norm_input(self):
        gain = RNG.normal(size=(6,)) + 1.5
        bias = RNG.normal(size=(6,))
        check(
            weighted(lambda t: ad.layer_norm(t, ad.const(gain), ad.const(bias))),
            RNG.normal(size=(3, 6)),
            rtol=1e-4,
        )

    def test_layer_norm_gain_bias(self):
        x = ad.const(RNG.normal(size=(3, 6)))
        for which in ("gain", "bias"):
            init = RNG.normal(size=(6,))

            def build(t, which=which):
                gain = t if which == "gain" else ad.const(np.ones(6))
                bias = t if which == "bias" else ad.const(np.zeros(6))
                y = ad.layer_norm(x, gain, bias)
                return ad.sum_(ad.mul(y, ad.const(RNG_W[y.data.shape])))

            check(build, init)


def seed_softmax_rows(x):
    """Softmax over the last axis through the ndarray reduction methods."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def seed_layer_norm(x, gain, bias, eps):
    """Layer norm through the ndarray reduction methods."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv * gain + bias


@st.composite
def row_batches(draw, masked=False):
    """Float64 arrays of a leading shape and a last axis of 1..300 entries
    (across numpy's 8- and 128-element pairwise-sum blocks), contiguous or
    strided, optionally with -inf entries that leave each row one finite one."""
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3), (2, 1, 4)]))
    width = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    shift = draw(st.sampled_from([0.0, 1e4]))
    x = rng.normal(shift, scale, size=lead + (width, 2))
    x = x[..., 0] if draw(st.booleans()) else np.ascontiguousarray(x[..., 0])
    if masked:
        hidden = rng.random(x.shape) < draw(st.sampled_from([0.1, 0.5, 0.9]))
        kept = rng.integers(width, size=lead + (1,))
        np.put_along_axis(hidden, kept, False, axis=-1)
        x[hidden] = -np.inf
    return x


def same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


class TestConstantFastPath:
    """Constant inputs take the lean path: the same bits as the ndarray
    reduction methods, and ``Tensor`` storing what ``np.asarray`` gives."""

    @settings(max_examples=150, deadline=None)
    @given(x=st.one_of(row_batches(), row_batches(masked=True)))
    def test_softmax_rows_matches_reduction_methods(self, x):
        assert same_bits(ad.softmax_rows(ad.const(x)).data, seed_softmax_rows(x))

    @settings(max_examples=150, deadline=None)
    @given(x=row_batches(), seed=st.integers(0, 2**32 - 1))
    def test_layer_norm_matches_reduction_methods(self, x, seed):
        rng = np.random.default_rng(seed)
        gain = rng.normal(1.0, 0.5, size=x.shape[-1])
        bias = rng.normal(size=x.shape[-1])
        out = ad.layer_norm(ad.const(x), ad.const(gain), ad.const(bias), 1e-5)
        assert same_bits(out.data, seed_layer_norm(x, gain, bias, 1e-5))

    def test_float64_array_is_stored_without_copy(self):
        x = np.arange(6.0).reshape(2, 3)
        for arr in (x, x.T, x[:, ::2], np.array(2.5)):
            assert ad.Tensor(arr).data is arr

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(
            ["list", "nested", "int", "float", "float64", "float32", "int64",
             "f8-scalar", "f4-scalar", "big-endian", "subclass"]
        ),
        values=st.lists(st.floats(width=32), min_size=1, max_size=6),
    )
    def test_other_inputs_convert_as_asarray_does(self, kind, values):
        class Sub(np.ndarray):
            pass

        x = {
            "list": values,
            "nested": [values, values],
            "int": len(values),
            "float": values[0],
            "float64": np.array(values),
            "float32": np.array(values, dtype=np.float32),
            "int64": np.arange(len(values)),
            "f8-scalar": np.float64(values[0]),
            "f4-scalar": np.float32(values[0]),
            "big-endian": np.array(values, dtype=">f8"),
            "subclass": np.array(values).view(Sub),
        }[kind]
        expected = np.asarray(x, dtype=np.float64)
        data = ad.Tensor(x).data
        assert type(data) is np.ndarray and data.dtype.isnative
        assert same_bits(data, expected)
        assert (data is x) == (expected is x)

    @given(flags=st.lists(st.booleans(), max_size=3), own=st.booleans())
    def test_requires_grad_propagates_from_parents(self, flags, own):
        parents = tuple(ad.Tensor(np.zeros(1), requires_grad=f) for f in flags)
        node = ad.Tensor(np.ones(1), parents, requires_grad=own)
        assert node.requires_grad == (own or any(flags))


def reshape(a: ad.Tensor, shape: tuple[int, ...]) -> ad.Tensor:
    """A reshape node, the unfused reference for the head nodes."""
    return ad.Tensor(
        a.data.reshape(shape), (a,), lambda g: a._accumulate(g.reshape(a.data.shape))
    )


def signed_zeros_normal(rng, shape):
    """Normal draws with about a quarter of the entries +0.0 or -0.0, so
    products and sums meet zeros of both signs."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.25] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


class TestFusedNodes:
    """``linear``, ``split_heads`` and ``merge_heads`` are one node each for
    a pair of ops: the same forward bits and, with every operand a leaf
    that is also used on its own, the same bits in every gradient."""

    @staticmethod
    def run(build, arrays, seed):
        """Forward data and leaf gradients of sum(build(*leaves) * w) plus
        one more weighted use of each leaf."""
        rng = np.random.default_rng(seed)
        leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
        y = build(*leaves)
        total = ad.sum_(ad.mul(y, ad.const(signed_zeros_normal(rng, y.shape))))
        for t in leaves:
            total = ad.add(total, ad.sum_(ad.mul(t, ad.const(rng.normal(size=t.shape)))))
        data = y.data.copy()
        total.backward()
        return data, [t.grad for t in leaves]

    def assert_same(self, fused, unfused, arrays, seed):
        got, got_grads = self.run(fused, arrays, seed)
        want, want_grads = self.run(unfused, arrays, seed)
        assert same_bits(got, want)
        for g, w in zip(got_grads, want_grads):
            assert same_bits(g, w)

    @settings(max_examples=100, deadline=None)
    @given(
        lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
        rows=st.integers(1, 5),
        k=st.integers(1, 6),
        e=st.integers(1, 6),
        bias=st.sampled_from(["row", "1-row", "full"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_is_matmul_then_add(self, lead, rows, k, e, bias, seed):
        rng = np.random.default_rng(seed)
        b_shape = {"row": (e,), "1-row": (1, e), "full": lead + (rows, e)}[bias]
        arrays = [
            signed_zeros_normal(rng, lead + (rows, k)),
            signed_zeros_normal(rng, (k, e)),
            signed_zeros_normal(rng, b_shape),
        ]
        self.assert_same(ad.linear, lambda x, w, b: ad.add(ad.matmul(x, w), b), arrays, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        axes=st.sampled_from([(0, 2, 1, 3), (0, 2, 3, 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_heads_is_reshape_then_transpose(self, shape, axes, seed):
        B, t, H, dh = shape
        x = signed_zeros_normal(np.random.default_rng(seed), (B, t, H * dh))
        self.assert_same(
            lambda a: ad.split_heads(a, H, axes),
            lambda a: ad.transpose(reshape(a, shape), axes),
            [x],
            seed,
        )

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_heads_is_transpose_then_reshape(self, shape, seed):
        B, H, t, dh = shape
        x = signed_zeros_normal(np.random.default_rng(seed), shape)
        self.assert_same(
            ad.merge_heads,
            lambda a: reshape(ad.transpose(a, (0, 2, 1, 3)), (B, t, H * dh)),
            [x],
            seed,
        )


class TestGraphMechanics:
    def test_fanout_accumulates(self):
        x0 = RNG.normal(size=(3,))
        check(lambda t: ad.sum_(ad.add(ad.mul(t, t), t)), x0)
        t = leaf(x0)
        ad.sum_(ad.add(ad.mul(t, t), t)).backward()
        np.testing.assert_allclose(t.grad, 2 * x0 + 1)

    def test_constant_graphs_carry_no_backward(self):
        y = ad.add(ad.const(np.ones(3)), ad.const(np.ones(3)))
        assert not y.requires_grad
        assert y.parents == ()
        assert y._backward is None

    def test_requires_grad_propagates(self):
        y = ad.mul(leaf(np.ones(2)), ad.const(np.ones(2)))
        assert y.requires_grad

    def test_concat_keeps_its_parts_when_the_callers_list_changes(self):
        a, b, c = leaf(RNG.normal(size=(2, 3))), leaf(RNG.normal(size=(1, 3))), leaf(np.ones((1, 3)))
        w = RNG.normal(size=(3, 3))
        for mutate in (list.clear, lambda parts: parts.append(c), lambda parts: parts.reverse()):
            a.grad = b.grad = c.grad = None
            parts = [a, b]
            out = ad.concat(parts, axis=0)
            mutate(parts)
            ad.sum_(ad.mul(out, ad.const(w))).backward()
            np.testing.assert_array_equal(a.grad, w[:2])
            np.testing.assert_array_equal(b.grad, w[2:])
            assert c.grad is None

    def test_deep_chain_no_recursion_limit(self):
        t = leaf(np.array([1.0]))
        node = t
        for _ in range(5000):
            node = ad.add(node, ad.const(np.array([0.0])))
        ad.sum_(node).backward()
        np.testing.assert_array_equal(t.grad, [1.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            leaf(np.ones((2, 2))).backward()

    def test_operator_sugar(self):
        t = leaf(np.array([[1.0, 2.0]]))
        y = ad.sum_((-t + 3.0) * 2.0 - (5.0 - t))
        y.backward()
        # d/dt [(3 - t) * 2 - 5 + t] = -1 per element
        np.testing.assert_array_equal(t.grad, [[-1.0, -1.0]])
        assert t.T.shape == (2, 1)

    def test_matmul_operator(self):
        a = leaf(np.eye(2))
        b = ad.const(np.array([[2.0, 0.0], [0.0, 3.0]]))
        y = ad.sum_(a @ b)
        y.backward()
        np.testing.assert_array_equal(a.grad, [[2.0, 3.0], [2.0, 3.0]])

    def test_diamond_graph(self):
        x0 = RNG.normal(size=(4,))

        def build(t):
            u = ad.mul(t, ad.const(2.0 * np.ones(4)))
            v = ad.add(t, ad.const(np.ones(4)))
            return ad.sum_(ad.mul(u, v))

        check(build, x0)
