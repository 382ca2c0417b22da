"""Tensor core: forward oracles, gradients, optimizer, projections."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chaincnn.tensor as T
from chaincnn.errors import (
    DegenerateStatsError,
    EmptyLossError,
    ModeError,
    NonFiniteError,
    ParameterError,
    ShapeError,
)
from gradcheck import away_from_kinks, check_grad


def tensor(data, grad=True):
    return T.Tensor(np.asarray(data, dtype=np.float32), requires_grad=grad)


def bn_params(ch, scale=None, shift=None, mean=None, var=None):
    return T.LayerParams(
        name="bn",
        weights=tensor(np.ones(ch) if scale is None else scale),
        biases=tensor(np.zeros(ch) if shift is None else shift),
        extra={
            "running_mean": tensor(np.zeros(ch) if mean is None else mean, grad=False),
            "running_var": tensor(np.ones(ch) if var is None else var, grad=False),
        },
    )


class TestConv1d:
    def test_box_filter_hand_values(self):
        x = tensor([[[1.0], [2.0], [3.0]]])
        filt = tensor(np.ones((3, 1, 1)))
        bias = tensor([0.0])
        out = T.conv1d(x, filt, bias)
        np.testing.assert_allclose(out.data[0, :, 0], [3.0, 6.0, 5.0])

    def test_width_one_identity(self, rng):
        x = tensor(rng.standard_normal((2, 5, 3)))
        filt = tensor(np.eye(3)[None, :, :])
        bias = tensor(np.zeros(3))
        out = T.conv1d(x, filt, bias)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_input_passes_bias(self):
        x = tensor(np.zeros((1, 4, 2)))
        filt = tensor(np.ones((3, 2, 2)))
        bias = tensor([0.5, -1.0])
        out = T.conv1d(x, filt, bias)
        assert (out.data == np.array([0.5, -1.0], dtype=np.float32)).all()

    def test_channel_mismatch_raises(self, rng):
        x = tensor(rng.standard_normal((1, 4, 3)))
        filt = tensor(rng.standard_normal((3, 2, 5)))
        with pytest.raises(ShapeError):
            T.conv1d(x, filt, tensor(np.zeros(5)))

    def test_even_width_rejected(self, rng):
        x = tensor(rng.standard_normal((1, 4, 2)))
        with pytest.raises(ParameterError):
            T.conv1d(x, tensor(rng.standard_normal((4, 2, 2))), tensor(np.zeros(2)))

    @given(seed=st.integers(0, 10_000))
    def test_linear_in_input(self, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((2, 6, 3)).astype(np.float32)
        x2 = rng.standard_normal((2, 6, 3)).astype(np.float32)
        filt = tensor(rng.standard_normal((5, 3, 4)), grad=False)
        bias = tensor(np.zeros(4), grad=False)
        a, b = 0.7, -1.3
        lhs = T.conv1d(tensor(a * x1 + b * x2, grad=False), filt, bias).data
        rhs = a * T.conv1d(tensor(x1, grad=False), filt, bias).data + b * T.conv1d(
            tensor(x2, grad=False), filt, bias
        ).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 5, 3)).astype(np.float32)
        filt = rng.standard_normal((3, 3, 2)).astype(np.float32)
        bias = rng.standard_normal(2).astype(np.float32)
        check_grad(lambda ts: T.conv1d(*ts), [x, filt, bias], seed=seed)


class TestDense:
    def test_identity(self):
        out = T.dense(tensor([[1.0, 2.0]]), tensor(np.eye(2)), tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_hand_values(self):
        out = T.dense(tensor([[1.0, 1.0]]), tensor([[2.0], [3.0]]), tensor([5.0]))
        np.testing.assert_allclose(out.data, [[10.0]])

    def test_dim_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.dense(tensor(rng.standard_normal((2, 3))), tensor(np.eye(4)), tensor(np.zeros(4)))

    def test_broadcasts_over_positions(self, rng):
        x = rng.standard_normal((2, 7, 3)).astype(np.float32)
        w = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = T.dense(tensor(x), tensor(w), tensor(b))
        np.testing.assert_allclose(out.data[1, 5], x[1, 5] @ w + b, rtol=1e-5)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((4, 2)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        check_grad(lambda ts: T.dense(*ts), [x, w, b], seed=seed)


class TestBatchNorm:
    def test_two_point_channel(self):
        x = tensor([[[-1.0], [1.0]]])
        mask = np.ones((1, 2), dtype=np.float32)
        out = T.batch_norm(x, mask, bn_params(1), train=True)
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data[0, :, 0], [-expected, expected], rtol=1e-6)

    def test_scale_zero_shift_seven(self, rng):
        x = tensor(rng.standard_normal((2, 4, 3)))
        mask = np.ones((2, 4), dtype=np.float32)
        params = bn_params(3, scale=np.zeros(3), shift=np.full(3, 7.0))
        out = T.batch_norm(x, mask, params, train=True)
        np.testing.assert_allclose(out.data, 7.0)

    def test_infer_with_batch_stats_matches_train(self, rng):
        x = rng.standard_normal((2, 6, 3)).astype(np.float32)
        mask = np.ones((2, 6), dtype=np.float32)
        mean = x.mean(axis=(0, 1))
        var = x.var(axis=(0, 1))
        train_out = T.batch_norm(tensor(x), mask, bn_params(3), train=True)
        infer_out = T.batch_norm(
            tensor(x), mask, bn_params(3, mean=mean, var=var), train=False
        )
        np.testing.assert_allclose(train_out.data, infer_out.data, atol=1e-6)

    def test_all_masked_rejected(self, rng):
        x = tensor(rng.standard_normal((1, 4, 2)))
        with pytest.raises(DegenerateStatsError):
            T.batch_norm(x, np.zeros((1, 4), dtype=np.float32), bn_params(2), train=True)

    def test_masked_stats_ignore_padding(self, rng):
        x = rng.standard_normal((2, 8, 3)).astype(np.float32)
        mask = np.zeros((2, 8), dtype=np.float32)
        mask[:, :5] = 1.0
        noisy = x.copy()
        noisy[:, 5:] = 1e6
        a = T.batch_norm(tensor(x), mask, bn_params(3), train=True)
        b = T.batch_norm(tensor(noisy), mask, bn_params(3), train=True)
        np.testing.assert_array_equal(a.data[:, :5], b.data[:, :5])

    def test_train_output_normalized(self, rng):
        x = tensor(3.0 + 2.0 * rng.standard_normal((4, 50, 6)))
        mask = np.ones((4, 50), dtype=np.float32)
        out = T.batch_norm(x, mask, bn_params(6), train=True).data
        assert np.abs(out.mean(axis=(0, 1))).max() < 1e-5
        assert np.abs(out.var(axis=(0, 1)) - 1.0).max() < 1e-4

    def test_running_stats_ema(self):
        x = tensor(np.full((1, 4, 1), 2.0))
        params = bn_params(1)
        T.batch_norm(x, np.ones((1, 4), dtype=np.float32), params, train=True)
        np.testing.assert_allclose(params.extra["running_mean"].data, [0.02], rtol=1e-6)
        np.testing.assert_allclose(params.extra["running_var"].data, [0.99], rtol=1e-6)

    @pytest.mark.parametrize("values, stat", [
        ([3.4e31, -3.4e31, 0.0], "variance"),  # finite inputs, the float32 variance overflows
        ([np.inf, 1.0, 0.0], "mean"),
    ])
    def test_non_finite_batch_statistic_names_the_layer(self, values, stat):
        x = np.zeros((1, 3, 2), dtype=np.float32)
        x[0, :, 1] = values
        params = bn_params(2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match=f"^non-finite batch {stat} in layer 'bn'$"):
            T.batch_norm(tensor(x), np.ones((1, 3), dtype=np.float32), params, train=True)
        # the running statistics stay as they were
        np.testing.assert_array_equal(params.extra["running_mean"].data, [0.0, 0.0])
        np.testing.assert_array_equal(params.extra["running_var"].data, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 5, 3)).astype(np.float32)
        scale = (1.0 + 0.3 * rng.standard_normal(3)).astype(np.float32)
        shift = rng.standard_normal(3).astype(np.float32)
        mask = np.ones((2, 5), dtype=np.float32)
        mask[1, 3:] = 0.0

        def fn(ts):
            x_t, sc, sh = ts
            params = T.LayerParams(
                "bn", sc, sh,
                extra={
                    "running_mean": tensor(np.zeros(3), grad=False),
                    "running_var": tensor(np.ones(3), grad=False),
                },
            )
            return T.batch_norm(x_t, mask, params, train=True)

        check_grad(fn, [x, scale, shift], seed=seed)

    def test_infer_gradient(self, rng):
        x = rng.standard_normal((1, 4, 2)).astype(np.float32)
        mask = np.ones((1, 4), dtype=np.float32)
        params = bn_params(2, mean=rng.standard_normal(2), var=np.abs(rng.standard_normal(2)) + 0.5)

        def fn(ts):
            p = T.LayerParams("bn", ts[1], ts[2], extra=params.extra)
            return T.batch_norm(ts[0], mask, p, train=False)

        check_grad(fn, [x, params.weights.data, params.biases.data])


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = tensor(rng.standard_normal((2, 3)))
        out = T.dropout(x, 0.0, train=True, rng=rng)
        np.testing.assert_array_equal(out.data, x.data)

    def test_infer_identity(self, rng):
        x = tensor(rng.standard_normal((2, 3)))
        out = T.dropout(x, 0.9, train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_bad_rate(self, rng):
        x = tensor(np.ones(3))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                T.dropout(x, rate, train=True, rng=rng)

    def test_survivor_stats(self, rng):
        x = tensor(np.ones(10_000))
        out = T.dropout(x, 0.5, train=True, rng=rng).data
        frac = (out != 0).mean()
        # Binomial(n=1e4, p=.5): sd of the fraction is 0.005.
        assert abs(frac - 0.5) < 3 * 0.005
        np.testing.assert_allclose(out[out != 0], 2.0, rtol=1e-6)

    def test_inverted_scaling_expectation(self):
        x = np.full(64, 3.0, dtype=np.float32)
        rng = np.random.default_rng(7)
        total = np.zeros(64, dtype=np.float64)
        n = 10_000
        for _ in range(n):
            total += T.dropout(tensor(x), 0.4, train=True, rng=rng).data
        # Per element: sd of the mean is |x|*sqrt(rate/(1-rate))/sqrt(n).
        sd = 3.0 * math.sqrt(0.4 / 0.6) / math.sqrt(n)
        assert np.abs(total / n - 3.0).max() < 4 * sd

    def test_gradient_with_fixed_mask(self):
        x = np.random.default_rng(3).standard_normal((4, 5)).astype(np.float32)
        check_grad(lambda ts: T.dropout(ts[0], 0.5, True, np.random.default_rng(11)), [x])


class TestSoftmaxCrossEntropy:
    def test_uniform_is_log_k(self):
        logits = tensor(np.zeros((1, 3, 8)))
        labels = np.array([[0, 3, 7]])
        mask = np.ones((1, 3), dtype=np.float32)
        loss = T.softmax_cross_entropy(logits, labels, mask)
        np.testing.assert_allclose(loss.data, math.log(8.0), rtol=1e-6)

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 2, 9), dtype=np.float32)
        logits[0, 0, 4] = 25.0
        logits[0, 1, 1] = 25.0
        loss = T.softmax_cross_entropy(
            tensor(logits), np.array([[4, 1]]), np.ones((1, 2), dtype=np.float32)
        )
        assert loss.data < 1e-6

    def test_masked_positions_do_not_contribute(self, rng):
        logits = rng.standard_normal((1, 10, 9)).astype(np.float32)
        labels = rng.integers(0, 8, size=(1, 10))
        mask = np.zeros((1, 10), dtype=np.float32)
        mask[0, :5] = 1.0
        full = T.softmax_cross_entropy(tensor(logits), labels, mask)
        half = T.softmax_cross_entropy(
            tensor(logits[:, :5]), labels[:, :5], np.ones((1, 5), dtype=np.float32)
        )
        np.testing.assert_allclose(full.data, half.data, rtol=1e-6)
        # independent recomputation of the masked mean
        z = logits[0, :5].astype(np.float64)
        lp = z - np.log(np.exp(z - z.max(1, keepdims=True)).sum(1, keepdims=True)) - z.max(1, keepdims=True)
        expected = -lp[np.arange(5), labels[0, :5]].mean()
        np.testing.assert_allclose(full.data, expected, rtol=1e-5)

    def test_empty_mask_rejected(self, rng):
        logits = tensor(rng.standard_normal((1, 4, 9)))
        with pytest.raises(EmptyLossError):
            T.softmax_cross_entropy(logits, np.zeros((1, 4), dtype=int), np.zeros((1, 4)))

    def test_out_of_range_label_rejected(self, rng):
        logits = tensor(rng.standard_normal((1, 2, 4)))
        with pytest.raises(ParameterError):
            T.softmax_cross_entropy(logits, np.array([[0, 9]]), np.ones((1, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((2, 4, 5)).astype(np.float32)
        labels = rng.integers(0, 5, size=(2, 4))
        mask = (rng.random((2, 4)) > 0.3).astype(np.float32)
        mask[0, 0] = 1.0
        check_grad(
            lambda ts: T.softmax_cross_entropy(ts[0], labels, mask), [logits], seed=seed
        )


class TestStructuralOps:
    def test_relu_and_gradient(self):
        x = away_from_kinks(np.random.default_rng(5).standard_normal((3, 4)))
        out = T.relu(tensor(x))
        np.testing.assert_array_equal(out.data, np.maximum(x, 0))
        check_grad(lambda ts: T.relu(ts[0]), [x])

    def test_concat_and_gradient(self, rng):
        a = rng.standard_normal((2, 3, 2)).astype(np.float32)
        b = rng.standard_normal((2, 3, 4)).astype(np.float32)
        out = T.concat_channels([tensor(a), tensor(b)])
        assert out.data.shape == (2, 3, 6)
        np.testing.assert_array_equal(out.data[..., :2], a)
        check_grad(lambda ts: T.concat_channels(list(ts)), [a, b])

    def test_concat_shape_mismatch(self, rng):
        a = tensor(rng.standard_normal((2, 3, 2)))
        b = tensor(rng.standard_normal((2, 4, 2)))
        with pytest.raises(ShapeError):
            T.concat_channels([a, b])

    def test_apply_mask(self, rng):
        x = rng.standard_normal((2, 4, 3)).astype(np.float32)
        mask = np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=np.float32)
        out = T.apply_mask(tensor(x), mask)
        assert (out.data[0, 2:] == 0).all() and (out.data[1, 1:] == 0).all()
        np.testing.assert_array_equal(out.data[0, :2], x[0, :2])
        check_grad(lambda ts: T.apply_mask(ts[0], mask), [x])

    def test_gather_windows_layout(self):
        x = tensor(np.arange(4, dtype=np.float32).reshape(1, 4, 1))
        out = T.gather_windows(x, 3).data
        np.testing.assert_array_equal(
            out[0], [[0, 0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 0]]
        )

    def test_gather_windows_gradient(self, rng):
        x = rng.standard_normal((2, 5, 3)).astype(np.float32)
        check_grad(lambda ts: T.gather_windows(ts[0], 3), [x])

    def test_masked_positions_are_inert(self, rng):
        # Full pipeline: masked-out input features must not leak into the
        # loss or any parameter gradient, bit for bit.
        x = rng.standard_normal((2, 6, 3)).astype(np.float32)
        mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 0, 0, 0]], dtype=np.float32)
        labels = rng.integers(0, 4, size=(2, 6))
        filt = rng.standard_normal((3, 3, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        w = rng.standard_normal((4, 4)).astype(np.float32)

        def run(features):
            f = tensor(filt)
            b = tensor(bias)
            wt = tensor(w)
            params = bn_params(4)
            h = T.apply_mask(tensor(features, grad=False), mask)
            h = T.conv1d(h, f, b)
            h = T.batch_norm(h, mask, params, train=True)
            h = T.relu(h)
            logits = T.dense(h, wt, tensor(np.zeros(4)))
            loss = T.softmax_cross_entropy(logits, labels, mask)
            loss.backward()
            return loss.data.copy(), f.grad.copy(), b.grad.copy(), wt.grad.copy()

        base = run(x)
        noisy = x.copy()
        noisy[0, 4:] = 1e4
        noisy[1, 3:] = -77.0
        other = run(noisy)
        for got, want in zip(other, base):
            np.testing.assert_array_equal(got, want)


class TestSingleUseGraph:
    """``backward`` consumes the graph it walks: op nodes drop their
    gradient, closure and parents, leaves keep their gradients, and a walk
    that reaches a consumed node raises ``ModeError``."""

    @staticmethod
    def _leaves(rng):
        return [tensor(rng.standard_normal(shape)) for shape in ((2, 3, 4), (4, 5), (5,))]

    @staticmethod
    def _forward(x, w, b):
        h = T.relu(x)
        return h, T.dense(h, w, b)

    def test_op_nodes_are_freed_and_leaves_keep_gradients(self, rng):
        x, w, b = self._leaves(rng)
        h, out = self._forward(x, w, b)
        out.backward(np.ones_like(out.data))
        for node in (h, out):
            assert node.grad is None and node._backward is None and node._parents is None
            assert node.data.shape  # values stay readable
        assert all(leaf.grad is not None for leaf in (x, w, b))

    def test_second_backward_raises_before_touching_gradients(self, rng):
        x, w, b = self._leaves(rng)
        _, out = self._forward(x, w, b)
        out.backward(np.ones_like(out.data))
        grads = [leaf.grad.copy() for leaf in (x, w, b)]
        with pytest.raises(ModeError, match="consumed"):
            out.backward(np.ones_like(out.data))
        for leaf, g in zip((x, w, b), grads):
            np.testing.assert_array_equal(leaf.grad, g)

    def test_backward_through_a_tensor_built_on_a_consumed_node_raises(self, rng):
        x, w, b = self._leaves(rng)
        h, out = self._forward(x, w, b)
        out.backward(np.ones_like(out.data))
        with pytest.raises(ModeError, match="consumed"):
            T.relu(h).backward(np.ones_like(h.data))
        with pytest.raises(ModeError, match="consumed"):
            T.relu(out).backward(np.ones_like(out.data))

    def test_fresh_forward_after_a_refused_walk_works(self, rng):
        x, w, b = self._leaves(rng)
        _, out = self._forward(x, w, b)
        out.backward(np.ones_like(out.data))
        first = [leaf.grad.copy() for leaf in (x, w, b)]
        with pytest.raises(ModeError):
            out.backward(np.ones_like(out.data))
        with pytest.raises(ModeError):
            T.relu(out).backward(np.ones_like(out.data))
        for leaf in (x, w, b):
            leaf.grad = None
        _, again = self._forward(x, w, b)
        again.backward(np.ones_like(again.data))
        for leaf, g in zip((x, w, b), first):
            np.testing.assert_array_equal(leaf.grad, g)

    def test_a_leaf_root_accumulates(self):
        x = tensor([1.0, 2.0])
        x.backward()
        x.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_an_assigned_backward_is_the_closure_the_walk_calls(self, rng):
        """A hook that replaces an op output's ``_backward`` (as the benchmark
        tracer does to time each op's backward) reads back as itself and is
        the closure ``backward`` runs, once, with the output's gradient."""
        x, w, b = self._leaves(rng)
        h, out = self._forward(x, w, b)
        inner, seen = out._backward, []

        def hooked(g):
            seen.append(g.copy())
            inner(g)

        out._backward = hooked
        assert out._backward is hooked
        seed = rng.standard_normal(out.data.shape).astype(np.float32)
        out.backward(seed)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], seed)
        assert w.grad is not None and x.grad is not None

    def test_tensors_are_freed_without_the_cycle_collector(self, rng):
        """No tensor, leaf or op output, sits in a reference cycle, walked or
        not: each one's array is freed with its last reference."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for walk in (False, True):
                x, w, b = self._leaves(rng)
                h, out = self._forward(x, w, b)
                if walk:
                    out.backward(np.ones_like(out.data))
                refs = [weakref.ref(t.data) for t in (x, w, b, h, out)]
                del x, w, b, h, out
                assert [r() for r in refs] == [None] * 5
        finally:
            if enabled:
                gc.enable()


class TestGraphFollowsRequiresGrad:
    """An op keeps its parents and backward closure only when one of its
    inputs requires a gradient; no mode switch is involved."""

    def test_op_on_gradient_free_inputs_keeps_no_graph(self, rng):
        x, w, b = (tensor(rng.standard_normal(shape), grad=False)
                   for shape in ((2, 3, 4), (4, 5), (5,)))
        out = T.relu(T.dense(x, w, b))
        assert out._parents == () and out._backward is None
        assert not out.requires_grad

    def test_op_with_one_requiring_input_keeps_both(self, rng):
        x, b = (tensor(rng.standard_normal(shape), grad=False) for shape in ((2, 3, 4), (5,)))
        w = tensor(rng.standard_normal((4, 5)))
        out = T.dense(x, w, b)
        # the graph links the requiring input's node, not the tensors
        assert out._parents == (w._node,) and out._backward is not None
        assert out.requires_grad
        out.backward(np.ones_like(out.data))
        assert w.grad is not None and x.grad is None and b.grad is None


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = tensor([1.0])
        p.grad = np.array([0.5], dtype=np.float32)
        state = T.AdamState.for_params({"p": p})
        T.adam_update({"p": p}, state, lr=1e-3)
        assert state.step == 1
        # float32 parameter storage quantizes the applied step
        np.testing.assert_allclose(1.0 - p.data[0], 1e-3, rtol=1e-4)

    def test_zero_gradient_leaves_param(self):
        p = tensor([2.0, -3.0])
        p.grad = np.zeros(2, dtype=np.float32)
        state = T.AdamState.for_params({"p": p})
        T.adam_update({"p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [2.0, -3.0])

    def test_deterministic(self, rng):
        g = rng.standard_normal((3, 4)).astype(np.float32)

        def run():
            p = tensor(np.ones((3, 4)))
            state = T.AdamState.for_params({"p": p})
            for _ in range(5):
                p.grad = g
                T.adam_update({"p": p}, state, lr=0.01)
            return p.data

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_rejected(self):
        p = tensor([1.0])
        p.grad = np.array([np.nan], dtype=np.float32)
        state = T.AdamState.for_params({"p": p})
        with pytest.raises(NonFiniteError):
            T.adam_update({"p": p}, state, lr=0.01)

    def test_non_finite_update_names_the_parameter(self):
        """A finite gradient whose step overflows the float32 parameter."""
        params = {"a": tensor([1.0]), "b": tensor([-3e38])}
        for p in params.values():
            p.grad = np.array([1.0], dtype=np.float32)
        state = T.AdamState.for_params(params)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="parameter 'b'"):
            T.adam_update(params, state, lr=1e38)

    def test_step_counts_updates(self):
        p = tensor([1.0])
        state = T.AdamState.for_params({"p": p})
        for i in range(1, 4):
            p.grad = np.array([0.1], dtype=np.float32)
            T.adam_update({"p": p}, state, lr=0.01)
            assert state.step == i


class TestMaxNorm:
    def test_rescales_oversized_column(self):
        w = np.array([[0.06], [0.08]], dtype=np.float32)
        out = T.max_norm_project(w, 0.04614)
        np.testing.assert_allclose(out, w * 0.4614, rtol=1e-5)
        assert np.linalg.norm(out, axis=0)[0] <= 0.04614 + 1e-6

    def test_inside_ball_untouched(self, rng):
        w = (rng.standard_normal((5, 3)) * 0.001).astype(np.float32)
        out = T.max_norm_project(w, 1.0)
        np.testing.assert_array_equal(out, w)

    def test_zero_column_untouched(self):
        w = np.zeros((4, 2), dtype=np.float32)
        np.testing.assert_array_equal(T.max_norm_project(w, 0.1), w)

    @given(seed=st.integers(0, 10_000), c=st.floats(0.01, 10.0))
    def test_idempotent_bitwise(self, seed, c):
        w = np.random.default_rng(seed).standard_normal((6, 4)).astype(np.float32) * 3
        once = T.max_norm_project(w, c)
        twice = T.max_norm_project(once, c)
        np.testing.assert_array_equal(once, twice)
        assert (np.linalg.norm(once.astype(np.float64), axis=0) <= c + 1e-6).all()


def max_norm_two_buffers(weights, c):
    """``max_norm_project`` as it was before it reused one float64 buffer:
    the oracle for the one-buffer version, bit for bit."""
    w = np.asarray(weights, dtype=np.float32)
    w64 = w.astype(np.float64)
    norms = np.sqrt((w64 * w64).sum(axis=0))
    over = norms > c * (1.0 + T._MAX_NORM_SLACK)
    if not over.any():
        return w.copy()
    scale = np.ones_like(norms)
    scale[over] = c / norms[over]
    return (w64 * scale).astype(np.float32)


class TestMaxNormMatchesTwoBuffers:
    @staticmethod
    def _check(w, c):
        got = T.max_norm_project(w, c)
        want = max_norm_two_buffers(w, c)
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        return got

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (64, 40), (567, 455)])
    @pytest.mark.parametrize("c", [0.04614, 0.5, 3.0])
    def test_random_matrices(self, rng, shape, c):
        self._check((rng.standard_normal(shape) * 0.1).astype(np.float32), c)

    def test_columns_at_the_slack_boundary(self, rng):
        """Bounds a few float64 ulps either side of each column's trigger
        norm, c * (1 + slack), so every column flips in or out between calls."""
        w = rng.standard_normal((40, 6)).astype(np.float32)
        norms = np.sqrt((w.astype(np.float64) ** 2).sum(axis=0))
        for j in range(w.shape[1]):
            c = norms[j] / (1.0 + T._MAX_NORM_SLACK)
            for _ in range(3):
                c = np.nextafter(c, 0.0)
            for _ in range(7):
                self._check(w, float(c))
                c = np.nextafter(c, np.inf)

    def test_all_inside_returns_an_equal_copy(self, rng):
        w = (rng.standard_normal((30, 8)) * 1e-3).astype(np.float32)
        got = self._check(w, 10.0)
        assert got is not w and not np.shares_memory(got, w)


class TestInit:
    def test_weight_std_matches_fan_in(self):
        rng = np.random.default_rng(0)
        w9 = T.init_weights((100_000,), fan_in=9, rng=rng).data
        assert abs(w9.std() - 1.0) < 0.01 and abs(w9.mean()) < 0.01
        w900 = T.init_weights((100_000,), fan_in=900, rng=rng).data
        assert abs(w900.std() - 0.1) < 0.001

    def test_bias_constant(self):
        b = T.init_bias((7, 3))
        assert (b.data == np.float32(0.1)).all()

    def test_deterministic_under_seed(self):
        a = T.init_weights((4, 4), 16, np.random.default_rng(42)).data
        b = T.init_weights((4, 4), 16, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)
