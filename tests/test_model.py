"""Model structure, receptive fields, and forward-pass locality."""

import dataclasses
import functools
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chaincnn.model
import chaincnn.tensor as T
from chaincnn.data import NOSEQ_CLASS, NUM_CLASSES, make_batch
from chaincnn.errors import ConfigError, ModeError, ParameterError, ShapeError
from chaincnn.inference import context_window, extract_window, step_scores
from chaincnn.model import (
    BlockSpec,
    Model,
    ModelConfig,
    Stepper,
    _conv_columns,
    _norm_relu,
    _Queue,
    _row_blocks,
    build,
    parameter_count,
    receptive_field,
)
from corpus import rule_corpus, shipped_model


def small_config(conditioned=False, skip=True):
    return ModelConfig(
        fc_window=5,
        fc_layers=2,
        fc_width=32,
        blocks=(BlockSpec(multi_scale=((3, 8), (5, 8)), single_scale=(5, 8)),) * 2,
        skip_connections=skip,
        skip_projection_depth=12,
        conditioned=conditioned,
        dropout_rate=0.4,
        fc_max_norm=0.15,
    )


def window_config(fc_window):
    """A conditioned block-free model: its receptive field is the fc_window,
    so its conditioning shift is (fc_window + 1) // 2."""
    return ModelConfig(fc_window=fc_window, fc_layers=1,
                       fc_width=8, conditioned=True)


SHIPPED = tuple(f"ablation_row{i}" for i in range(1, 10)) + ("chained",)


def window_oracle(model, features, mask, context=None):
    """Reference window scorer for [batch, width, 42] windows: the full
    SAME-padded ``forward`` over each window, log-softmaxed at the center.
    Same signature as ``Model.forward_window``, so tests can patch it in."""
    features = np.asarray(features, dtype=np.float32)
    logits = model.forward(features, np.asarray(mask, dtype=np.float32), context).data
    return T.log_softmax(logits[:, features.shape[1] // 2])


def randomized_stats_model(config, seed):
    """A built model whose batch-norm running statistics are random, so
    inference-mode normalization is not close to the identity."""
    model = build(config, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for lp in model.layers.values():
        if "running_mean" in lp.extra:
            ch = lp.weights.data.shape[0]
            lp.extra["running_mean"].data = rng.normal(0.0, 0.3, ch).astype(np.float32)
            lp.extra["running_var"].data = rng.uniform(0.5, 2.0, ch).astype(np.float32)
    return model


@functools.lru_cache(maxsize=None)
def conditioned_shipped(name):
    config = dataclasses.replace(shipped_model(name), conditioned=True)
    return randomized_stats_model(config, SHIPPED.index(name))


def trainable_size(model):
    return sum(t.data.size for t in model.trainable().values())


class TestParameterCounts:
    def test_fc_baseline_closed_form(self):
        cfg = shipped_model("ablation_row1")
        expected = 17 * 42 * 455 + 455 + 4 * (455 * 455 + 455) + 455 * 9 + 9
        assert parameter_count(cfg) == expected
        model = build(cfg, np.random.default_rng(0))
        assert trainable_size(model) == expected

    @pytest.mark.parametrize("row", range(1, 10))
    def test_all_rows_match_built_models(self, row):
        cfg = shipped_model(f"ablation_row{row}")
        model = build(cfg, np.random.default_rng(0))
        assert trainable_size(model) == parameter_count(cfg)

    def test_conditioned_grows_input_channels(self):
        plain = parameter_count(shipped_model("ablation_row9"))
        cond = parameter_count(shipped_model("chained"))
        # 9 extra input channels hit the three width-3/7/9 depth-64 convs
        assert cond - plain == 9 * 9 * (3 + 7 + 9) * 64 // 9


class TestChannelArithmetic:
    def test_final_architecture_widths(self):
        model = build(shipped_model("ablation_row9"), np.random.default_rng(1))
        assert model.layers["block1.multi_norm"].weights.data.shape == (192,)
        assert model.layers["block1.single"].weights.data.shape == (9, 192, 24)
        # skip projection condenses the previous block's 24-channel output
        assert model.layers["block2.skip"].weights.data.shape == (1, 24, 96)
        # trunk output = 24 + 96 channels, windowed by 11 into the head
        assert model.layers["fc1"].weights.data.shape == (11 * 120, 455)
        assert model.layers["fc2"].weights.data.shape == (455, 455)
        assert model.layers["output"].weights.data.shape == (455, 9)

    def test_no_residual_rows_have_no_skip_layers(self):
        model = build(shipped_model("ablation_row8"), np.random.default_rng(1))
        assert not any("skip" in name for name in model.layers)

    def test_block_validation(self):
        with pytest.raises(ConfigError):
            BlockSpec().validate()
        with pytest.raises(ConfigError):
            BlockSpec(multi_scale=((4, 8),)).validate()

    @pytest.mark.parametrize("config", [
        ModelConfig(fc_window=11, fc_layers=2),
        ModelConfig(fc_window=11, fc_layers=2,
                    blocks=(BlockSpec(multi_scale=((3, 8),)),) * 2, skip_connections=True),
    ], ids=["fully_connected", "convolutional"])
    def test_skip_projection_depth_must_be_positive(self, config):
        with pytest.raises(ConfigError, match="skip projection depth"):
            dataclasses.replace(config, skip_projection_depth=0).validate()


class TestReceptiveField:
    def test_single_conv(self):
        cfg = ModelConfig(
            fc_window=1, fc_layers=1,
            blocks=(BlockSpec(multi_scale=((3, 4),)),),
        )
        assert receptive_field(cfg).width == 3

    def test_fc_baseline_is_window(self):
        rf = receptive_field(shipped_model("ablation_row1"))
        assert rf.width == 17

    def test_final_architecture(self):
        rf = receptive_field(shipped_model("ablation_row9"))
        assert rf.width == 11 + 4 * 8 == 43
        assert rf.radius == 21
        assert rf.conditioning_shift == 22

    def test_multi_uses_widest_filter(self):
        rf = receptive_field(shipped_model("ablation_row4"))
        assert rf.width == 11 + (7 - 1)


class TestBuildDeterminism:
    def test_equal_seeds_equal_tensors(self):
        a = build(small_config(), np.random.default_rng(77))
        b = build(small_config(), np.random.default_rng(77))
        for name, t in a.named_tensors().items():
            np.testing.assert_array_equal(t.data, b.named_tensors()[name].data)

    def test_different_seeds_differ(self):
        a = build(small_config(), np.random.default_rng(1))
        b = build(small_config(), np.random.default_rng(2))
        assert any(
            not np.array_equal(t.data, b.named_tensors()[n].data)
            for n, t in a.trainable().items()
        )


class TestForward:
    def test_logit_shape_and_finite(self, rng):
        model = build(small_config(), np.random.default_rng(3))
        recs = rule_corpus(n=2, length=20, seed=0)
        batch = make_batch(recs, length=32)
        logits = model.forward(batch.features, batch.mask, train=True,
                               rng=np.random.default_rng(0))
        assert logits.data.shape == (2, 32, 9)
        assert np.isfinite(logits.data).all()

    def test_channel_mismatch_rejected(self, rng):
        model = build(small_config(conditioned=True), np.random.default_rng(3))
        recs = rule_corpus(n=1, length=10, seed=0)
        batch = make_batch(recs)  # 42 feature channels, no label context
        with pytest.raises(ModeError):
            model.forward(batch.features, batch.mask)
        # features with the conditioning channels already appended
        wide = np.zeros(batch.features.shape[:2] + (51,), dtype=np.float32)
        with pytest.raises(ShapeError):
            model.forward(wide, batch.mask, model.label_context(batch.labels))

    def test_context_errors(self):
        plain = build(small_config(), np.random.default_rng(1))
        cond = build(small_config(conditioned=True), np.random.default_rng(1))
        batch = make_batch(rule_corpus(n=1, length=10, seed=0), length=16)
        with pytest.raises(ModeError):
            plain.forward(batch.features, batch.mask, batch.labels)
        with pytest.raises(ShapeError):
            cond.forward(batch.features, batch.mask, batch.labels[:, :15])
        with pytest.raises(ParameterError):
            cond.forward(batch.features, batch.mask, batch.labels - 1)

    @pytest.mark.parametrize("row", range(1, 10))
    def test_every_ablation_row_runs(self, row):
        model = build(shipped_model(f"ablation_row{row}"), np.random.default_rng(row))
        recs = rule_corpus(n=2, length=12, seed=1)
        batch = make_batch(recs, length=16)
        logits = model.forward(batch.features, batch.mask, train=True,
                               rng=np.random.default_rng(0))
        loss = T.softmax_cross_entropy(logits, batch.labels, batch.mask)
        assert np.isfinite(loss.data)
        loss.backward()
        assert all(t.grad is not None for t in model.trainable().values())


class TestGraphFreeInference:
    def _batch(self):
        return make_batch(rule_corpus(n=2, length=12, seed=3), length=16)

    def test_infer_forward_keeps_no_graph(self):
        model = build(small_config(), np.random.default_rng(3))
        batch = self._batch()
        logits = model.forward(batch.features, batch.mask)
        assert logits._parents == () and logits._backward is None
        assert not logits.requires_grad
        trained = model.forward(batch.features, batch.mask, train=True,
                                rng=np.random.default_rng(0))
        assert trained._parents and trained._backward is not None

    def test_same_values_as_the_graph_keeping_forward(self, monkeypatch):
        model = randomized_stats_model(small_config(), 3)
        batch = self._batch()
        expected = model.forward(batch.features, batch.mask).data
        # infer mode on the live, gradient-requiring layers records the graph
        monkeypatch.setattr(T.LayerParams, "frozen", lambda lp: lp)
        h = model._trunk(T.Tensor(model._with_context(batch.features, None)), batch.mask,
                         False, None)
        reference = model._head(T.gather_windows(h, model.config.fc_window), False, None)
        assert reference._parents
        np.testing.assert_array_equal(expected, reference.data)

    def test_worker_infer_forward_beside_a_train_forward(self):
        """A worker thread's infer-mode forward keeps no graph while the
        calling thread's train-mode forward, run at the same time, keeps its
        own: graph recording follows the tensors, not a per-thread mode."""
        model = build(small_config(), np.random.default_rng(3))
        batch = self._batch()
        barrier = threading.Barrier(2, timeout=30)
        built = {}

        def infer():
            barrier.wait()
            built["infer"] = model.forward(batch.features, batch.mask)

        worker = threading.Thread(target=infer)
        worker.start()
        barrier.wait()
        trained = model.forward(batch.features, batch.mask, train=True,
                                rng=np.random.default_rng(0))
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert built["infer"]._parents == () and not built["infer"].requires_grad
        assert trained._parents and trained._backward is not None


class TestLocality:
    def _infer_logits(self, model, features, mask):
        return model.forward(features, mask, train=False).data

    def test_occlusion_outside_receptive_field_is_inert(self):
        model = build(small_config(), np.random.default_rng(5))
        radius = model.receptive_field().radius
        rng = np.random.default_rng(8)
        length = 64
        feats = rng.standard_normal((1, length, 42)).astype(np.float32)
        mask = np.ones((1, length), dtype=np.float32)
        base = self._infer_logits(model, feats, mask)
        center = 32
        noisy = feats.copy()
        noisy[0, : center - radius] += 9.0
        noisy[0, center + radius + 1 :] -= 4.0
        out = self._infer_logits(model, noisy, mask)
        np.testing.assert_array_equal(out[0, center], base[0, center])

    def test_perturbation_inside_receptive_field_matters(self):
        model = build(small_config(), np.random.default_rng(5))
        radius = model.receptive_field().radius
        rng = np.random.default_rng(9)
        length = 64
        feats = rng.standard_normal((1, length, 42)).astype(np.float32)
        mask = np.ones((1, length), dtype=np.float32)
        base = self._infer_logits(model, feats, mask)
        center = 32
        noisy = feats.copy()
        noisy[0, center + radius] += 3.0  # edge of the receptive field
        out = self._infer_logits(model, noisy, mask)
        assert not np.array_equal(out[0, center], base[0, center])

    def test_translation_equivariance(self):
        model = build(small_config(), np.random.default_rng(6))
        rng = np.random.default_rng(10)
        length, seg_len, offset, k = 120, 40, 30, 7
        segment = rng.standard_normal((seg_len, 42)).astype(np.float32)
        mask = np.ones((1, length), dtype=np.float32)
        a = np.zeros((1, length, 42), dtype=np.float32)
        a[0, offset : offset + seg_len] = segment
        b = np.zeros((1, length, 42), dtype=np.float32)
        b[0, offset + k : offset + k + seg_len] = segment
        la = self._infer_logits(model, a, mask)
        lb = self._infer_logits(model, b, mask)
        radius = model.receptive_field().radius
        lo, hi = radius, length - radius - k
        np.testing.assert_allclose(la[0, lo:hi], lb[0, lo + k : hi + k], atol=1e-5)

    def test_conditioned_causality_bitwise(self):
        model = build(small_config(conditioned=True), np.random.default_rng(7))
        recs = rule_corpus(n=1, length=40, seed=2)
        batch = make_batch(recs, length=48)
        out_base = model.forward(batch.features, batch.mask,
                                 model.label_context(batch.labels)).data
        # the label at q surfaces at channel position q + shift, which must land
        # on a real residue: padding is masked before the first convolution
        for q in (12, 20, 28):
            mutated = batch.labels.copy()
            mutated[0, q] = (mutated[0, q] + 3) % 8
            out = model.forward(batch.features, batch.mask, model.label_context(mutated)).data
            np.testing.assert_array_equal(out[0, :q + 1], out_base[0, :q + 1])
            assert not np.array_equal(out[0], out_base[0])


class TestLabelContext:
    """``Model.label_context`` shifts labels right by the conditioning shift
    behind a no-seq prefix; ``forward`` one-hot encodes the result."""

    def test_shift_arithmetic(self):
        model = build(shipped_model("chained"), np.random.default_rng(0))
        assert model.receptive_field().conditioning_shift == 22
        recs = rule_corpus(n=1, length=30, seed=0)
        label0 = recs[0].labels[0]
        ctx = model.label_context(make_batch(recs).labels)[0]
        assert ctx.shape == (700,)
        # positions before the shift see the no-seq label
        np.testing.assert_array_equal(ctx[:22], NOSEQ_CLASS)
        # position 22 carries label 0
        assert ctx[22] == label0
        # position 29 carries label 7's class
        assert ctx[29] == recs[0].labels[7]

    def test_context_override(self):
        model = build(window_config(3), np.random.default_rng(0))  # shift 2
        # a sampled context for a 10-residue record, padded with no-seq the
        # way the training loop pads it
        mixed = np.full((1, 12), NOSEQ_CLASS, dtype=np.int64)
        mixed[0, :10] = 3
        np.testing.assert_array_equal(model.label_context(mixed)[0, 2:12], 3)

    def test_shorter_than_shift(self):
        model = build(window_config(5), np.random.default_rng(0))  # shift 3
        np.testing.assert_array_equal(model.label_context([[1, 2]]), [[NOSEQ_CLASS] * 2])

    @given(k=st.integers(0, 9))
    def test_causality_of_conditioning(self, k):
        model = build(window_config(5), np.random.default_rng(0))  # shift 3
        batch = make_batch(rule_corpus(n=1, length=10, seed=1), length=16)
        mutated = batch.labels.copy()
        mutated[0, k] = (mutated[0, k] + 1) % 8
        base, changed = model.label_context(batch.labels), model.label_context(mutated)
        cutoff = k + 3
        np.testing.assert_array_equal(base[0, :cutoff], changed[0, :cutoff])
        out_base = model.forward(batch.features, batch.mask, base).data
        out = model.forward(batch.features, batch.mask, changed).data
        np.testing.assert_array_equal(out[0, : k + 1], out_base[0, : k + 1])

    def test_forward_appends_one_hot_channels(self):
        model = build(window_config(1), np.random.default_rng(4))
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((2, 6, 42)).astype(np.float32)
        mask = np.ones((2, 6), dtype=np.float32)
        ctx = rng.integers(0, NUM_CLASSES, (2, 6))
        x = np.concatenate([feats, np.eye(NUM_CLASSES, dtype=np.float32)[ctx]], axis=2)
        fc, out = model.layers["fc1"], model.layers["output"]
        hidden = np.maximum(x @ fc.weights.data + fc.biases.data, 0.0)
        want = hidden @ out.weights.data + out.biases.data
        np.testing.assert_allclose(model.forward(feats, mask, ctx).data, want,
                                   rtol=1e-5, atol=1e-6)


class TestWindowKernels:
    """The scorers' plain-array conv and norm against the autodiff ops."""

    # (1, 1), (3, 2) and (5, 3): a narrower conv inside a wider stage's crop
    @pytest.mark.parametrize("width,crop", [(1, 1), (3, 1), (3, 2), (5, 2), (5, 3)])
    def test_valid_conv_keeps_inner_positions(self, rng, width, crop):
        x = rng.standard_normal((3, 9, 4)).astype(np.float32)
        lp = T.LayerParams("c", T.Tensor(rng.standard_normal((width, 4, 8))),
                           T.Tensor(rng.standard_normal(8)))
        out = _conv_columns(np.ascontiguousarray(x.transpose(1, 0, 2)), lp, crop,
                            _row_blocks(3, 2))
        assert out.shape == (9 - 2 * crop, 3, 8)
        full = T.conv1d(T.Tensor(x), lp.weights, lp.biases).data
        np.testing.assert_allclose(out.transpose(1, 0, 2), full[:, crop : 9 - crop],
                                   rtol=1e-5, atol=1e-5)

    def test_valid_conv_hand_values(self):
        # two rows, time-major: the second row is the first times 10
        x = np.array([[[1.0], [10.0]], [[2.0], [20.0]], [[3.0], [30.0]], [[4.0], [40.0]]],
                     dtype=np.float32)
        lp = T.LayerParams("c", T.Tensor(np.ones((3, 1, 1))), T.Tensor([0.5]))
        np.testing.assert_array_equal(_conv_columns(x, lp, 1, [(0, 2)])[:, :, 0],
                                      [[6.5, 60.5], [9.5, 90.5]])

    def test_norm_relu_is_the_infer_mode_ops(self):
        model = randomized_stats_model(small_config(), 4)
        lp = model.layers["block1.multi_norm"]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 6, lp.weights.data.shape[0])).astype(np.float32)
        mask = (rng.random((2, 6)) > 0.3).astype(np.float32)
        ops = T.apply_mask(T.relu(T.batch_norm(T.Tensor(x), mask, lp, False)), mask)
        np.testing.assert_array_equal(_norm_relu(x, lp, mask[:, :, None]), ops.data)


class TestForwardWindow:
    def _window_inputs(self, rec, center, radius, conditioned_shift=None, length=None):
        width = 2 * radius + 1
        feats = np.zeros((width, 42), dtype=np.float32)
        mask = np.zeros(width, dtype=np.float32)
        ctx = np.full(width, 8, dtype=np.int64) if conditioned_shift else None
        for w in range(width):
            j = center - radius + w
            if 0 <= j < rec.length:
                feats[w] = rec.features[j]
                mask[w] = 1.0
            if conditioned_shift is not None and 0 <= j - conditioned_shift < rec.length:
                ctx[w] = rec.labels[j - conditioned_shift]
        return feats, mask, ctx

    def test_matches_full_forward(self):
        model = build(small_config(), np.random.default_rng(11))
        radius = model.receptive_field().radius
        rec = rule_corpus(n=1, length=60, seed=3)[0]
        batch = make_batch([rec], length=64)
        full = model.forward(batch.features, batch.mask).data
        for center in (0, 5, 30, 59):
            feats, mask, _ = self._window_inputs(rec, center, radius)
            got = model.forward_window(feats[None], mask[None])[0]
            want = T.log_softmax(full[0, center])
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_matches_full_forward_conditioned(self):
        model = build(small_config(conditioned=True), np.random.default_rng(12))
        rf = model.receptive_field()
        rec = rule_corpus(n=1, length=50, seed=4)[0]
        batch = make_batch([rec], length=64)
        full = model.forward(batch.features, batch.mask, model.label_context(batch.labels)).data
        for center in (0, 17, 49):
            feats, mask, ctx = self._window_inputs(
                rec, center, rf.radius, conditioned_shift=rf.conditioning_shift
            )
            got = model.forward_window(feats[None], mask[None], ctx[None])[0]
            want = T.log_softmax(full[0, center])
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_batched_windows(self):
        model = build(small_config(), np.random.default_rng(13))
        radius = model.receptive_field().radius
        rec = rule_corpus(n=1, length=30, seed=5)[0]
        singles, feats, masks = [], [], []
        for center in (3, 11, 22):
            f, m, _ = self._window_inputs(rec, center, radius)
            singles.append(model.forward_window(f[None], m[None])[0])
            feats.append(f)
            masks.append(m)
        batched = model.forward_window(np.stack(feats), np.stack(masks))
        np.testing.assert_array_equal(batched, np.stack(singles))

    def test_zero_windows(self):
        model = build(small_config(conditioned=True), np.random.default_rng(14))
        width = model.receptive_field().width
        got = model.forward_window(np.zeros((0, width, 42), dtype=np.float32),
                                   np.zeros((0, width)), np.zeros((0, width), dtype=np.int64))
        assert got.shape == (0, NUM_CLASSES)

    def test_one_window_pads_rows_to_two(self, monkeypatch):
        """One row would go to gemv, so the trunk runs it beside a zero row:
        its score is the first of two windows whose second is all padding."""
        model = build(small_config(), np.random.default_rng(15))
        width = model.receptive_field().width
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((1, width, 42)).astype(np.float32)
        mask = (rng.random((1, width)) > 0.2).astype(np.float32)
        seen = []

        def recording(x, lp, crop, blocks):
            seen.append((x.shape[1], list(blocks)))
            return _conv_columns(x, lp, crop, blocks)

        monkeypatch.setattr(chaincnn.model, "_conv_columns", recording)
        got = model.forward_window(feats, mask)
        assert seen and all(s == (2, [(0, 2)]) for s in seen)
        padded = model.forward_window(np.concatenate([feats, np.zeros_like(feats)]),
                                      np.concatenate([mask, np.zeros_like(mask)]))
        np.testing.assert_array_equal(got, padded[:1])

    def test_context_mode_errors(self):
        plain = build(small_config(), np.random.default_rng(1))
        cond = build(small_config(conditioned=True), np.random.default_rng(1))
        width = plain.receptive_field().width
        feats = np.zeros((1, width, 42), dtype=np.float32)
        mask = np.ones((1, width), dtype=np.float32)
        with pytest.raises(ModeError):
            cond.forward_window(feats, mask)
        with pytest.raises(ModeError):
            plain.forward_window(feats, mask, np.zeros((1, width), dtype=np.int64))

    def test_wrong_width_rejected(self):
        model = build(small_config(), np.random.default_rng(1))
        width = model.receptive_field().width
        with pytest.raises(ShapeError):
            model.forward_window(np.zeros((1, 5, 42), dtype=np.float32), np.ones((1, 5)))
        # an unstacked window is rejected with the stacked shape it needs
        with pytest.raises(ShapeError, match=rf"\[batch, {width}, 42\]"):
            model.forward_window(np.zeros((width, 42), dtype=np.float32), np.ones(width))
        # a mask that would broadcast over the batch is rejected too
        with pytest.raises(ShapeError, match=rf"\[batch, {width}\] mask"):
            model.forward_window(np.zeros((2, width, 42), dtype=np.float32), np.ones((1, width)))


class TestForwardWindowMatchesOracle:
    """``forward_window`` (valid-conv trunk, center-only head) equals the full
    forward over the window bit for bit, whatever the batch size."""

    @given(
        name=st.sampled_from(("chained", "ablation_row7", "ablation_row9")),
        batch=st.integers(1, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(name="chained", batch=1, seed=0)
    @example(name="chained", batch=4, seed=1)
    @example(name="chained", batch=43, seed=2)
    @example(name="chained", batch=44, seed=3)
    @example(name="ablation_row7", batch=44, seed=4)
    @example(name="ablation_row9", batch=43, seed=5)
    def test_conditioned_property(self, name, batch, seed):
        model = conditioned_shipped(name)
        rf = model.receptive_field()
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 60))
        rec = rule_corpus(n=1, length=length, seed=seed % 1000)[0]
        # centers from -radius to length + radius - 1: windows hang past both ends
        centers = rng.integers(-rf.radius, length + rf.radius, size=batch)
        feats, masks = zip(*(extract_window(rec, int(c), rf.radius) for c in centers))
        feats, masks = np.stack(feats), np.stack(masks)
        ctx = rng.integers(0, NUM_CLASSES, size=(batch, rf.width))
        np.testing.assert_array_equal(
            model.forward_window(feats, masks, ctx), window_oracle(model, feats, masks, ctx)
        )

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_configs(self, name):
        config = shipped_model(name)
        model = randomized_stats_model(config, 100 + SHIPPED.index(name))
        width = model.receptive_field().width
        rng = np.random.default_rng(7)
        # 15-17 and 128-129 straddle the head's 16-row floor and 128-row
        # blocks; one 256-row block would leave the output layer's
        # small-matrix kernel
        for batch in (1, 4, 15, 16, 17, 43, 44, 100, 128, 129, 256):
            feats = rng.standard_normal((batch, width, 42)).astype(np.float32)
            mask = (rng.random((batch, width)) > 0.2).astype(np.float32)
            ctx = rng.integers(0, NUM_CLASSES, (batch, width)) if config.conditioned else None
            np.testing.assert_array_equal(
                model.forward_window(feats, mask, ctx), window_oracle(model, feats, mask, ctx)
            )


class TestStepperMatchesWindowPath:
    """``Stepper`` scores every position bit-identically to ``forward_window``
    over the stacked ``extract_window``/``context_window`` windows, for every
    shipped architecture made conditioned, at row counts on both sides of
    the head's 16-row floor and past one 128-row block, and with records
    that are empty, shorter than the radius, or longer."""

    @pytest.mark.parametrize("name", SHIPPED)
    @given(rows=st.sampled_from((1, 2, 8, 15, 16, 17, 43, 44, 50)),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=1)
    @example(rows=1, seed=0)
    @example(rows=1, seed=1)
    @example(rows=1, seed=2)
    @example(rows=2, seed=1)
    @example(rows=8, seed=0)
    @example(rows=15, seed=2)
    @example(rows=16, seed=0)
    @example(rows=17, seed=1)
    @example(rows=43, seed=1)
    @example(rows=44, seed=2)
    @example(rows=50, seed=0)
    def test_every_position(self, name, rows, seed):
        model = conditioned_shipped(name)
        rf = model.receptive_field()
        rng = np.random.default_rng(seed)
        # record k is empty, shorter than the radius, or longer, by (seed + k) % 3
        lengths = [
            (0, int(rng.integers(1, rf.radius)), int(rng.integers(rf.radius, rf.radius + 12)))[
                (seed + k) % 3]
            for k in range(rows)
        ]
        self._check(model, lengths, rng, seed % 1000, every_position=rows <= 8)

    def test_large_batch(self):
        # 260 rows in one matmul would leave sgemm's small-matrix kernel
        model = conditioned_shipped("chained")
        rng = np.random.default_rng(5)
        lengths = [int(n) for n in rng.integers(0, 40, size=260)]
        self._check(model, lengths, rng, 0, every_position=False)

    @staticmethod
    def _check(model, lengths, rng, corpus_seed, every_position):
        rf = model.receptive_field()
        records = [rule_corpus(n=1, length=n, seed=corpus_seed + k)[0]
                   for k, n in enumerate(lengths)]
        labels = [rng.integers(0, 8, size=n) for n in lengths]
        max_len = max(lengths)
        stepper = Stepper(model, np.stack([r.features[:max_len] for r in records]),
                          np.stack([r.mask[:max_len] for r in records]))
        # the window path costs a pyramid per row: check a sample of positions at large batches
        checked = set(range(max_len)) if every_position else (
            set(rng.choice(max_len, size=min(max_len, 6), replace=False)) | {0, max_len - 1})
        for i in range(max_len):
            previous = [y[i - 1] if 0 < i <= len(y) else NOSEQ_CLASS for y in labels]
            got = stepper.push(np.array(previous))
            if i not in checked:
                continue
            feats, masks = zip(*(extract_window(r, i, rf.radius) for r in records))
            ctx = [context_window(y, i, rf.radius, rf.conditioning_shift, len(y))
                   for y in labels]
            np.testing.assert_array_equal(
                got, model.forward_window(np.stack(feats), np.stack(masks), np.stack(ctx)))

    def test_zero_records(self):
        model = build(small_config(conditioned=True), np.random.default_rng(1))
        n_in = model.layers["fc1"].weights.data.shape[0]
        assert model._score_rows(np.zeros((0, n_in), dtype=np.float32)).shape == (0, NUM_CLASSES)
        stepper = Stepper(model, np.zeros((0, 10, 42), dtype=np.float32),
                          np.zeros((0, 10), dtype=np.float32))
        assert stepper.push(np.zeros(0, dtype=np.int64)).shape == (0, NUM_CLASSES)

    def test_errors(self):
        plain = build(small_config(), np.random.default_rng(1))
        cond = build(small_config(conditioned=True), np.random.default_rng(1))
        feats = np.zeros((3, 10, 42), dtype=np.float32)
        mask = np.ones((3, 10), dtype=np.float32)
        with pytest.raises(ModeError):
            Stepper(plain, feats, mask)
        with pytest.raises(ShapeError):
            Stepper(cond, feats[..., :41], mask)
        with pytest.raises(ShapeError):
            Stepper(cond, feats, mask[:, :9])
        stepper = Stepper(cond, feats, mask)
        with pytest.raises(ShapeError):
            stepper.push(np.zeros(2, dtype=np.int64))
        with pytest.raises(ParameterError):
            stepper.push(np.array([0, 9, 1]))
        for _ in range(10):
            stepper.push(np.zeros(3, dtype=np.int64))
        with pytest.raises(ParameterError, match="all 10 positions"):
            stepper.push(np.zeros(3, dtype=np.int64))


class TestQueue:
    @pytest.mark.parametrize("size", (1, 2, 3, 5))
    def test_span_matches_a_list_of_pushes(self, size):
        """``span(k, n)`` equals the same run of a plain list of every pushed
        column, zeros before the first push, across three wraps of the ring."""
        rows, channels = 2, 3
        queue = _Queue(size, rows, channels)
        rng = np.random.default_rng(size)
        history = [np.zeros((rows, channels), dtype=np.float32)] * size
        for _ in range(3 * size + 1):
            for n in range(1, size + 1):
                for k in range(size - n + 1):
                    np.testing.assert_array_equal(
                        queue.span(k, n), np.stack(history[len(history) - k - n:][:n]))
            column = rng.standard_normal((rows, channels)).astype(np.float32)
            queue.push(column)
            history.append(column)


def per_tap_conv_columns(x, lp, crop, blocks):
    """``_conv_columns`` as a loop: per tap, output column and row block, one
    2-D [rows_block, in] @ [in, out] matmul added onto a copy of the bias,
    taps in order."""
    filt = lp.weights.data
    width = filt.shape[0]
    n, off = len(x) - 2 * crop, crop - width // 2
    acc = np.broadcast_to(lp.biases.data, (n, x.shape[1], filt.shape[2])).copy()
    for w in range(width):
        for t in range(n):
            for lo, hi in blocks:
                acc[t, lo:hi] += x[off + w + t, lo:hi] @ filt[w]
    return acc


class TestStepperMatchesPerTapOracle:
    """The conv kernel both scorers share issues the same sgemm calls as a
    per-tap loop and sums their products in the same order, so swapping the
    loop in changes no bit of ``Stepper`` or ``forward_window``. Unlike the
    comparisons with the full ``forward`` this holds on every BLAS core."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_configs(self, name, monkeypatch):
        model = conditioned_shipped(name)
        rf = model.receptive_field()
        plan = model._plan
        # one call per stage conv and skip projection, per Stepper column
        # pushed and per forward_window call
        per_pass = sum(len(s.convs) for b in plan.blocks for s in b.stages) + sum(
            1 for b in plan.blocks if b.skip)
        calls = [0]

        def counted(x, lp, crop, blocks):
            calls[0] += 1
            return per_tap_conv_columns(x, lp, crop, blocks)

        for rows in (1, 2, 8, 17, 130):
            rng = np.random.default_rng(rows)
            lengths = [int(n) for n in rng.integers(0, rf.radius + 6, size=rows)]
            records = [rule_corpus(n=1, length=n, seed=k)[0] for k, n in enumerate(lengths)]
            labels = [rng.integers(0, 8, size=n) for n in lengths]
            max_len = max(lengths)
            feats = np.stack([r.features[:max_len] for r in records])
            mask = np.stack([r.mask[:max_len] for r in records])
            previous = [np.array([y[i - 1] if 0 < i <= len(y) else NOSEQ_CLASS for y in labels])
                        for i in range(max_len)]
            windows = (rng.standard_normal((rows, rf.width, 42)).astype(np.float32),
                       (rng.random((rows, rf.width)) > 0.2).astype(np.float32),
                       rng.integers(0, NUM_CLASSES, (rows, rf.width)))

            def score():
                stepper = Stepper(model, feats, mask)
                return [stepper.push(p) for p in previous], model.forward_window(*windows)

            steps, window = score()
            with monkeypatch.context() as patch:
                patch.setattr(chaincnn.model, "_conv_columns", counted)
                calls[0] = 0
                oracle_steps, oracle_window = score()
                assert calls[0] == per_pass * (rf.radius + max_len + 1)
            np.testing.assert_array_equal(np.stack(steps), np.stack(oracle_steps))
            np.testing.assert_array_equal(window, oracle_window)

    def test_tap_sum_is_in_order(self):
        """numpy reduces a leading axis one slice at a time, in order, which
        is what keeps the kernel's [width + 1, n, rows, out] sum equal to the
        per-tap ``+=``."""
        rng = np.random.default_rng(0)
        for width in (1, 3, 5, 7, 9, 11):
            for n in (1, 4):
                for rows in (1, 2, 17, 130):
                    for out in (8, 64, 455):
                        shape = (width + 1, n, rows, out)
                        terms = (rng.standard_normal(shape)
                                 * 10.0 ** rng.uniform(-4, 4, shape)).astype(np.float32)
                        acc = terms[0].copy()
                        for term in terms[1:]:
                            acc += term
                        np.testing.assert_array_equal(terms.sum(axis=0), acc)
        # the guard can fail: the same terms summed in another order round apart
        assert not np.array_equal(terms[::-1].sum(axis=0), acc)


class TestInputStandardization:
    def test_model_reads_its_own_pssm_buffers(self):
        """Raw features through a model with non-trivial ``input_norm.*``
        buffers score bitwise as hand-standardized features through the same
        weights with 0/1 buffers, in ``forward``, ``forward_window`` and
        ``Stepper``."""
        config = small_config(conditioned=True)
        model = build(config, np.random.default_rng(5))
        twin = build(config, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        mean = rng.normal(5.0, 1.0, 21).astype(np.float32)
        std = rng.uniform(0.2, 3.0, 21).astype(np.float32)
        model.buffers["input_norm.pssm_mean"].data[...] = mean
        model.buffers["input_norm.pssm_std"].data[...] = std
        records = [rule_corpus(n=1, length=n, seed=n)[0] for n in (9, 14, 3)]
        raw = []
        for r in records:
            feats = r.features.copy()
            feats[:, 21:] = feats[:, 21:] * 3 + 5
            raw.append(dataclasses.replace(r, features=feats))
        hand = []
        for r in raw:
            feats = r.features.copy()
            feats[: r.length, 21:] = ((feats[: r.length, 21:] - mean.astype(np.float64))
                                      / std.astype(np.float64)).astype(np.float32)
            hand.append(dataclasses.replace(r, features=feats))
        length = 16
        batch, hand_batch = make_batch(raw, length), make_batch(hand, length)
        context = model.label_context(batch.labels)
        inside = batch.mask > 0
        np.testing.assert_array_equal(
            model.forward(batch.features, batch.mask, context).data[inside],
            twin.forward(hand_batch.features, batch.mask, context).data[inside])

        rf = model.receptive_field()
        stepper = Stepper(model, batch.features, batch.mask)
        hand_stepper = Stepper(twin, hand_batch.features, batch.mask)
        for i in range(length):
            previous = np.where(i > 0, batch.labels[:, i - 1], NOSEQ_CLASS)
            np.testing.assert_array_equal(stepper.push(previous), hand_stepper.push(previous))
            ctx = np.stack([context_window(r.labels, i, rf.radius, rf.conditioning_shift,
                                           r.length) for r in raw])
            windows = [extract_window(r, i, rf.radius) for r in raw]
            hand_windows = [extract_window(r, i, rf.radius) for r in hand]
            np.testing.assert_array_equal(
                model.forward_window(np.stack([f for f, _ in windows]),
                                     np.stack([m for _, m in windows]), ctx),
                twin.forward_window(np.stack([f for f, _ in hand_windows]),
                                    np.stack([m for _, m in hand_windows]), ctx))


_CONV = st.tuples(st.sampled_from((1, 3, 5, 7)), st.integers(1, 6))
_BLOCK = st.one_of(
    st.builds(BlockSpec, multi_scale=st.lists(_CONV, min_size=1, max_size=3).map(tuple)),
    st.builds(BlockSpec, single_scale=_CONV),
    st.builds(BlockSpec, multi_scale=st.lists(_CONV, min_size=1, max_size=3).map(tuple),
              single_scale=_CONV),
)


class TestUnshippedArchitectures:
    """Conditioned architectures no shipped config has: 1-3 blocks that are
    multi-scale only, single-scale only or both, with skip connections."""

    @given(blocks=st.lists(_BLOCK, min_size=1, max_size=3),
           fc_window=st.sampled_from((1, 3)),
           skip_depth=st.integers(1, 5),
           seed=st.integers(0, 2**31 - 1))
    @example(blocks=[BlockSpec(single_scale=(5, 3))] * 3, fc_window=3, skip_depth=2, seed=0)
    def test_plan_agrees_with_the_model(self, blocks, fc_window, skip_depth, seed):
        config = ModelConfig(fc_window=fc_window, fc_layers=1,
                             fc_width=8, blocks=tuple(blocks), skip_connections=True,
                             skip_projection_depth=skip_depth, conditioned=True)
        model = randomized_stats_model(config, seed % 1000)
        assert parameter_count(config) == trainable_size(model)
        rf = model.receptive_field()
        assert self._probed_width(config, seed) == rf.width

        # the Stepper against the window path, off the shapes where it is
        # bitwise: to 1e-5 of the largest log-prob magnitude, since this
        # init's log-probs reach the hundreds and round on that scale
        rng = np.random.default_rng(seed)
        lengths = [int(n) for n in rng.integers(0, rf.radius + 6, size=3)]
        records = [rule_corpus(n=1, length=n, seed=k)[0] for k, n in enumerate(lengths)]
        labels = [rng.integers(0, 8, size=n) for n in lengths]
        max_len = max(lengths)
        stepper = Stepper(model, np.stack([r.features[:max_len] for r in records]),
                          np.stack([r.mask[:max_len] for r in records]))
        for i in range(max_len):
            previous = [y[i - 1] if 0 < i <= len(y) else NOSEQ_CLASS for y in labels]
            want = step_scores([model], list(zip(records, labels)), i)
            np.testing.assert_allclose(stepper.push(np.array(previous))[:, :8], want, rtol=0,
                                       atol=1e-5 * max(1.0, np.abs(want).max()))

    @staticmethod
    def _probed_width(config, seed):
        """How many input positions move the logits at one center. All
        weights are made positive over positive inputs, so every ReLU passes
        and a perturbation reaches the center wherever a path exists."""
        model = build(config, np.random.default_rng(seed % 1000))
        for lp in model.layers.values():
            lp.weights.data = np.abs(lp.weights.data)
        reach = 48  # past the widest field these configs can have: 3 + 3 * 2 * 6 = 39
        length, center = 2 * reach + 1, reach
        rng = np.random.default_rng(seed)
        feats = rng.random((1, length, 42)).astype(np.float32)
        offsets = np.arange(-reach, reach + 1)
        probes = np.repeat(feats, len(offsets), axis=0)
        probes[np.arange(len(offsets)), center + offsets] += 100.0
        context = rng.integers(0, NUM_CLASSES, (1, length))
        mask = np.ones((1, length), dtype=np.float32)
        base = model.forward(feats, mask, context).data[0, center]
        out = model.forward(probes, np.repeat(mask, len(offsets), axis=0),
                            np.repeat(context, len(offsets), axis=0)).data[:, center]
        moved = offsets[(out != base).any(axis=1)]
        return int(moved.max() - moved.min() + 1)


class TestAblationTable:
    def test_row_structure_spot_checks(self):
        assert shipped_model("ablation_row1").blocks == ()
        assert shipped_model("ablation_row3").blocks == (BlockSpec(single_scale=(7, 32)),) * 2
        assert shipped_model("ablation_row5").fc_layers == 2
        assert shipped_model("ablation_row8").blocks[0].multi_scale == ((3, 64), (7, 64), (9, 64))
        assert len(shipped_model("ablation_row8").blocks) == 5
        row9 = shipped_model("ablation_row9")
        assert row9.skip_connections and len(row9.blocks) == 2
        assert row9.dropout_rate == 0.4 and row9.fc_max_norm == 0.150
