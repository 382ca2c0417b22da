"""Schedules, scheduled sampling, the training loop, and checkpoint format."""

import dataclasses
import os
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chaincnn.tensor as T
from chaincnn import metrics, training
from chaincnn.data import NOSEQ_CLASS, DatasetSplit, make_batch
from chaincnn.errors import CheckpointError, NonFiniteError, ParameterError
from chaincnn.inference import beam_search, decode_independent, step_scores
from chaincnn.model import BlockSpec, ModelConfig, build
from chaincnn.training import (
    Checkpoint,
    TrainConfig,
    bind_checkpoint,
    checkpoint_from_model,
    evaluate_q8,
    load_checkpoint,
    lr_at,
    sampling_rate_at,
    save_checkpoint,
    scheduled_sampling_pass,
    train,
)
from corpus import markov_corpus, rule_corpus, segment_corpus, shipped_model
from test_model import conditioned_shipped, randomized_stats_model, small_config

FC = TrainConfig(lr_init=4e-4, lr_decay_factor=0.5, lr_decay_every=35000,
                 max_iterations=1)
CONV = TrainConfig(lr_init=3.357e-4, lr_decay_factor=0.4, lr_decay_every=200000,
                   max_iterations=1)


def tiny_config(conditioned=False):
    return ModelConfig(
        fc_window=3,
        fc_layers=1,
        fc_width=16,
        blocks=(BlockSpec(multi_scale=((3, 8),)),),
        skip_connections=False,
        conditioned=conditioned,
        dropout_rate=0.1,
        fc_max_norm=10.0,
    )


def tiny_train_config(**overrides):
    base = dict(lr_init=0.01, lr_decay_factor=0.5, lr_decay_every=10**6,
                max_iterations=300, batch_size=8, eval_every=50, patience=50,
                seed=5, log_every=1000)
    base.update(overrides)
    return TrainConfig(**base)


def split_of(records, validation=None):
    return DatasetSplit(train=records, validation=validation or records,
                        test=[], seed=0)


def batch_of(records):
    """The batch ``train`` builds from ``records``: cropped to the longest."""
    return make_batch(records, length=max(r.length for r in records))


def window_sampling_pass(model, records, rate, rng):
    """Reference scheduled sampling: at each position, score the records
    still running through ``step_scores``, one receptive-field window per
    record, then draw and mix exactly as ``scheduled_sampling_pass`` does.
    Returns one mixed label sequence per record."""
    contexts = [r.labels[: r.length].copy() for r in records]
    for i in range(max((r.length for r in records), default=0)):
        rows = [k for k, r in enumerate(records) if i < r.length]
        s8 = step_scores((model,), [(records[k], contexts[k]) for k in rows], i)
        probs = np.exp(s8 - s8.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        draws = (rng.random(len(rows))[:, None] > cdf).sum(axis=1)
        mix = rng.random(len(rows)) < rate
        for j, k in enumerate(rows):
            if mix[j]:
                contexts[k][i] = draws[j]
    return contexts


class TestSchedules:
    def test_fc_examples(self):
        assert lr_at(0, FC) == 0.0004
        assert lr_at(34999, FC) == 0.0004
        assert lr_at(35000, FC) == 0.0002

    def test_conv_examples(self):
        assert lr_at(0, CONV) == 3.357e-4
        assert lr_at(200000, CONV) == pytest.approx(1.3428e-4, rel=1e-12)
        assert lr_at(399999, CONV) == 3.357e-4 * 0.4
        assert lr_at(400000, CONV) == 3.357e-4 * 0.4**2

    @given(st.integers(0, 10**7))
    def test_lr_closed_form(self, step):
        assert lr_at(step, CONV) == 3.357e-4 * 0.4 ** (step // 200000)

    def test_sampling_examples(self):
        cfg = tiny_train_config()
        assert sampling_rate_at(0, cfg) == 0.4
        assert sampling_rate_at(749999, cfg) == 0.4
        assert sampling_rate_at(750000, cfg) == 0.5
        assert sampling_rate_at(10**7, cfg) == 1.0

    @given(st.integers(0, 10**8))
    def test_sampling_closed_form(self, step):
        cfg = tiny_train_config()
        assert sampling_rate_at(step, cfg) == min(1.0, 0.4 + 0.1 * (step // 750000))

    def test_negative_step_rejected(self):
        with pytest.raises(ParameterError):
            lr_at(-1, FC)
        with pytest.raises(ParameterError):
            sampling_rate_at(-1, FC)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            tiny_train_config(lr_decay_factor=1.0).validate()
        with pytest.raises(ParameterError):
            tiny_train_config(lr_init=0.0).validate()
        with pytest.raises(ParameterError):
            tiny_train_config(patience=-1).validate()
        with pytest.raises(ParameterError):
            tiny_train_config(sampling_rate_init=1.5).validate()
        with pytest.raises(ParameterError):
            tiny_train_config(target_q8=0.0).validate()
        tiny_train_config().validate()


class TestScheduledSampling:
    def test_rate_zero_returns_ground_truth_without_the_model(self):
        recs = rule_corpus(n=3, length=12, seed=0)
        mixed = scheduled_sampling_pass(None, batch_of(recs), 0.0, np.random.default_rng(0))
        assert mixed.shape == (3, 12)
        for row, r in zip(mixed, recs):
            np.testing.assert_array_equal(row, r.labels[:12])

    def _uniform_model(self):
        model = build(tiny_config(conditioned=True), np.random.default_rng(0))
        for t in model.trainable().values():
            t.data[...] = 0.0
        return model

    @staticmethod
    def _mismatch(mixed, recs):
        return np.concatenate(
            [row[: r.length] != r.labels[: r.length] for row, r in zip(mixed, recs)]
        )

    def test_rate_one_mixes_everywhere(self):
        model = self._uniform_model()
        recs = markov_corpus(n=20, length=100, seed=1)
        mixed = scheduled_sampling_pass(model, batch_of(recs), 1.0, np.random.default_rng(2))
        mismatch = self._mismatch(mixed, recs)
        # uniform samples disagree with truth 7/8 of the time
        n = mismatch.size
        sigma = np.sqrt(0.875 * 0.125 / n)
        assert abs(mismatch.mean() - 0.875) < 3 * sigma

    def test_intermediate_rate_statistics(self):
        model = self._uniform_model()
        recs = markov_corpus(n=20, length=100, seed=3)
        mixed = scheduled_sampling_pass(model, batch_of(recs), 0.4, np.random.default_rng(4))
        mismatch = self._mismatch(mixed, recs)
        want = 0.4 * 0.875
        sigma = np.sqrt(want * (1 - want) / mismatch.size)
        assert abs(mismatch.mean() - want) < 3 * sigma

    def test_deterministic_under_seed(self):
        model = self._uniform_model()
        batch = batch_of(markov_corpus(n=4, length=20, seed=5))
        a = scheduled_sampling_pass(model, batch, 0.7, np.random.default_rng(9))
        b = scheduled_sampling_pass(model, batch, 0.7, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_context_lengths_follow_records(self):
        model = self._uniform_model()
        recs = [markov_corpus(n=1, length=n, seed=n)[0] for n in (5, 17, 30)]
        mixed = scheduled_sampling_pass(model, batch_of(recs), 1.0, np.random.default_rng(0))
        assert mixed.shape == (3, 30)
        assert [int((row != NOSEQ_CLASS).sum()) for row in mixed] == [5, 17, 30]
        for row, r in zip(mixed, recs):
            assert 0 <= row[: r.length].min() and row[: r.length].max() < 8
            assert (row[r.length :] == NOSEQ_CLASS).all()

    @pytest.mark.parametrize("rate", (0.0, 1.0))
    def test_padding_comes_back_no_seq(self, rate):
        """Stored labels past a record's length neither leak into the mixed
        labels nor change a draw."""
        model = self._uniform_model()
        clean = [markov_corpus(n=1, length=n, seed=n)[0] for n in (9, 4, 12)]
        dirty = []
        for r in clean:
            labels = r.labels.copy()
            labels[r.length :] = 3
            dirty.append(dataclasses.replace(r, labels=labels))
        got = scheduled_sampling_pass(model, batch_of(dirty), rate, np.random.default_rng(6))
        want = scheduled_sampling_pass(model, batch_of(clean), rate, np.random.default_rng(6))
        np.testing.assert_array_equal(got, want)
        for row, r in zip(got, dirty):
            assert (row[r.length :] == NOSEQ_CLASS).all()

    def test_unlabelled_batch_rejected(self):
        recs = [dataclasses.replace(r, labels=None) for r in rule_corpus(n=2, length=5, seed=0)]
        batch = batch_of(recs)
        assert batch.labels is None
        with pytest.raises(ParameterError):
            scheduled_sampling_pass(self._uniform_model(), batch, 0.5, np.random.default_rng(0))

    def test_bad_rate_rejected(self):
        batch = batch_of(rule_corpus(n=1, length=5, seed=0))
        with pytest.raises(ParameterError):
            scheduled_sampling_pass(None, batch, -0.1, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            scheduled_sampling_pass(None, batch, 1.1, np.random.default_rng(0))

    @pytest.mark.parametrize("rate", (0.3, 0.7, 1.0))
    @pytest.mark.parametrize("name", ("chained", "ablation_row6"))
    def test_matches_window_path_reference(self, name, rate):
        model = conditioned_shipped(name)
        recs = [rule_corpus(n=1, length=n, seed=n)[0] for n in (17, 0, 3, 40, 29)]
        rng_got, rng_want = np.random.default_rng(31), np.random.default_rng(31)
        got = scheduled_sampling_pass(model, batch_of(recs), rate, rng_got)
        want = window_sampling_pass(model, recs, rate, rng_want)
        for row, w in zip(got, want):
            np.testing.assert_array_equal(row[: len(w)], w)
        assert rng_got.random() == rng_want.random()


def padded_batch_predictions(model, records, batch_size):
    """Padded-batch reference for ``evaluate_q8``: chunks of ``batch_size``
    records padded to their longest record, one forward per chunk
    (teacher-forced for a conditioned model), then the argmax over the 8
    structure classes. Returns each record's predictions over its length."""
    preds = []
    for start in range(0, len(records), batch_size):
        chunk = records[start : start + batch_size]
        length = max(r.length for r in chunk)
        if length == 0:
            preds += [np.zeros(0, dtype=np.int64) for _ in chunk]
            continue
        batch = make_batch(chunk, length=length)
        context = model.label_context(batch.labels) if model.config.conditioned else None
        logits = model.forward(batch.features, batch.mask, context).data
        pred = logits[..., :8].argmax(axis=2)
        preds += [p[: r.length] for p, r in zip(pred, chunk)]
    return preds


def mixed_length_corpus(n=24, seed=0):
    lengths = np.random.default_rng(seed).integers(3, 41, size=n)
    return [rule_corpus(n=1, length=int(length), seed=seed + i)[0]
            for i, length in enumerate(lengths)]


def training_step(model, records, seed):
    """The loss of one ``train`` step on ``records`` as one padded batch, at
    sampling rate 0.4 for a conditioned model; the graph is not walked."""
    rng = np.random.default_rng(seed)
    batch = batch_of(records)
    context = None
    if model.config.conditioned:
        context = model.label_context(scheduled_sampling_pass(model, batch, 0.4, rng))
    logits = model.forward(batch.features, batch.mask, context, train=True, rng=rng)
    return T.softmax_cross_entropy(logits, batch.labels, batch.mask)


def topological_order(root):
    """Every node of ``root``'s graph, each after all of its parents."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def keep_everything_backward(root):
    """Reference walk: ``Tensor.backward`` before it freed the graph. Every
    node keeps its gradient, closure and parents until the caller drops the
    graph; the gradients it leaves on the leaves are the oracle."""
    order = topological_order(root)
    T._accum(root, np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestBackwardFreesTheGraph:
    """A training step's ``loss.backward()`` frees every activation and
    intermediate gradient while it walks, and leaves the parameters the same
    gradients the keep-everything walk does."""

    def test_interior_tensors_die_during_the_walk(self):
        model = build(shipped_model("chained"), np.random.default_rng(0))
        records = mixed_length_corpus(n=3, seed=4)
        assert model.config.conditioned and len({r.length for r in records}) > 1
        loss = training_step(model, records, seed=1)
        interior = [n for n in topological_order(loss) if n._parents and n is not loss]
        assert len(interior) > 30
        # an op's graph node holds its closure, and the closure the arrays
        # its backward reads: what the graph keeps alive. Parameter arrays
        # live on with the model, so only the others are tracked.
        closures = [n._backward for n in interior] + [loss._backward]
        params = {id(t.data) for t in model.named_tensors().values()}
        saved = [cell.cell_contents for f in closures for cell in f.__closure__
                 if isinstance(cell.cell_contents, np.ndarray)
                 and id(cell.cell_contents) not in params]
        assert len(saved) > 30
        refs = [weakref.ref(a) for a in saved] + [weakref.ref(f) for f in closures]
        del interior, closures, saved
        loss.backward()
        assert sum(r() is not None for r in refs) == 0
        assert loss.grad is None and loss._parents is None
        assert all(t.grad is not None for t in model.trainable().values())

    def test_a_train_forward_frees_what_no_backward_reads(self, monkeypatch):
        """Before ``loss.backward()``, a train-mode ``chained`` forward holds
        no batch-norm, ReLU, dropout or concat output that no backward
        reads: each is freed once the next op consumed it. The only ones
        left are dense layers' inputs, which their weight gradients read."""
        made, dense_inputs = [], []

        def tracked(op):
            def wrapper(*args, **kwargs):
                out = op(*args, **kwargs)
                made.append((op.__name__, weakref.ref(out.data)))
                return out
            return wrapper

        def dense(x, weights, bias, op=T.dense):
            dense_inputs.append(weakref.ref(x.data))
            return op(x, weights, bias)

        for name in ("batch_norm", "relu", "dropout", "concat_channels"):
            monkeypatch.setattr(T, name, tracked(getattr(T, name)))
        monkeypatch.setattr(T, "dense", dense)
        model = build(shipped_model("chained"), np.random.default_rng(0))
        loss = training_step(model, mixed_length_corpus(n=3, seed=4), seed=1)
        assert {name for name, _ in made} == {"batch_norm", "relu", "dropout",
                                              "concat_channels"}
        read = [r() for r in dense_inputs]
        alive = [(name, r()) for name, r in made if r() is not None]
        assert all(any(a is x for x in read) for _, a in alive), [n for n, _ in alive]
        assert len(alive) < len(made) // 4
        loss.backward()

    @pytest.mark.parametrize("name", ["chained", "ablation_row9", "ablation_row1"])
    def test_gradients_match_the_keep_everything_walk(self, name):
        records = mixed_length_corpus(n=3, seed=5)
        grads = []
        for walk in (keep_everything_backward, T.Tensor.backward):
            model = build(shipped_model(name), np.random.default_rng(2))
            walk(training_step(model, records, seed=3))
            grads.append({k: t.grad for k, t in model.trainable().items()})
        assert grads[0].keys() == grads[1].keys()
        for k in grads[0]:
            assert grads[0][k] is not None
            np.testing.assert_array_equal(grads[1][k], grads[0][k], err_msg=k)


class TestEvaluateQ8:
    def test_matches_independent_decoding(self):
        model = build(tiny_config(), np.random.default_rng(1))
        recs = rule_corpus(n=5, length=20, seed=2)
        preds = [decode_independent(model, r) for r in recs]
        manual = sum(
            int((p == r.labels[: r.length]).sum()) for p, r in zip(preds, recs)
        ) / sum(r.length for r in recs)
        assert evaluate_q8(model, recs) == manual

    @pytest.mark.parametrize("conditioned", (False, True), ids=("plain", "conditioned"))
    def test_matches_padded_batch_reference(self, conditioned, monkeypatch):
        config = dataclasses.replace(shipped_model("ablation_row9"), conditioned=conditioned)
        model = randomized_stats_model(config, 21)
        recs = mixed_length_corpus()
        seen = []

        def spy(preds, records):
            seen.append(preds)
            return metrics.q8(preds, records)

        monkeypatch.setattr(training, "metrics_q8", spy)
        got = evaluate_q8(model, recs)
        (preds,) = seen
        for batch_size in (2, 50):
            want = padded_batch_predictions(model, recs, batch_size)
            for p, w in zip(preds, want, strict=True):
                np.testing.assert_array_equal(p, w)
        assert got == metrics.q8(want, recs)

    @pytest.mark.parametrize("conditioned", (False, True), ids=("plain", "conditioned"))
    def test_zero_length_record_changes_nothing(self, conditioned):
        model = build(tiny_config(conditioned), np.random.default_rng(4))
        recs = rule_corpus(n=3, length=12, seed=8)
        empty = rule_corpus(n=1, length=0, seed=9)
        assert evaluate_q8(model, recs[:1] + empty + recs[1:]) == evaluate_q8(model, recs)

    def test_empty_records_rejected(self):
        model = build(tiny_config(), np.random.default_rng(1))
        with pytest.raises(ParameterError):
            evaluate_q8(model, [])


def joined_checkpoint_bytes(ckpt):
    """The checkpoint bytes as ``save_checkpoint`` built them before it
    streamed: every chunk joined into one bytes object. The oracle for the
    streamed file."""
    chunks = [training.CHECKPOINT_MAGIC,
              struct.pack("<II", training.CHECKPOINT_VERSION, len(ckpt.tensors))]
    for name in sorted(ckpt.tensors):
        arr = np.asarray(ckpt.tensors[name])
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", 0, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype("<f4", copy=False).tobytes())
    chunks.append(struct.pack("<Qd", ckpt.iteration, ckpt.best_validation_q8))
    return b"".join(chunks)


class TestCheckpointFormat:
    def _model_and_adam(self, seed=3):
        model = build(tiny_config(), np.random.default_rng(seed))
        adam = T.AdamState.for_params(model.trainable())
        for buf in adam.first_moment.values():
            buf += 0.25
        for buf in adam.second_moment.values():
            buf += 0.5
        return model, adam

    def test_round_trip_bit_exact(self, tmp_path):
        model, adam = self._model_and_adam()
        ckpt = checkpoint_from_model(model, adam, iteration=42, best_validation_q8=0.625)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.iteration == 42 and loaded.best_validation_q8 == 0.625
        assert set(loaded.tensors) == set(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            np.testing.assert_array_equal(arr, loaded.tensors[name])
            assert loaded.tensors[name].dtype == np.float32

    def test_bind_restores_forward_outputs(self, tmp_path):
        model, adam = self._model_and_adam()
        recs = rule_corpus(n=2, length=10, seed=4)
        want = evaluate_q8(model, recs)
        ckpt = checkpoint_from_model(model, adam, 7, 0.5)
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        fresh = build(tiny_config(), np.random.default_rng(99))
        fresh_adam = T.AdamState.for_params(fresh.trainable())
        bind_checkpoint(load_checkpoint(tmp_path / "m.ckpt"), fresh, fresh_adam)
        assert evaluate_q8(fresh, recs) == want
        assert fresh_adam.step == 7
        for name, buf in adam.first_moment.items():
            np.testing.assert_array_equal(buf, fresh_adam.first_moment[name])

    def test_wrong_architecture_rejected(self, tmp_path):
        model, adam = self._model_and_adam()
        ckpt = checkpoint_from_model(model, adam)
        other = build(small_config(), np.random.default_rng(0))
        with pytest.raises(CheckpointError):
            bind_checkpoint(ckpt, other)

    def test_shape_mismatch_rejected(self):
        model, adam = self._model_and_adam()
        ckpt = checkpoint_from_model(model, adam)
        name = next(iter(model.trainable()))
        ckpt.tensors[name] = np.zeros(3, dtype=np.float32)
        with pytest.raises(CheckpointError):
            bind_checkpoint(ckpt, model)

    @pytest.mark.parametrize("name, value", [
        ("input_norm.pssm_std", 0.0), ("input_norm.pssm_std", -1.0),
        ("input_norm.pssm_std", np.inf), ("input_norm.pssm_std", np.nan),
        ("input_norm.pssm_mean", np.inf), ("input_norm.pssm_mean", np.nan),
    ])
    def test_unusable_pssm_stats_rejected(self, name, value):
        model, adam = self._model_and_adam()
        ckpt = checkpoint_from_model(model, adam)
        ckpt.tensors[name][4] = value
        with pytest.raises(CheckpointError, match=name):
            bind_checkpoint(ckpt, model)

    @pytest.mark.parametrize("name", (
        "block1.multi0.weights", "block1.multi_norm.running_var", "output.biases"))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_tensor_rejected(self, name, value):
        model, adam = self._model_and_adam()
        ckpt = checkpoint_from_model(model, adam)
        ckpt.tensors[name].flat[1] = value
        with pytest.raises(CheckpointError, match=f"tensor '{name}' has a non-finite entry"):
            bind_checkpoint(ckpt, model)

    @pytest.mark.parametrize("prefix", ("adam.m.", "adam.v."))
    def test_moments_are_checked_like_weights(self, prefix):
        """A moment of the wrong shape, one that would broadcast included, a
        non-finite moment and a missing one are rejected as a weight is."""
        model, adam = self._model_and_adam()
        name = prefix + "block1.multi0.weights"
        store = adam.first_moment if prefix == "adam.m." else adam.second_moment
        for bad, fragment in ((np.ones(1, dtype=np.float32), "has shape"),
                              (np.ones((2, 2), dtype=np.float32), "has shape"),
                              (np.full_like(store["block1.multi0.weights"], np.nan),
                               "has a non-finite entry")):
            ckpt = checkpoint_from_model(model, adam)
            ckpt.tensors[name] = bad
            fresh = T.AdamState.for_params(model.trainable())
            with pytest.raises(CheckpointError, match=f"tensor '{name}' {fragment}"):
                bind_checkpoint(ckpt, model, fresh)
        ckpt = checkpoint_from_model(model, adam)
        del ckpt.tensors[name]
        with pytest.raises(CheckpointError, match=f"missing \\['{name}'\\]"):
            bind_checkpoint(ckpt, model, T.AdamState.for_params(model.trainable()))
        bind_checkpoint(ckpt, model)  # a model alone binds without its moments

    def test_scalar_and_empty_checkpoints(self, tmp_path):
        ckpt = Checkpoint({"s": np.array(2.5, dtype=np.float32)}, 1, 0.0)
        save_checkpoint(ckpt, tmp_path / "s.ckpt")
        loaded = load_checkpoint(tmp_path / "s.ckpt")
        assert loaded.tensors["s"].shape == () and loaded.tensors["s"] == 2.5
        save_checkpoint(Checkpoint({}, 0, 0.0), tmp_path / "e.ckpt")
        assert load_checkpoint(tmp_path / "e.ckpt").tensors == {}

    def test_streamed_file_equals_the_joined_bytes(self, tmp_path):
        """The file ``save_checkpoint`` streams holds the bytes it wrote
        when it joined every chunk first, for 0-d, empty and non-contiguous
        tensors beside a model's tensors and Adam moments."""
        model, adam = self._model_and_adam()
        ckpt = checkpoint_from_model(model, adam, iteration=7, best_validation_q8=0.5)
        base = np.arange(24, dtype=np.float32).reshape(4, 6)
        odd = {"zz.scalar": np.array(2.5, dtype=np.float32),
               "zz.empty": np.zeros((0, 3), dtype=np.float32),
               "zz.strided": base[:, ::2], "zz.transposed": base.T,
               "zz.fortran": np.asfortranarray(base)}
        assert not any(a.flags.c_contiguous for a in (base[:, ::2], base.T))
        ckpt.tensors.update(odd)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == joined_checkpoint_bytes(ckpt)
        loaded = load_checkpoint(path)
        for name, arr in odd.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr)

    def test_a_write_failing_mid_stream_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint({"a": np.ones(3, dtype=np.float32)}, 1, 0.5), path)
        before = path.read_bytes()
        # "a" streams into the temporary before "b" fails the dtype check
        bad = Checkpoint({"a": np.ones(3, dtype=np.float32),
                          "b": np.ones(2, dtype=np.float64)}, 2, 0.75)
        with pytest.raises(CheckpointError, match="'b'"):
            save_checkpoint(bad, path)
        # a chunk the file cannot take
        with pytest.raises(TypeError):
            training.write_atomic(path, [b"head", "not bytes"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_non_float32_rejected(self, tmp_path):
        ckpt = Checkpoint({"x": np.zeros(2, dtype=np.float64)}, 0, 0.0)
        with pytest.raises(CheckpointError):
            save_checkpoint(ckpt, tmp_path / "x.ckpt")

    def test_failed_replace_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model, adam = self._model_and_adam()
        path = tmp_path / "m.ckpt"
        save_checkpoint(checkpoint_from_model(model, adam, 1, 0.5), path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated"):
            save_checkpoint(checkpoint_from_model(model, adam, 2, 0.75), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).iteration == 1
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    @pytest.fixture()
    def valid_bytes(self, tmp_path):
        ckpt = Checkpoint({"w": np.arange(4, dtype=np.float32)}, 3, 0.75)
        path = tmp_path / "v.ckpt"
        save_checkpoint(ckpt, path)
        return path.read_bytes()

    def _expect_error(self, tmp_path, payload, fragment):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(payload)
        with pytest.raises(CheckpointError, match=fragment):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path, valid_bytes):
        self._expect_error(tmp_path, b"XXXX" + valid_bytes[4:], "magic")

    def test_writer_stamps_the_format_version(self, valid_bytes):
        assert "version" not in {f.name for f in dataclasses.fields(Checkpoint)}
        assert struct.unpack("<I", valid_bytes[4:8]) == (training.CHECKPOINT_VERSION,)

    def test_unsupported_version(self, tmp_path, valid_bytes):
        payload = valid_bytes[:4] + struct.pack("<I", 9) + valid_bytes[8:]
        self._expect_error(tmp_path, payload, "version")

    def test_truncation(self, tmp_path, valid_bytes):
        self._expect_error(tmp_path, valid_bytes[:-5], "truncated")
        self._expect_error(tmp_path, valid_bytes[:13], "truncated")

    def test_trailing_bytes(self, tmp_path, valid_bytes):
        self._expect_error(tmp_path, valid_bytes + b"\x00", "trailing")

    def test_unknown_dtype_code(self, tmp_path, valid_bytes):
        # dtype byte sits after magic, header, name length, and the name "w"
        idx = 4 + 8 + 2 + 1
        payload = valid_bytes[:idx] + b"\x07" + valid_bytes[idx + 1:]
        self._expect_error(tmp_path, payload, "dtype")

    def test_duplicate_names(self, tmp_path, valid_bytes):
        record = valid_bytes[12:-16]  # the single "w" tensor record
        payload = (valid_bytes[:4] + struct.pack("<II", 1, 2)
                   + record + record + valid_bytes[-16:])
        self._expect_error(tmp_path, payload, "duplicate")


class TestTrainLoop:
    def test_overfits_the_rule_corpus(self):
        corpus = rule_corpus(n=8, length=30, seed=0)
        model = build(tiny_config(), np.random.default_rng(7))
        losses = []
        ckpt = train(model, split_of(corpus),
                     tiny_train_config(log_every=1, target_q8=0.995),
                     log=lambda line: losses.append(line))
        assert ckpt.best_validation_q8 >= 0.99
        first = [float(l.split("loss=")[1].split()[0]) for l in losses[:50] if "loss=" in l]
        last = [float(l.split("loss=")[1].split()[0]) for l in losses if "loss=" in l][-50:]
        assert np.median(last) < np.median(first)

    def test_determinism_byte_identical_checkpoints(self, tmp_path):
        corpus = rule_corpus(n=8, length=20, seed=1)
        paths = []
        for run in ("a", "b"):
            model = build(tiny_config(), np.random.default_rng(11))
            ckpt = train(model, split_of(corpus),
                         tiny_train_config(max_iterations=60, eval_every=20))
            path = tmp_path / f"{run}.ckpt"
            save_checkpoint(ckpt, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_patience_zero_stops_at_first_stall(self):
        corpus = rule_corpus(n=4, length=10, seed=2)
        model = build(tiny_config(), np.random.default_rng(3))
        evals = []
        train(model, split_of(corpus),
              tiny_train_config(lr_init=1e-12, max_iterations=1000, eval_every=10,
                                patience=0, log_every=10**6),
              log=lambda line: evals.append(line) if "val_q8" in line else None)
        assert len(evals) == 2  # first improves over -inf, second stalls

    def test_max_norm_holds_after_training(self):
        corpus = rule_corpus(n=4, length=10, seed=3)
        cfg = ModelConfig(fc_window=5, fc_layers=2,
                          fc_width=16, dropout_rate=0.2, fc_max_norm=0.04614)
        model = build(cfg, np.random.default_rng(4))
        train(model, split_of(corpus), tiny_train_config(max_iterations=40, eval_every=40))
        for lp in model.dense_layers():
            norms = np.linalg.norm(lp.weights.data.astype(np.float64), axis=0)
            assert (norms <= 0.04614 + 1e-6).all()

    def test_non_finite_loss_names_step_and_batch(self):
        corpus = rule_corpus(n=4, length=10, seed=4)
        model = build(tiny_config(), np.random.default_rng(5))
        next(iter(model.trainable().values())).data[...] = np.nan
        with pytest.raises(NonFiniteError, match=r"step 0.*rule"):
            train(model, split_of(corpus), tiny_train_config())

    def test_empty_splits_rejected(self):
        corpus = rule_corpus(n=2, length=10, seed=5)
        model = build(tiny_config(), np.random.default_rng(6))
        with pytest.raises(ParameterError):
            train(model, DatasetSplit([], corpus, [], 0), tiny_train_config())
        with pytest.raises(ParameterError):
            train(model, DatasetSplit(corpus, [], [], 0), tiny_train_config())

    def test_model_ends_holding_checkpoint_weights(self):
        corpus = rule_corpus(n=4, length=12, seed=6)
        model = build(tiny_config(), np.random.default_rng(8))
        ckpt = train(model, split_of(corpus),
                     tiny_train_config(max_iterations=55, eval_every=25))
        for name, tensor in model.named_tensors().items():
            np.testing.assert_array_equal(tensor.data, ckpt.tensors[name])

    def test_conditioning_learns_a_markov_rule(self):
        corpus = markov_corpus(n=16, length=30, seed=7)
        data = split_of(corpus)
        # teacher-forced (rate 0) so the conditioned model sees true history
        cfg = tiny_train_config(max_iterations=400, eval_every=100,
                                sampling_rate_init=0.0, sampling_rate_increment=0.0)
        plain = build(tiny_config(), np.random.default_rng(9))
        train(plain, data, cfg)
        chained = build(tiny_config(conditioned=True), np.random.default_rng(9))
        train(chained, data, cfg)
        plain_q8 = evaluate_q8(plain, corpus)
        chained_q8 = evaluate_q8(chained, corpus)
        assert chained_q8 > plain_q8 + 0.15
        assert chained_q8 > 0.5


class TestPlantedLongRangeGate:
    """The paper's claim on a corpus built so that it must hold: on
    ``segment_corpus`` a segment's label shows in the features only near its
    marker, beyond a 5-wide receptive field for most positions, so only the
    label history can carry it. Conditioning with width-8 beam search must
    then beat independent argmax on held-out Q8 by more than 3 standard
    errors. It checks decoded labels, not bits, so it holds on every BLAS
    core, and it breaks if beam search, scheduled sampling or the Stepper
    stop carrying labels forward."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conditioned_beam_beats_argmax(self, seed):
        records = segment_corpus(104, seed=seed)
        data = DatasetSplit(train=records[:64], validation=records[64:72], test=[], seed=0)
        held_out = records[72:]
        preds = {}
        for conditioned in (False, True):
            # the tiny config widened to one 3x16 block and a 32-wide fc layer
            config = dataclasses.replace(tiny_config(conditioned), fc_width=32,
                                         blocks=(BlockSpec(multi_scale=((3, 16),)),))
            model = build(config, np.random.default_rng(seed))
            train(model, data, tiny_train_config(seed=seed, sampling_rate_init=0.4))
            decode = ((lambda r: beam_search(model, r, 8)) if conditioned
                      else (lambda r: decode_independent(model, r)))
            preds[conditioned] = [decode(r) for r in held_out]

        def gain(indices):
            subset = [held_out[i] for i in indices]
            return (metrics.q8([preds[True][i] for i in indices], subset)
                    - metrics.q8([preds[False][i] for i in indices], subset))

        # the spread of half-size subsets drawn without replacement is the
        # standard error of the full held-out gain (finite-population
        # correction 1 - 16/32 on a mean over 16)
        everything = range(len(held_out))
        _, stderr = metrics.bootstrap_stderr(list(everything), len(held_out) // 2, 200, gain,
                                             np.random.default_rng(seed))
        assert gain(everything) > 3 * stderr, (gain(everything), stderr)
