"""Decoding: window locality, ensembles, beam-search exactness, and the parallel record map."""

import dataclasses
import itertools
import os
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import chaincnn.inference as inference
import chaincnn.tensor
from chaincnn.cli import load_run_config, main, render_config
from chaincnn.data import NOSEQ_CLASS, make_batch, save_native
from chaincnn.errors import ModeError, NonFiniteError, ParameterError
from chaincnn.inference import (
    Ensemble,
    beam_search,
    context_window,
    decode_independent,
    decode_records,
    ensemble_step_score,
    extract_window,
    sequence_log_prob,
    step_scores,
)
from chaincnn.model import Model, build
from chaincnn.tensor import log_softmax
from chaincnn.training import (
    beam_q8,
    bind_checkpoint,
    checkpoint_from_model,
    evaluate_q8,
    load_checkpoint,
    save_checkpoint,
    scheduled_sampling_pass,
)
from corpus import rule_corpus
from test_model import conditioned_shipped, randomized_stats_model, small_config, window_oracle
from test_training import batch_of, window_sampling_pass


def brute_force_decode(members, record):
    """Exhaustive argmax over all 8^L sequences, accumulated left to right.

    Scores every candidate by summing per-step window scores in the same
    order beam search does; ties break toward the smaller label sequence.
    """
    length = record.length
    rf = members[0].receptive_field()
    totals = {(): 0.0}
    for i in range(length):
        feats, mask = extract_window(record, i, rf.radius)
        prefixes = sorted(totals)
        ctx = np.stack([
            context_window(np.array(p, dtype=np.int64), i, rf.radius,
                           rf.conditioning_shift, length)
            for p in prefixes
        ])
        feats_b = np.broadcast_to(feats, (len(prefixes),) + feats.shape)
        mask_b = np.broadcast_to(mask, (len(prefixes),) + mask.shape)
        scores = ensemble_step_score(members, feats_b, mask_b, ctx)
        totals = {
            p + (c,): totals[p] + float(scores[k, c])
            for k, p in enumerate(prefixes)
            for c in range(8)
        }
    best = min(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return np.array(best[0], dtype=np.int64), best[1]


def greedy_decode(members, record):
    length = record.length
    rf = members[0].receptive_field()
    labels = []
    for i in range(length):
        feats, mask = extract_window(record, i, rf.radius)
        ctx = context_window(np.array(labels, dtype=np.int64), i, rf.radius,
                             rf.conditioning_shift, length)
        scores = ensemble_step_score(members, feats[None], mask[None], ctx[None])[0]
        labels.append(int(np.argmax(scores)))
    return np.array(labels, dtype=np.int64)


@pytest.fixture(scope="module")
def cond_model():
    return build(small_config(conditioned=True), np.random.default_rng(21))


@pytest.fixture(scope="module")
def plain_model():
    return build(small_config(), np.random.default_rng(22))


class TestWindows:
    def test_interior_window_is_a_slice(self):
        rec = rule_corpus(n=1, length=30, seed=0)[0]
        feats, mask = extract_window(rec, 15, 4)
        np.testing.assert_array_equal(feats, rec.features[11:20])
        assert mask.all()

    def test_left_edge_zero_padded(self):
        rec = rule_corpus(n=1, length=30, seed=0)[0]
        feats, mask = extract_window(rec, 1, 3)
        assert not feats[:2].any() and not mask[:2].any()
        np.testing.assert_array_equal(feats[2:], rec.features[0:5])

    def test_right_edge_masked_out(self):
        rec = rule_corpus(n=1, length=10, seed=0)[0]
        feats, mask = extract_window(rec, 9, 3)
        np.testing.assert_array_equal(mask, [1, 1, 1, 1, 0, 0, 0])

    def test_context_window_shift_arithmetic(self):
        ctx = np.arange(10, dtype=np.int64)
        win = context_window(ctx, 4, 2, 3, 10)
        # window positions 2..6 read ctx[-1..3]
        np.testing.assert_array_equal(win, [NOSEQ_CLASS, 0, 1, 2, 3])

    def test_context_window_respects_length(self):
        ctx = np.arange(10, dtype=np.int64)
        win = context_window(ctx, 11, 1, 3, 10)
        np.testing.assert_array_equal(win, [7, 8, 9])
        win = context_window(ctx, 13, 1, 3, 10)
        np.testing.assert_array_equal(win, [9, NOSEQ_CLASS, NOSEQ_CLASS])


class TestEnsembleStepScore:
    def _fake(self, probs, conditioned=False):
        table = np.log(np.asarray(probs, dtype=np.float64))

        def forward_window(features, mask, context=None):
            if features is not None and features.ndim == 3:
                return np.broadcast_to(table, (features.shape[0],) + table.shape).copy()
            return table.copy()

        return SimpleNamespace(
            config=SimpleNamespace(conditioned=conditioned),
            forward_window=forward_window,
        )

    def test_single_member_is_its_own_log_softmax(self):
        fake = self._fake([0.5, 0.25, 0.125, 0.125, 1e-9, 1e-9, 1e-9, 1e-9, 1e-12])
        out = ensemble_step_score([fake], None, None)
        np.testing.assert_array_equal(out, np.log([0.5, 0.25, 0.125, 0.125,
                                                   1e-9, 1e-9, 1e-9, 1e-9]))

    def test_two_member_hand_average(self):
        a = self._fake([0.5, 0.5, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-12])
        b = self._fake([0.25, 0.75, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-9, 1e-12])
        out = ensemble_step_score([a, b], None, None)
        assert out[0] == pytest.approx((np.log(0.5) + np.log(0.25)) / 2, abs=1e-12)
        assert out[1] == pytest.approx((np.log(0.5) + np.log(0.75)) / 2, abs=1e-12)

    def test_uniform_members_stay_uniform(self):
        members = [self._fake([0.125] * 8 + [1e-30]) for _ in range(3)]
        out = ensemble_step_score(members, None, None)
        np.testing.assert_allclose(out, np.log(1 / 8), atol=1e-12)

    def test_empty_member_list_rejected(self):
        with pytest.raises(ParameterError):
            ensemble_step_score([], None, None)

    def test_real_model_matches_forward_window(self, cond_model):
        rec = rule_corpus(n=1, length=12, seed=1)[0]
        rf = cond_model.receptive_field()
        feats, mask = extract_window(rec, 5, rf.radius)
        ctx = context_window(rec.labels, 5, rf.radius, rf.conditioning_shift, 12)
        out = ensemble_step_score([cond_model], feats[None], mask[None], ctx[None])
        np.testing.assert_array_equal(
            out, cond_model.forward_window(feats[None], mask[None], ctx[None])[:, :8])


class TestDecodeIndependent:
    def test_matches_full_forward_argmax(self, plain_model):
        rec = rule_corpus(n=1, length=25, seed=2)[0]
        batch = make_batch([rec], length=25)
        logits = plain_model.forward(batch.features, batch.mask, train=False).data[0]
        want = np.argmax(logits[:, :8], axis=1)
        np.testing.assert_array_equal(decode_independent(plain_model, rec), want)

    def test_copies_of_one_model_decode_like_one(self, plain_model):
        rec = rule_corpus(n=1, length=25, seed=2)[0]
        single = decode_independent(plain_model, rec)
        trip = decode_independent(Ensemble((plain_model,) * 3), rec)
        np.testing.assert_array_equal(single, trip)

    def test_conditioned_model_rejected(self, cond_model):
        rec = rule_corpus(n=1, length=5, seed=0)[0]
        with pytest.raises(ModeError):
            decode_independent(cond_model, rec)

    def test_member_order_is_irrelevant(self):
        models = [build(small_config(), np.random.default_rng(s)) for s in (1, 2, 3)]
        rec = rule_corpus(n=1, length=30, seed=3)[0]
        a = decode_independent(Ensemble(tuple(models)), rec)
        b = decode_independent(Ensemble(tuple(reversed(models))), rec)
        np.testing.assert_array_equal(a, b)


class TestBeamSearch:
    def test_width_one_is_greedy(self, cond_model):
        for seed in range(4):
            rec = rule_corpus(n=1, length=8, seed=seed)[0]
            np.testing.assert_array_equal(
                beam_search(cond_model, rec, beam_width=1),
                greedy_decode([cond_model], rec),
            )

    def test_exhaustive_width_matches_brute_force(self, cond_model):
        rec = rule_corpus(n=1, length=3, seed=5)[0]
        want, _ = brute_force_decode([cond_model], rec)
        got = beam_search(cond_model, rec, beam_width=8 ** 3)
        np.testing.assert_array_equal(got, want)

    def test_log_prob_monotone_in_width(self, cond_model):
        rec = rule_corpus(n=1, length=10, seed=6)[0]
        scores = [
            sequence_log_prob(cond_model, rec, beam_search(cond_model, rec, beam_width=w))
            for w in (1, 2, 4, 8, 16)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_beam_eight_dominates_greedy(self, cond_model):
        for seed in range(6):
            rec = rule_corpus(n=1, length=9, seed=10 + seed)[0]
            greedy = sequence_log_prob(cond_model, rec, greedy_decode([cond_model], rec))
            beam = sequence_log_prob(cond_model, rec, beam_search(cond_model, rec))
            assert beam >= greedy - 1e-9

    def test_all_ties_pick_lexicographic_minimum(self):
        model = build(small_config(conditioned=True), np.random.default_rng(0))
        for t in model.trainable().values():
            t.data[...] = 0.0
        rec = rule_corpus(n=1, length=5, seed=7)[0]
        out = beam_search(model, rec, beam_width=8)
        np.testing.assert_array_equal(out, np.zeros(5, dtype=np.int64))

    def test_unconditioned_model_rejected(self, plain_model):
        rec = rule_corpus(n=1, length=5, seed=0)[0]
        with pytest.raises(ModeError):
            beam_search(plain_model, rec)

    def test_bad_width_rejected(self, cond_model):
        rec = rule_corpus(n=1, length=5, seed=0)[0]
        with pytest.raises(ParameterError):
            beam_search(cond_model, rec, beam_width=0)

    def test_deterministic(self, cond_model):
        rec = rule_corpus(n=1, length=12, seed=8)[0]
        a = beam_search(cond_model, rec)
        b = beam_search(cond_model, rec)
        np.testing.assert_array_equal(a, b)

    def test_member_order_is_irrelevant(self):
        models = [
            build(small_config(conditioned=True), np.random.default_rng(s))
            for s in (4, 5, 6)
        ]
        rec = rule_corpus(n=1, length=10, seed=9)[0]
        a = beam_search(Ensemble(tuple(models)), rec)
        b = beam_search(Ensemble((models[2], models[0], models[1])), rec)
        np.testing.assert_array_equal(a, b)

    def test_accumulated_score_recomputable(self, cond_model):
        rec = rule_corpus(n=1, length=10, seed=11)[0]
        labels = beam_search(cond_model, rec)
        direct = sequence_log_prob(cond_model, rec, labels)
        win, brute_score = brute_force_decode([cond_model], rule_corpus(n=1, length=3, seed=5)[0])
        assert direct == pytest.approx(
            sequence_log_prob(cond_model, rec, labels), abs=1e-5 * rec.length
        )
        assert brute_score == pytest.approx(
            sequence_log_prob(cond_model, rule_corpus(n=1, length=3, seed=5)[0], win),
            abs=1e-5 * 3,
        )

    @pytest.mark.parametrize("label", (-1, 8, 9))
    def test_out_of_range_label_rejected(self, cond_model, label):
        # -1 would score the last class, and 8 or 9 index past the 8 scores
        rec = rule_corpus(n=1, length=4, seed=3)[0]
        with pytest.raises(ParameterError, match=r"\[0, 8\)"):
            sequence_log_prob(cond_model, rec, [0, 1, 2, label])


class TestBatchRowStability:
    """Per-row results of batched windows must not depend on batch composition.

    Beam search and the exhaustive oracle batch different hypothesis sets at
    each step; their agreement relies on this bitwise property.
    """

    def test_row_permutation_bitwise_stable(self, cond_model):
        rec = rule_corpus(n=1, length=12, seed=12)[0]
        rf = cond_model.receptive_field()
        feats, mask = extract_window(rec, 6, rf.radius)
        ctxs = np.stack([
            context_window(np.full(6, c, dtype=np.int64), 6, rf.radius,
                           rf.conditioning_shift, 12)
            for c in range(8)
        ])
        feats_b = np.broadcast_to(feats, (8,) + feats.shape)
        mask_b = np.broadcast_to(mask, (8,) + mask.shape)
        full = cond_model.forward_window(feats_b, mask_b, ctxs)
        perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])
        permuted = cond_model.forward_window(feats_b, mask_b, ctxs[perm])
        np.testing.assert_array_equal(permuted, full[perm])
        subset = cond_model.forward_window(feats_b[:3], mask_b[:3], ctxs[:3])
        np.testing.assert_array_equal(subset, full[:3])


def window_path_log_prob(members, record, labels):
    """Rescoring on the window path, as beam search accumulates its scores:
    one ``step_scores`` call per position, summed left to right in float64."""
    total = 0.0
    for i in range(record.length):
        total += float(step_scores(members, [(record, labels)], i)[0, labels[i]])
    return total


class TestDecodersMatchOracle:
    """Beam search gives bit-identical results whether windows are scored
    by ``forward_window`` or by the full forward over the window, and
    rescoring and scheduled sampling, which step ``model.Stepper``, match
    the window-path reference loops scored by that full forward."""

    def test_patched_oracle_changes_nothing(self, monkeypatch):
        chained = conditioned_shipped("chained")
        ensemble = Ensemble((chained, randomized_stats_model(chained.config, 42)))
        records = rule_corpus(n=2, length=14, seed=21) + rule_corpus(n=1, length=9, seed=22)

        def decode(rescore, sampling_pass):
            labels = [beam_search(ensemble, r) for r in records]
            log_probs = [rescore(r, y) for r, y in zip(records, labels)]
            contexts = sampling_pass(np.random.default_rng(5))
            return labels, log_probs, contexts

        def stepped(rng):
            mixed = scheduled_sampling_pass(chained, batch_of(records), 0.7, rng)
            return [row[: r.length] for row, r in zip(mixed, records)]

        fast = decode(lambda r, y: sequence_log_prob(ensemble, r, y), stepped)
        monkeypatch.setattr(Model, "forward_window", window_oracle)
        slow = decode(lambda r, y: window_path_log_prob(ensemble.members, r, y),
                      lambda rng: window_sampling_pass(chained, records, 0.7, rng))
        for a, b in zip(fast[0] + fast[2], slow[0] + slow[2]):
            np.testing.assert_array_equal(a, b)
        assert fast[1] == slow[1]


class TestRescoringMatchesWindowPath:
    """``sequence_log_prob`` steps ``model.Stepper``, which runs the window
    path's conv kernel on the same row blocks, so its totals equal the
    window path's bit for bit on every BLAS core."""

    @pytest.mark.parametrize("n_members", (1, 2))
    @pytest.mark.parametrize("name", ("small", "chained"))
    def test_totals_equal_the_window_path(self, name, n_members):
        if name == "small":
            config = small_config(conditioned=True)
        else:
            config = conditioned_shipped("chained").config
        members = tuple(randomized_stats_model(config, 30 + k) for k in range(n_members))
        ensemble = Ensemble(members)
        rng = np.random.default_rng(31)
        for length in (0, 1, 4, 130):
            for record in rule_corpus(n=2, length=length, seed=length):
                labels = rng.integers(0, 8, size=length)
                assert (sequence_log_prob(ensemble, record, labels)
                        == window_path_log_prob(members, record, labels))

    def test_scores_without_the_window_path(self, monkeypatch, cond_model):
        record = rule_corpus(n=1, length=9, seed=32)[0]
        want = window_path_log_prob((cond_model,), record, record.labels[:9])

        def refuse(*args, **kwargs):
            raise AssertionError("rescoring ran the window path")

        monkeypatch.setattr(Model, "forward_window", refuse)
        monkeypatch.setattr(inference, "step_scores", refuse)
        assert sequence_log_prob(cond_model, record, record.labels[:9]) == want

    @pytest.mark.parametrize("length", (0, 4))
    def test_unconditioned_model_rejected(self, plain_model, length):
        record = rule_corpus(n=1, length=length, seed=33)[0]
        with pytest.raises(ModeError):
            sequence_log_prob(plain_model, record, record.labels[:length])


class TestEnsembleValidation:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            Ensemble(())

    def test_mixed_modes_rejected(self, cond_model, plain_model):
        with pytest.raises(ModeError):
            Ensemble((cond_model, plain_model))

    def test_mismatched_architectures_rejected(self, plain_model):
        other = build(small_config(skip=False), np.random.default_rng(1))
        with pytest.raises(ModeError):
            Ensemble((plain_model, other))

    def test_zero_length_record_decodes_empty(self, cond_model, plain_model):
        rec = rule_corpus(n=1, length=4, seed=0)[0]
        empty = dataclasses.replace(
            rec,
            length=0,
            mask=np.zeros_like(rec.mask),
            features=np.zeros_like(rec.features),
            labels=np.full_like(rec.labels, NOSEQ_CLASS),
        )
        assert beam_search(cond_model, empty).size == 0
        assert decode_independent(plain_model, empty).size == 0


def force_workers(monkeypatch, count):
    """Make decoding see ``count`` idle cores whatever the machine: a
    ``worker_threads`` context entered afterwards runs on ``count`` threads."""
    monkeypatch.setattr(inference, "idle_cores", lambda: count)


class TestDecodeWorkers:
    @pytest.mark.parametrize("openblas, omp, expected", [
        ("1", None, 4), ("2", None, 2), (None, None, 1), ("0", None, 1), ("abc", None, 1),
        (None, "1", 4), ("0", "2", 2), ("3", "1", 1), ("8", None, 1),
    ])
    def test_rule(self, monkeypatch, openblas, omp, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert inference.idle_cores() == expected

    def test_capped_by_records(self, monkeypatch):
        # a call over n items starts at most n - 1 pool threads: the first
        # min(n, 4) items meet at a barrier, so each needs a thread of its own
        force_workers(monkeypatch, 4)
        before = threading.active_count()
        for n in range(7):
            barrier = threading.Barrier(max(1, min(n, 4)), timeout=30)
            with inference.worker_threads() as each:
                each(lambda r: r < 4 and barrier.wait(), range(n))
                assert threading.active_count() - before == max(0, min(n - 1, 3))
            assert threading.active_count() == before

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert inference.idle_cores() == 2


def each_on_pool(fn, items):
    """One call of ``each`` from a direct ``worker_threads()``, as
    ``decode_records`` maps its records."""
    with inference.worker_threads() as each:
        return each(fn, list(items))


class TestMapRecords:
    """The decode pool mapping records through one call of ``each``.

    Three workers: the calling thread plus two pool threads."""

    def test_one_worker_starts_no_thread(self, monkeypatch):
        force_workers(monkeypatch, 1)
        before = threading.active_count()
        seen = []
        out = each_on_pool(lambda r: seen.append((threading.get_ident(),
                                                  threading.active_count())) or r + 1, range(5))
        assert out == [1, 2, 3, 4, 5]
        assert seen == [(threading.get_ident(), before)] * 5

    def test_order_kept_and_caller_decodes(self, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()
        barrier = threading.Barrier(3, timeout=30)
        seen = []

        def fn(r):
            if r < 3:  # the first three records run at once, one per worker
                barrier.wait()
            seen.append((threading.get_ident(), threading.active_count()))
            time.sleep(0.001 * (r % 4))  # finish out of order
            return r * r

        assert each_on_pool(fn, range(30)) == [r * r for r in range(30)]
        idents = {ident for ident, _ in seen}
        assert len(idents) == 3 and threading.get_ident() in idents
        assert max(count for _, count in seen) <= before + 2
        assert threading.active_count() == before

    def test_stress_each_record_once(self, monkeypatch):
        # a lost update on the shared counter would skip or repeat a record
        force_workers(monkeypatch, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            calls = []
            out = each_on_pool(lambda r: calls.append(r) or -r, range(3000))
            assert out == [-r for r in range(3000)]
            assert sorted(calls) == list(range(3000))
        finally:
            sys.setswitchinterval(interval)

    def test_threads_start_once_per_context(self, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()
        barrier = threading.Barrier(3, timeout=30)
        workers = set()

        def fn(r, meet=False):
            workers.add(threading.current_thread())
            if meet:
                barrier.wait()
            return r

        with inference.worker_threads() as each:
            assert threading.active_count() == before  # nothing starts before the first call
            assert each(lambda r: fn(r, meet=True), range(3)) == [0, 1, 2]  # all three at once
            for _ in range(50):
                assert each(fn, range(6)) == list(range(6))
                assert threading.active_count() == before + 2
        assert threading.current_thread() in workers and len(workers) == 3
        assert threading.active_count() == before

    def _failing(self, fails, exc=ValueError):
        """fn whose first three records start together, then ``fails``
        raise ``exc(r)`` and the others take 0.2 s; records it started."""
        barrier = threading.Barrier(3, timeout=30)
        started = []

        def fn(r):
            started.append(r)
            if r < 3:
                barrier.wait()
            if r in fails:
                raise exc(r)
            time.sleep(0.2)
            return r

        return fn, started

    def test_no_record_starts_after_a_failure(self, monkeypatch):
        force_workers(monkeypatch, 3)
        fn, started = self._failing({1})
        with pytest.raises(ValueError) as err:
            each_on_pool(fn, range(20))
        assert err.value.args == (1,)
        assert sorted(started) == [0, 1, 2]

    def test_lowest_failing_index_wins(self, monkeypatch):
        force_workers(monkeypatch, 3)
        fn, started = self._failing({0, 1, 2})
        with pytest.raises(ValueError) as err:
            each_on_pool(fn, range(20))
        assert err.value.args == (0,)
        assert sorted(started) == [0, 1, 2]

    def test_keyboard_interrupt_stops_new_records(self, monkeypatch):
        force_workers(monkeypatch, 3)
        before = threading.active_count()
        fn, started = self._failing({2}, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            each_on_pool(fn, range(20))
        assert sorted(started) == [0, 1, 2]
        assert threading.active_count() == before

    def test_serial_exception_surfaces(self, monkeypatch):
        for workers in (1, 3):
            force_workers(monkeypatch, workers)
            with pytest.raises(ZeroDivisionError):
                each_on_pool(lambda r: 1 // (r - 7), range(12))


def mixed_records():
    """Mixed lengths, 1-residue records included, with distinct ids."""
    lengths = (23, 1, 9, 40, 1, 2, 31, 5, 17, 1, 12)
    return [dataclasses.replace(rule_corpus(n=1, length=n, seed=i)[0], id=f"mix{i:02d}")
            for i, n in enumerate(lengths)]


def ensemble_on_disk(tmp_path, records, conditioned, members):
    """``members`` checkpoints with sidecars whose validation split is ``records``."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    save_native(records, str(data_dir / "corpus.txt"))
    run = dataclasses.replace(load_run_config("ablation_row9", []),
                              model=small_config(conditioned), data_dir=str(data_dir),
                              n_validation=len(records))
    ckpts = []
    for k in range(members):
        model = randomized_stats_model(run.model, 40 + k)
        path = str(tmp_path / f"m{k}.ckpt")
        save_checkpoint(checkpoint_from_model(model), path)
        (tmp_path / f"m{k}.ckpt.cfg").write_text(render_config(run))
        ckpts.append(path)
    return SimpleNamespace(records=records, ckpts=ckpts, dir=str(data_dir), tmp=tmp_path)


def cli_outputs(setup, capsys):
    """``eval --raw``'s report and ``predict``'s file, both at beam width 3."""
    assert main(["eval", "--ckpt", *setup.ckpts, "--raw", "--beam-width", "3"]) == 0
    report = capsys.readouterr().out
    dest = setup.tmp / "preds.txt"
    assert main(["predict", "--ckpt", *setup.ckpts, "--input", setup.dir + "/corpus.txt",
                 "--output", str(dest), "--beam-width", "3"]) == 0
    capsys.readouterr()
    return report, dest.read_bytes()


class TestParallelDecodeParity:
    """Decoding on three workers is byte-identical to one worker.

    Every record makes the same BLAS calls at any worker count, so this
    holds on every BLAS core."""

    KINDS = {"plain": (False, 1), "conditioned": (True, 1), "ensemble": (True, 2),
             "plain_ensemble": (False, 2)}

    @pytest.fixture(params=list(KINDS))
    def setup(self, request, tmp_path):
        return ensemble_on_disk(tmp_path, mixed_records(), *self.KINDS[request.param])

    def test_eval_and_predict(self, setup, monkeypatch, capsys):
        force_workers(monkeypatch, 1)
        serial = cli_outputs(setup, capsys)
        force_workers(monkeypatch, 3)
        assert cli_outputs(setup, capsys) == serial
        ids = [line.split(b"\t")[0].decode() for line in serial[1].splitlines()]
        assert ids == [r.id for r in setup.records]

    def test_validation_q8(self, setup, monkeypatch):
        models = [build(load_run_config(p + ".cfg", []).model, np.random.default_rng(0))
                  for p in setup.ckpts]
        for model, path in zip(models, setup.ckpts):
            bind_checkpoint(load_checkpoint(path), model)
        score = [evaluate_q8] + ([beam_q8] if models[0].config.conditioned else [])

        def values():
            return [f(m, setup.records) for f in score for m in models]

        force_workers(monkeypatch, 1)
        serial = values()
        force_workers(monkeypatch, 3)
        assert values() == serial

    def test_error_surfaces_as_in_the_serial_loop(self, setup, monkeypatch, capsys):
        original = {name: getattr(inference, name)
                    for name in ("beam_search", "decode_independent")}

        def failing(name):
            def fn(ensemble, record, *args):
                if record.id in ("mix03", "mix07"):
                    raise NonFiniteError(f"record {record.id} overflowed")
                return original[name](ensemble, record, *args)
            return fn

        for name in original:
            monkeypatch.setattr(inference, name, failing(name))
        dest = setup.tmp / "preds.txt"
        argv = ["predict", "--ckpt", *setup.ckpts, "--input", setup.dir + "/corpus.txt",
                "--output", str(dest), "--beam-width", "3"]
        outcomes = []
        for workers in (1, 3):
            force_workers(monkeypatch, workers)
            outcomes.append((main(argv), capsys.readouterr().err, dest.exists()))
        assert outcomes[0] == outcomes[1] == (3, "error: record mix03 overflowed\n", False)


class TestDecodeRecords:
    """``decode_records`` returns the per-record decoder's labels in record
    order, on one core and on three.

    Each record and each member makes the same BLAS calls at any thread
    count, so this holds on every BLAS core."""

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("members", [1, 2])
    @pytest.mark.parametrize("conditioned", [True, False])
    def test_equals_per_record_decode(self, conditioned, members, cores, monkeypatch):
        models = tuple(randomized_stats_model(small_config(conditioned), 60 + k)
                       for k in range(members))
        decoded = models[0] if members == 1 else Ensemble(models)
        decode = beam_search if conditioned else decode_independent
        records = mixed_records()
        want = [decode(decoded, r) for r in records]
        force_workers(monkeypatch, cores)
        got = decode_records(decoded, records)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestMemberThreadParity:
    """One record's members scored on three threads, byte-identical to one,
    and loading the checkpoints draws no random weights.

    Each member makes the same BLAS calls on any thread and the mean sorts
    the members' scores, so this holds on every BLAS core."""

    KINDS = {"conditioned2": (True, 2), "conditioned3": (True, 3),
             "plain2": (False, 2), "plain3": (False, 3)}

    @pytest.fixture(params=list(KINDS))
    def setup(self, request, tmp_path):
        return ensemble_on_disk(tmp_path, mixed_records()[:1], *self.KINDS[request.param])

    def test_eval_and_predict(self, setup, monkeypatch, capsys):
        force_workers(monkeypatch, 1)
        serial = cli_outputs(setup, capsys)
        force_workers(monkeypatch, 3)
        assert cli_outputs(setup, capsys) == serial

    def test_loading_draws_no_init(self, setup, monkeypatch, capsys):
        expected = cli_outputs(setup, capsys)

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load drew random weights")

        monkeypatch.setattr(chaincnn.tensor, "init_weights", refuse)
        assert cli_outputs(setup, capsys) == expected


class TestMemberThreads:
    """Records and their members together stay within the idle cores; a
    failing member surfaces as in the serial member loop, and no thread
    outlives the decode."""

    @pytest.mark.parametrize("n_records", [1, 2, 5])
    def test_live_threads_within_idle_cores(self, n_records, monkeypatch, tmp_path, capsys):
        setup = ensemble_on_disk(tmp_path, mixed_records()[:n_records], True, 3)
        force_workers(monkeypatch, 4)
        before = threading.active_count()
        live, idents, lock = [], set(), threading.Lock()
        original = Model.forward_window

        def counted(model, *args):
            with lock:
                live.append(threading.active_count() - before + 1)
                idents.add(threading.get_ident())
            return original(model, *args)

        monkeypatch.setattr(Model, "forward_window", counted)
        cli_outputs(setup, capsys)
        assert max(live) <= 4
        assert threading.active_count() == before
        if n_records == 1:  # the caller's one record borrows the idle pool threads
            assert threading.get_ident() in idents and len(idents) >= 2

    def test_one_budget_nested(self, monkeypatch):
        # records call the same ``each`` over their members, as a decode
        # does; record 0 scores 60 positions, the other five one each
        for k in (1, 2, 3, 4):
            force_workers(monkeypatch, k)
            before = threading.active_count()
            lock = threading.Lock()
            live, late = [], set()
            short_done = 0

            def member(m):
                with lock:
                    live.append(threading.active_count() - before + 1)
                time.sleep(0.002)
                return m, threading.get_ident()

            def record(r):
                nonlocal short_done
                for _ in range(60 if r == 0 else 1):
                    with lock:
                        after_shorts = short_done == 5
                    scored = each(member, range(3))
                    assert [m for m, _ in scored] == [0, 1, 2]
                    if r == 0 and after_shorts:
                        late.update(ident for _, ident in scored)
                if r:
                    with lock:
                        short_done += 1
                return -r

            with inference.worker_threads() as each:
                assert each(record, range(6)) == [-r for r in range(6)]
            assert max(live) <= k
            assert threading.active_count() == before
            if k >= 3:  # a thread that finished its records helps the long one
                assert len(late) > 1

    def test_stress_results_in_member_order(self, monkeypatch):
        # a result filed under the wrong member would break the order
        force_workers(monkeypatch, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with inference.worker_threads() as each:
                for n in range(1, 300):
                    assert each(lambda m: -m, range(n % 7 + 1)) == [-m for m in range(n % 7 + 1)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("conditioned", [True, False])
    def test_one_member_starts_no_thread(self, conditioned, monkeypatch, tmp_path, capsys):
        setup = ensemble_on_disk(tmp_path, mixed_records()[:1], conditioned, 1)
        force_workers(monkeypatch, 4)

        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cli_outputs(setup, capsys)

    @pytest.fixture(scope="class")
    def members(self):
        return {conditioned: tuple(randomized_stats_model(small_config(conditioned), 50 + k)
                                   for k in range(3))
                for conditioned in (True, False)}

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    @pytest.mark.parametrize("fails, lowest", [({1}, 1), ({2}, 2), ({1, 2}, 1), ({0, 2}, 0)])
    @pytest.mark.parametrize("conditioned", [True, False])
    def test_lowest_failing_member_surfaces(self, conditioned, fails, lowest, exc, members,
                                            monkeypatch):
        models = members[conditioned]
        method = "forward_window" if conditioned else "forward"
        original = getattr(Model, method)

        def failing(model, *args, **kwargs):
            k = models.index(model)
            if k in fails:
                if k == lowest:  # let a higher member fail first where one does
                    time.sleep(0.05)
                raise exc(k)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(Model, method, failing)
        decode = beam_search if conditioned else decode_independent
        record = mixed_records()[0]
        before = threading.active_count()
        for workers in (1, 3):
            force_workers(monkeypatch, workers)
            with pytest.raises(exc) as err, inference.worker_threads() as each:
                decode(Ensemble(models), record, *([3] if conditioned else []), each=each)
            assert err.value.args == (lowest,)
            assert threading.active_count() == before
