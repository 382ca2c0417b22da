"""Scoring oracles: hand-counted fixtures and algebraic identities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincnn.data import record_from_parts
from chaincnn.errors import ParameterError, ShapeError
from chaincnn.metrics import (
    bootstrap_stderr,
    confusion_matrix,
    precision_recall,
    q8,
    render_report,
)
from corpus import rule_corpus


def make_record(rid, labels):
    n = len(labels)
    residues = "A" * n
    return record_from_parts(rid, residues, labels, np.zeros((n, 21), dtype=np.float32))


class TestQ8:
    def test_all_correct(self):
        recs = rule_corpus(n=3, length=12, seed=0)
        preds = [r.labels[: r.length] for r in recs]
        assert q8(preds, recs) == 1.0

    def test_hand_count_with_padding(self):
        rec = make_record("x", "HHHHHEEEEE")
        pred = np.full(700, 3, dtype=np.int64)  # padded tail carries junk
        pred[:10] = rec.labels[:10]
        pred[3] = (pred[3] + 1) % 8
        pred[7] = (pred[7] + 1) % 8
        pred[9] = (pred[9] + 1) % 8
        assert q8([pred], [rec]) == 0.7

    def test_empty_record_set_rejected(self):
        with pytest.raises(ParameterError):
            q8([], [])

    def test_short_prediction_rejected(self):
        rec = make_record("x", "HHHH")
        with pytest.raises(ShapeError):
            q8([np.zeros(3, dtype=np.int64)], [rec])

    def test_count_mismatch_rejected(self):
        rec = make_record("x", "HH")
        with pytest.raises(ShapeError):
            q8([], [rec])

    def test_unlabeled_record_rejected(self):
        rec = make_record("x", "HH")
        rec = type(rec)(**{**rec.__dict__, "labels": None})
        with pytest.raises(ParameterError):
            q8([np.zeros(2, dtype=np.int64)], [rec])

    def test_out_of_range_prediction_rejected(self):
        rec = make_record("x", "HHE")
        with pytest.raises(ParameterError, match="outside the 8 structure classes"):
            q8([np.array([5, 8, 2])], [rec])

    def test_padding_positions_are_inert(self):
        recs = rule_corpus(n=2, length=9, seed=1)
        preds = [r.labels[:700].copy() for r in recs]
        base = q8(preds, recs)
        for p in preds:
            p[9:] = 5
        assert q8(preds, recs) == base
        np.testing.assert_array_equal(
            confusion_matrix(preds, recs),
            confusion_matrix([p[:9] for p in preds], recs),
        )


class TestConfusionMatrix:
    def test_orientation_rows_true(self):
        rec = make_record("x", "HHE")  # true classes 5,5,2
        pred = np.array([5, 2, 2])
        cm = confusion_matrix([pred], [rec])
        assert cm[5, 5] == 1 and cm[5, 2] == 1 and cm[2, 2] == 1
        assert cm.sum() == 3

    def test_total_equals_masked_in_residues(self):
        recs = rule_corpus(n=4, length=15, seed=2)
        preds = [np.zeros(r.length, dtype=np.int64) for r in recs]
        assert confusion_matrix(preds, recs).sum() == sum(r.length for r in recs)

    def test_out_of_range_prediction_rejected(self):
        rec = make_record("x", "HH")
        with pytest.raises(ParameterError):
            confusion_matrix([np.array([8, 0])], [rec])

    @given(st.integers(0, 2**32 - 1))
    def test_diagonal_over_total_is_q8(self, seed):
        rng = np.random.default_rng(seed)
        recs = rule_corpus(n=3, length=20, seed=3)
        preds = [rng.integers(0, 8, size=r.length) for r in recs]
        cm = confusion_matrix(preds, recs)
        assert q8(preds, recs) == cm.trace() / cm.sum()


class TestPrecisionRecall:
    def test_diagonal_matrix_is_perfect(self):
        cm = np.diag([3, 0, 5, 1, 0, 9, 2, 4])
        for row in precision_recall(cm):
            if row.absent:
                continue
            assert row.precision == 1.0 and row.recall == 1.0

    def test_two_class_hand_fixture(self):
        cm = np.zeros((8, 8), dtype=np.int64)
        cm[0, 0], cm[0, 1] = 3, 1
        cm[1, 0], cm[1, 1] = 2, 4
        rows = precision_recall(cm)
        assert rows[0].precision == pytest.approx(0.6, abs=1e-12)
        assert rows[1].precision == pytest.approx(0.8, abs=1e-12)
        assert rows[0].recall == pytest.approx(0.75, abs=1e-12)
        assert rows[1].recall == pytest.approx(2 / 3, abs=1e-12)
        assert rows[0].frequency == pytest.approx(0.4, abs=1e-12)

    def test_absent_class_reported_absent(self):
        cm = np.zeros((8, 8), dtype=np.int64)
        cm[0, 0] = 10
        rows = precision_recall(cm)
        assert rows[4].absent
        assert rows[4].precision is None and rows[4].recall is None
        assert rows[4].frequency == 0.0
        assert not rows[0].absent

    def test_one_sided_emptiness(self):
        cm = np.zeros((8, 8), dtype=np.int64)
        cm[0, 1] = 5  # class 1 predicted but never true
        rows = precision_recall(cm)
        assert rows[1].precision == 0.0 and rows[1].recall is None
        assert rows[0].precision is None and rows[0].recall == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            precision_recall(np.zeros((8, 8), dtype=np.int64))
        with pytest.raises(ShapeError):
            precision_recall(np.zeros((3, 3)))

    def test_micro_recall_matches_q8(self):
        rng = np.random.default_rng(7)
        recs = rule_corpus(n=5, length=25, seed=4)
        preds = [rng.integers(0, 8, size=r.length) for r in recs]
        cm = confusion_matrix(preds, recs)
        micro = math.fsum(
            row.frequency * row.recall for row in precision_recall(cm) if row.recall is not None
        )
        assert micro == pytest.approx(q8(preds, recs), abs=1e-12)


class TestBootstrap:
    def test_constant_eval(self, rng):
        mean, err = bootstrap_stderr(list("abcdef"), 3, 10, lambda s: 0.7, rng)
        assert mean == 0.7 and err == 0.0

    def test_full_pool_draws_are_identical(self, rng):
        pool = [1.0, 2.0, 3.0]
        mean, err = bootstrap_stderr(pool, 3, 8, lambda s: sum(s), rng)
        assert mean == 6.0 and err == 0.0

    def test_known_spread(self, rng):
        outputs = iter([0.1, 0.2, 0.4, 0.7])
        mean, err = bootstrap_stderr(list("abcd"), 2, 4, lambda s: next(outputs), rng)
        vals = np.array([0.1, 0.2, 0.4, 0.7])
        assert mean == pytest.approx(vals.mean(), abs=1e-12)
        assert err == pytest.approx(vals.std(ddof=1), abs=1e-12)

    def test_draws_without_replacement(self, rng):
        def eval_fn(subset):
            assert len(set(subset)) == len(subset)
            return 0.0

        bootstrap_stderr(list(range(10)), 7, 20, eval_fn, rng)

    def test_oversized_subset_rejected(self, rng):
        with pytest.raises(ParameterError):
            bootstrap_stderr([1, 2], 3, 5, lambda s: 0.0, rng)
        with pytest.raises(ParameterError):
            bootstrap_stderr([1, 2], 1, 0, lambda s: 0.0, rng)

    def test_single_draw_has_zero_spread(self, rng):
        mean, err = bootstrap_stderr([1, 2, 3], 2, 1, lambda s: 0.42, rng)
        assert mean == 0.42 and err == 0.0

    def test_deterministic_under_seed(self):
        pool = list(range(8))
        fn = lambda s: float(sum(s))
        a = bootstrap_stderr(pool, 4, 6, fn, np.random.default_rng(3))
        b = bootstrap_stderr(pool, 4, 6, fn, np.random.default_rng(3))
        assert a == b


class TestReport:
    def _fixture(self):
        rec = make_record("x", "HHEELLLT")
        pred = [np.array([5, 5, 2, 0, 0, 0, 0, 6])]
        return pred, [rec]

    def test_sections_present(self):
        text = render_report(confusion_matrix(*self._fixture()))
        assert "[q8]" in text and "[per_class]" in text

    def test_raw_doubles_by_default(self):
        text = render_report(confusion_matrix(*self._fixture()))
        assert f"q8 = {q8(*self._fixture())!r}\n" in text

    def test_digits_rounding_and_absent(self):
        text = render_report(confusion_matrix(*self._fixture()), digits=3)
        assert "q8 = 0.750" in text  # 6 of 8 correct
        assert "absent" in text  # classes never seen

    def test_per_class_line_per_letter(self):
        lines = render_report(confusion_matrix(*self._fixture())).splitlines()
        letters = [l.split()[0] for l in lines if "precision=" in l]
        assert letters == list("LBEGIHST")
