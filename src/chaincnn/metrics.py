"""Q8 accuracy and per-class precision/recall from one confusion matrix, and
bootstrap spread over ensembles.

All metrics run over masked-in residues and the 8 real structure classes
only; padding and the no-seq class never enter any count.
"""

from dataclasses import dataclass

import numpy as np

from .data import CLASS_LETTERS, NUM_REAL_CLASSES
from .errors import ParameterError, ShapeError


def _check_alignment(predictions, records) -> None:
    if len(predictions) != len(records):
        raise ShapeError(
            f"{len(predictions)} predictions for {len(records)} records"
        )
    for pred, rec in zip(predictions, records):
        if rec.labels is None:
            raise ParameterError(f"record {rec.id} has no labels to score against")
        if len(pred) < rec.length:
            raise ShapeError(
                f"record {rec.id}: prediction covers {len(pred)} of {rec.length} positions"
            )


def q8(predictions, records) -> float:
    """Fraction of masked-in residues predicted correctly: the trace of
    ``confusion_matrix`` over its total.

    Each prediction must cover at least the record's masked-in prefix; any
    entries beyond it are padding positions and are ignored.
    """
    cm = confusion_matrix(predictions, records)
    total = int(cm.sum())
    if total == 0:
        raise ParameterError("q8 is undefined: no masked-in residues")
    return int(cm.trace()) / total


def confusion_matrix(predictions, records) -> np.ndarray:
    """8x8 count matrix over masked-in residues; rows true, columns predicted."""
    if not records:
        raise ParameterError("confusion matrix is undefined over zero records")
    _check_alignment(predictions, records)
    cm = np.zeros((NUM_REAL_CLASSES, NUM_REAL_CLASSES), dtype=np.int64)
    for pred, rec in zip(predictions, records):
        n = rec.length
        p = np.asarray(pred[:n], dtype=np.int64)
        if n and (p.min() < 0 or p.max() >= NUM_REAL_CLASSES):
            raise ParameterError(
                f"record {rec.id}: predictions outside the 8 structure classes"
            )
        np.add.at(cm, (rec.labels[:n], p), 1)
    return cm


@dataclass(frozen=True)
class ClassScores:
    """Per-class report row; precision/recall are None when the denominator is empty."""

    letter: str
    precision: float | None
    recall: float | None
    frequency: float

    @property
    def absent(self) -> bool:
        return self.precision is None and self.recall is None


def precision_recall(cm: np.ndarray) -> list[ClassScores]:
    cm = np.asarray(cm)
    if cm.shape != (NUM_REAL_CLASSES, NUM_REAL_CLASSES):
        raise ShapeError(f"expected an 8x8 confusion matrix, got {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise ParameterError("confusion matrix is empty")
    rows = cm.sum(axis=1)
    cols = cm.sum(axis=0)
    out = []
    for c in range(NUM_REAL_CLASSES):
        prec = int(cm[c, c]) / int(cols[c]) if cols[c] else None
        rec = int(cm[c, c]) / int(rows[c]) if rows[c] else None
        out.append(ClassScores(CLASS_LETTERS[c], prec, rec, int(rows[c]) / total))
    return out


def bootstrap_stderr(pool, subset_size: int, n_draws: int, eval_fn, rng) -> tuple[float, float]:
    """Mean and spread of ``eval_fn`` over random subsets of ``pool``.

    Each draw picks ``subset_size`` members without replacement; the spread is
    the sample standard deviation of the draws (0.0 for a single draw).
    """
    if subset_size < 1 or subset_size > len(pool):
        raise ParameterError(
            f"subset size {subset_size} out of range for a pool of {len(pool)}"
        )
    if n_draws < 1:
        raise ParameterError(f"need at least one draw, got {n_draws}")
    values = np.empty(n_draws, dtype=np.float64)
    for d in range(n_draws):
        idx = rng.choice(len(pool), size=subset_size, replace=False)
        values[d] = eval_fn([pool[i] for i in idx])
    stderr = float(values.std(ddof=1)) if n_draws > 1 else 0.0
    return float(values.mean()), stderr


def render_report(cm: np.ndarray, digits: int | None = None) -> str:
    """Structured text report of one confusion matrix: sections q8 and per_class.

    Q8 is the matrix's trace over its total, so it always agrees with the
    per-class rows. ``digits`` rounds values for display; None emits raw
    doubles.
    """

    def fmt(x):
        if x is None:
            return "absent"
        return f"{x:.{digits}f}" if digits is not None else repr(float(x))

    rows = precision_recall(cm)
    lines = ["[q8]", f"q8 = {fmt(int(np.trace(cm)) / int(np.sum(cm)))}", "", "[per_class]"]
    for row in rows:
        lines.append(
            f"{row.letter} precision={fmt(row.precision)} "
            f"recall={fmt(row.recall)} frequency={fmt(row.frequency)}"
        )
    return "\n".join(lines) + "\n"
