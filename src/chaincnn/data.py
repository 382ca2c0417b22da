"""Protein record decoding, PSSM statistics, splits, and batching.

Source matrices carry one protein per row: 700 positions times 57
columns. Each record keeps a 42-feature encoding per position (21
residue one-hot columns plus 21 raw PSSM columns), the 8-class structure
labels (class 8 marks no-sequence padding), and a prefix-contiguous
mask of real positions. A plain text fixture format mirrors the same
content for small corpora and prediction inputs.

Records stay raw from load through training, evaluation and prediction:
each model standardizes the PSSM columns of its input with the training
statistics stored in its own buffers (``apply_pssm_stats``).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy_format

from .errors import DataFormatError, MalformedRecordError, ParameterError, ShapeError

SEQ_LEN = 700
SOURCE_COLUMNS = 57
NUM_FEATURES = 42
NUM_PSSM = 21
NUM_CLASSES = 9
NOSEQ_CLASS = 8
NUM_REAL_CLASSES = 8  # the structure classes; NOSEQ_CLASS marks padding
NPY_CHUNK_ROWS = 16  # source rows ``load_npy_records`` decodes at a time

# Residue letter order matches the source one-hot column order; 'X' is
# the unknown-residue catch-all. Class letters follow the label block's
# column order; predictions render through the same table.
RESIDUE_ALPHABET = "ACEDGFIHKMLNQPSRTWVYX"
CLASS_LETTERS = "LBEGIHST"


@dataclass(frozen=True)
class ColumnMap:
    """Half-open column ranges of the 57-column source layout."""

    residue_onehot: tuple[int, int] = (0, 21)
    labels: tuple[int, int] = (22, 31)
    pssm: tuple[int, int] = (35, 56)


COLUMNS = ColumnMap()
# the source columns a record is decoded from; the others are never read
_READ_COLUMNS = np.r_[slice(*COLUMNS.residue_onehot), slice(*COLUMNS.labels),
                      slice(*COLUMNS.pssm)]


@dataclass(frozen=True)
class ProteinRecord:
    """One protein, padded to exactly SEQ_LEN positions.

    features: [700, 42] float32, residue one-hot then raw PSSM columns;
    labels: [700] int64 with 8 at padding; mask: [700] bool, True for the
    leading ``length`` real positions.
    ``labels`` may be None for prediction-only inputs.
    """

    id: str
    features: np.ndarray
    labels: np.ndarray | None
    mask: np.ndarray
    length: int

    def __post_init__(self):
        if self.features.shape != (SEQ_LEN, NUM_FEATURES):
            raise MalformedRecordError(
                f"record {self.id}: features shape {self.features.shape}"
            )
        if self.mask.shape != (SEQ_LEN,):
            raise MalformedRecordError(f"record {self.id}: mask shape {self.mask.shape}")
        if int(self.mask.sum()) != self.length or self.mask[: self.length].sum() != self.length:
            raise MalformedRecordError(
                f"record {self.id}: mask must be a {self.length}-long prefix"
            )
        if self.labels is not None:
            real = self.labels[: self.length]
            if real.size and (real.min() < 0 or real.max() >= NOSEQ_CLASS):
                raise MalformedRecordError(
                    f"record {self.id}: masked-in labels must lie in [0, 8)"
                )


@dataclass(frozen=True)
class DatasetSplit:
    """Training, validation and held-out test records.

    The CLI leaves ``test`` empty: ``eval --split test`` reads the test file
    itself, so training never holds it in memory.
    """

    train: list[ProteinRecord]
    validation: list[ProteinRecord]
    test: list[ProteinRecord]
    seed: int


@dataclass
class Batch:
    features: np.ndarray  # [batch, length, 42] float32
    labels: np.ndarray | None  # [batch, length] int64
    mask: np.ndarray  # [batch, length] float32


# ---------------------------------------------------------------------------
# NPY parsing


def _read_npy_header(fh, path: str) -> tuple[tuple[int, ...], np.dtype]:
    """The shape and dtype of the NPY payload ``fh`` is left at, checked as
    ``load_npy`` describes, with the payload's size."""
    try:
        version = npy_format.read_magic(fh)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad magic at offset 0: {exc}") from exc
    if version != (1, 0):
        raise DataFormatError(f"{path}: unsupported format version "
                              f"{version[0]}.{version[1]} at offset 6")
    try:
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad header at offset 8: {exc}") from exc
    if dtype.str not in ("<f4", "<f8"):
        raise DataFormatError(f"{path}: unsupported dtype {dtype.str!r} at offset 10")
    if fortran_order:
        raise DataFormatError(f"{path}: fortran-order payloads are not supported")
    if any(d < 0 for d in shape):
        raise DataFormatError(f"{path}: bad shape {shape!r} in header at offset 10")
    offset = fh.tell()
    size = os.fstat(fh.fileno()).st_size - offset
    expected = math.prod(shape) * dtype.itemsize
    if size != expected:
        raise DataFormatError(
            f"{path}: payload is {size} bytes at offset {offset}, expected {expected}"
        )
    return shape, dtype


def load_npy(path: str) -> np.ndarray:
    """Parse a version 1.0 NPY file into a float32 row-major array.

    Only little-endian float32/float64 payloads in C order are accepted;
    float64 is converted. Errors name the byte offset of the problem.
    """
    with open(path, "rb") as fh:
        shape, dtype = _read_npy_header(fh, path)
        arr = np.frombuffer(fh.read(), dtype=dtype).reshape(shape)
    return np.ascontiguousarray(arr, dtype=np.float32)


def load_npy_records(path: str) -> list[ProteinRecord]:
    """``records_from_matrix(load_npy(path))``, read ``NPY_CHUNK_ROWS``
    source rows (2.5 MB as float32) at a time, so the whole payload is
    never held beside the records."""
    with open(path, "rb") as fh:
        shape, dtype = _read_npy_header(fh, path)
        records = []
        for first in range(0, _matrix_records(shape), NPY_CHUNK_ROWS):
            chunk = fh.read(NPY_CHUNK_ROWS * SEQ_LEN * SOURCE_COLUMNS * dtype.itemsize)
            rows = np.frombuffer(chunk, dtype=dtype).astype(np.float32, copy=False)
            records += records_from_matrix(rows.reshape(-1, SEQ_LEN, SOURCE_COLUMNS), first)
    return records


# ---------------------------------------------------------------------------
# record decoding


def decode_record(row: np.ndarray, rid: str = "r0") -> ProteinRecord:
    """Decode one [700, 57] source row into a ProteinRecord.

    A NaN or infinity in a column the record is decoded from, padding
    included, is a ``MalformedRecordError`` naming the first one's
    position and column (both 0-based).
    """
    if row.shape != (SEQ_LEN, SOURCE_COLUMNS):
        raise ShapeError(f"record {rid}: source row shape {row.shape}")
    finite = np.isfinite(row[:, _READ_COLUMNS])
    if not finite.all():
        pos, k = np.argwhere(~finite)[0]
        col = _READ_COLUMNS[k]
        raise MalformedRecordError(
            f"record {rid}: non-finite value {row[pos, col]} at position {pos}, column {col}")
    onehot = row[:, COLUMNS.residue_onehot[0] : COLUMNS.residue_onehot[1]]
    label_block = row[:, COLUMNS.labels[0] : COLUMNS.labels[1]]
    pssm = row[:, COLUMNS.pssm[0] : COLUMNS.pssm[1]]
    labels = label_block.argmax(axis=1).astype(np.int64)  # ties pick the lowest index
    mask = labels != NOSEQ_CLASS
    length = int(mask.sum())
    if mask[:length].sum() != length:
        raise MalformedRecordError(f"record {rid}: interior no-seq token")
    if length and onehot[:length].max(axis=1).min() <= 0:
        raise MalformedRecordError(
            f"record {rid}: residue one-hot block has no nonzero entry at a masked-in position"
        )
    features = np.concatenate([onehot, pssm], axis=1).astype(np.float32)
    return ProteinRecord(id=rid, features=features, labels=labels, mask=mask, length=length)


def encode_record(rec: ProteinRecord) -> np.ndarray:
    """Re-encode a record into the populated columns of a [700, 57] row."""
    row = np.zeros((SEQ_LEN, SOURCE_COLUMNS), dtype=np.float32)
    row[:, COLUMNS.residue_onehot[0] : COLUMNS.residue_onehot[1]] = rec.features[:, :21]
    if rec.labels is None:
        raise ParameterError(f"record {rec.id}: cannot encode without labels")
    row[np.arange(SEQ_LEN), COLUMNS.labels[0] + rec.labels] = 1.0
    row[:, COLUMNS.pssm[0] : COLUMNS.pssm[1]] = rec.features[:, 21:]
    return row


def _matrix_records(shape) -> int:
    """The number of records in a source matrix of ``shape``: [n, 39900]
    or [n, 700, 57]; any other shape is a data error."""
    if len(shape) == 2 and shape[1] != SEQ_LEN * SOURCE_COLUMNS:
        raise DataFormatError(f"matrix has {shape[1]} columns, expected {SEQ_LEN * SOURCE_COLUMNS}")
    if tuple(shape[1:]) not in ((SEQ_LEN * SOURCE_COLUMNS,), (SEQ_LEN, SOURCE_COLUMNS)):
        raise DataFormatError(f"matrix shape {tuple(shape)} is not [n, 39900] or [n, 700, 57]")
    return shape[0]


def records_from_matrix(mat: np.ndarray, first: int = 0) -> list[ProteinRecord]:
    """Decode an [n, 39900] (or [n, 700, 57]) matrix into records named
    ``p{first + i:05d}``: ``first`` is the index of row 0 in its file."""
    mat = mat.reshape(_matrix_records(mat.shape), SEQ_LEN, SOURCE_COLUMNS)
    return [decode_record(mat[i], rid=f"p{first + i:05d}") for i in range(mat.shape[0])]


# ---------------------------------------------------------------------------
# PSSM standardization


def compute_pssm_stats(records: list[ProteinRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population std [21] over masked-in positions.

    Both come back rounded to float32, the precision a model's
    ``input_norm.*`` buffers hold them at. A constant column gets std 1.0,
    so it is centered without scaling.
    """
    if not any(r.length for r in records):  # also no records, where concatenate fails
        raise ParameterError("cannot compute PSSM statistics over zero positions")
    cols = np.concatenate([r.features[: r.length, 21:] for r in records], axis=0)
    mean = cols.mean(axis=0, dtype=np.float64).astype(np.float32)
    std = cols.astype(np.float64).std(axis=0).astype(np.float32)
    constant = std == 0.0
    if constant.any():
        warnings.warn(
            f"{int(constant.sum())} PSSM column(s) are constant; centering without scaling",
            RuntimeWarning,
            stacklevel=2,
        )
        std[constant] = 1.0
    return mean, std


def apply_pssm_stats(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """A float32 copy of [..., 42] features with the PSSM columns 21: standardized.

    ``mean`` and ``std`` are a model's float32 [21] buffers, widened to
    float64 for the arithmetic. Every position is standardized, padding
    too; the model's input mask zeroes the padding afterwards.
    """
    out = np.array(features, dtype=np.float32)
    out[..., 21:] = (out[..., 21:] - mean.astype(np.float64)) / std.astype(np.float64)
    return out


# ---------------------------------------------------------------------------
# splitting and batching


def split_records(records, n_val: int = 256, seed: int = 0) -> DatasetSplit:
    """Deterministic shuffled split: first ``n_val`` shuffled records validate;
    ``test`` is empty."""
    if n_val < 0 or n_val > len(records):
        raise ParameterError(f"n_val={n_val} out of range for {len(records)} records")
    perm = np.random.default_rng(seed).permutation(len(records))
    shuffled = [records[i] for i in perm]
    return DatasetSplit(
        train=shuffled[n_val:], validation=shuffled[:n_val], test=[], seed=seed
    )


def make_batch(records: list[ProteinRecord], length: int = SEQ_LEN) -> Batch:
    """Stack records into dense [batch, length] arrays.

    ``length`` may crop the padded buffer, which is loss-equivalent because
    every model masks padding before its first convolution. A conditioned
    model's label context is not part of the batch: ``Model.label_context``
    builds it from ``labels`` or from sampled labels.
    """
    if not records:
        raise ParameterError("cannot batch zero records")
    if length < 1 or length > SEQ_LEN:
        raise ParameterError(f"batch length {length} out of range")
    feats = np.stack([r.features[:length] for r in records])
    has_labels = all(r.labels is not None for r in records)
    labels = np.stack([r.labels[:length] for r in records]) if has_labels else None
    mask = np.stack([r.mask[:length] for r in records]).astype(np.float32)
    return Batch(features=feats, labels=labels, mask=mask)


# ---------------------------------------------------------------------------
# label strings and the native text fixture format


def labels_to_string(labels: np.ndarray) -> str:
    """Render class indices as structure letters (no-seq entries rejected)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= len(CLASS_LETTERS)):
        raise ParameterError("labels outside [0, 8) cannot be rendered")
    return "".join(CLASS_LETTERS[i] for i in labels)


def string_to_labels(text: str) -> np.ndarray:
    out = np.empty(len(text), dtype=np.int64)
    for i, ch in enumerate(text):
        idx = CLASS_LETTERS.find(ch)
        if idx < 0:
            raise DataFormatError(f"unknown structure letter {ch!r}")
        out[i] = idx
    return out


def record_from_parts(
    rid: str, residues: str, labels: str | None, pssm: np.ndarray
) -> ProteinRecord:
    """Assemble a padded record from sequence strings and a raw PSSM block.

    A NaN or infinity in the PSSM block is a ``DataFormatError`` naming the
    first one's position and PSSM column (both 0-based).
    """
    n = len(residues)
    if n < 1 or n > SEQ_LEN:
        raise DataFormatError(f"record {rid}: length {n} outside [1, {SEQ_LEN}]")
    if pssm.shape != (n, NUM_PSSM):
        raise DataFormatError(f"record {rid}: PSSM block shape {pssm.shape} != ({n}, 21)")
    finite = np.isfinite(pssm)
    if not finite.all():
        pos, col = np.argwhere(~finite)[0]
        raise DataFormatError(f"record {rid}: non-finite PSSM value {pssm[pos, col]} "
                              f"at position {pos}, PSSM column {col}")
    features = np.zeros((SEQ_LEN, NUM_FEATURES), dtype=np.float32)
    for i, ch in enumerate(residues):
        idx = RESIDUE_ALPHABET.find(ch)
        if idx < 0:
            raise DataFormatError(f"record {rid}: unknown residue letter {ch!r}")
        features[i, idx] = 1.0
    features[:n, 21:] = pssm
    mask = np.zeros(SEQ_LEN, dtype=bool)
    mask[:n] = True
    if labels:
        if len(labels) != n:
            raise DataFormatError(f"record {rid}: {len(labels)} labels for {n} residues")
        lab = np.full(SEQ_LEN, NOSEQ_CLASS, dtype=np.int64)
        lab[:n] = string_to_labels(labels)
    else:
        lab = None
    return ProteinRecord(id=rid, features=features, labels=lab, mask=mask, length=n)


def load_native(path: str) -> list[ProteinRecord]:
    """Read the tab-separated fixture format.

    Per line: id, residue string, label string (may be empty), and the
    PSSM block as semicolon-separated rows of 21 comma-separated values.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
            rid, residues, labels, pssm_text = parts
            try:
                rows = [
                    [float(v) for v in row.split(",")] for row in pssm_text.split(";") if row
                ]
                pssm = np.array(rows, dtype=np.float32).reshape(len(rows), -1)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad PSSM value: {exc}") from exc
            if pssm.size and pssm.shape[1] != NUM_PSSM:
                raise DataFormatError(
                    f"{path}:{lineno}: PSSM rows carry {pssm.shape[1]} values, expected 21"
                )
            try:
                records.append(record_from_parts(rid, residues, labels or None, pssm))
            except DataFormatError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return records


def save_native(records: list[ProteinRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            residues = "".join(
                RESIDUE_ALPHABET[int(r.features[i, :21].argmax())] for i in range(r.length)
            )
            labels = labels_to_string(r.labels[: r.length]) if r.labels is not None else ""
            pssm = ";".join(
                ",".join(repr(float(v)) for v in r.features[i, 21:]) for i in range(r.length)
            )
            fh.write(f"{r.id}\t{residues}\t{labels}\t{pssm}\n")
