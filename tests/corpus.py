"""Synthetic corpora and raw source rows used across the test suite."""

import numpy as np

from chaincnn.cli import load_run_config
from chaincnn.data import (
    COLUMNS,
    NOSEQ_CLASS,
    NUM_PSSM,
    RESIDUE_ALPHABET,
    SEQ_LEN,
    SOURCE_COLUMNS,
    ProteinRecord,
)


def shipped_model(name):
    """Model config of a shipped run config: ``ablation_row1`` .. ``ablation_row9``
    (the architecture ladder) or ``chained`` (row 9, next-step conditioned)."""
    return load_run_config(name, []).model


def source_row(residues, labels, pssm=None, junk_seed=None):
    """Build a [700, 57] source row; unused columns can carry junk."""
    n = len(residues)
    row = np.zeros((SEQ_LEN, SOURCE_COLUMNS), dtype=np.float32)
    if junk_seed is not None:
        rng = np.random.default_rng(junk_seed)
        for lo, hi in ((31, 35), (56, 57)):
            row[:, lo:hi] = rng.random((SEQ_LEN, hi - lo))
    for i, ridx in enumerate(residues):
        row[i, COLUMNS.residue_onehot[0] + ridx] = 1.0
        row[i, COLUMNS.labels[0] + labels[i]] = 1.0
    row[n:, COLUMNS.labels[0] + NOSEQ_CLASS] = 1.0
    if pssm is not None:
        row[:n, COLUMNS.pssm[0] : COLUMNS.pssm[1]] = pssm
    return row


def _record(rid, residues, labels, rng, pssm_std=0.1):
    n = len(residues)
    features = np.zeros((SEQ_LEN, 42), dtype=np.float32)
    features[np.arange(n), residues] = 1.0
    features[:n, 21:] = rng.normal(0.0, pssm_std, size=(n, NUM_PSSM)).astype(np.float32)
    lab = np.full(SEQ_LEN, NOSEQ_CLASS, dtype=np.int64)
    lab[:n] = labels
    mask = np.zeros(SEQ_LEN, dtype=bool)
    mask[:n] = True
    return ProteinRecord(id=rid, features=features, labels=lab, mask=mask, length=n)


def rule_corpus(n=8, length=30, seed=0):
    """Labels are a fixed function of the residue at the same position."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        residues = rng.integers(0, len(RESIDUE_ALPHABET), size=length)
        labels = residues % 8
        records.append(_record(f"rule{i:03d}", residues, labels, rng))
    return records


def markov_corpus(n=16, length=30, seed=0):
    """Labels follow y[i] = (y[i-1] + 1) % 8 with a random start.

    Every record carries the same constant residue stream and zero PSSM, so
    the features hold no signal at all (not even a memorizable fingerprint);
    only the label history predicts the next label.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        features = np.zeros((SEQ_LEN, 42), dtype=np.float32)
        features[np.arange(length), 0] = 1.0
        labels = np.full(SEQ_LEN, NOSEQ_CLASS, dtype=np.int64)
        labels[:length] = (int(rng.integers(0, 8)) + np.arange(length)) % 8
        mask = np.zeros(SEQ_LEN, dtype=bool)
        mask[:length] = True
        records.append(ProteinRecord(id=f"markov{i:03d}", features=features,
                                     labels=labels, mask=mask, length=length))
    return records


def segment_corpus(n, length=100, seed=0):
    """Records of ``length`` residues cut into segments of 20-49 residues.

    Each segment's class is uniform on 0-7 and labels every position in it.
    The segment's first residue is the class index (0-7), a marker; every
    other residue is uniform on 8-20, and the PSSM is N(0, 1) noise. So a
    position's label shows in the features only within reach of its
    segment's marker; past that, only the label history carries it.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        residues = rng.integers(8, len(RESIDUE_ALPHABET), size=length)
        labels = np.empty(length, dtype=np.int64)
        start = 0
        while start < length:
            end = min(start + int(rng.integers(20, 50)), length)
            labels[start:end] = residues[start] = rng.integers(0, 8)
            start = end
        records.append(_record(f"segment{i:03d}", residues, labels, rng, pssm_std=1.0))
    return records
