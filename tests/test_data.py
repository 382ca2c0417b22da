"""Data layer: NPY parsing, record decoding, PSSM statistics, batching."""

import math
import tracemalloc

import numpy as np
import pytest

import chaincnn.data as D
from chaincnn.errors import DataFormatError, MalformedRecordError, ParameterError
from corpus import rule_corpus, source_row


class TestLoadNpy:
    def test_round_trip_float32(self, tmp_path, rng):
        arr = rng.standard_normal((2, 4)).astype(np.float32)
        path = tmp_path / "a.npy"
        np.save(path, arr)
        loaded = D.load_npy(str(path))
        np.testing.assert_array_equal(loaded, arr)
        assert loaded.dtype == np.float32

    def test_float64_converted(self, tmp_path, rng):
        arr = rng.standard_normal((3, 5))
        path = tmp_path / "b.npy"
        np.save(path, arr)
        loaded = D.load_npy(str(path))
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, arr.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.npy"
        path.write_bytes(b"PK\x03\x04" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="offset 0"):
            D.load_npy(str(path))

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "d.npy"
        np.save(path, np.arange(6, dtype=np.int32))
        with pytest.raises(DataFormatError, match="dtype"):
            D.load_npy(str(path))

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "e.npy"
        np.save(path, rng.standard_normal((4, 4)).astype(np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFormatError, match="offset"):
            D.load_npy(str(path))

    def test_fortran_order_rejected(self, tmp_path, rng):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(rng.standard_normal((3, 4)).astype(np.float32)))
        with pytest.raises(DataFormatError, match="fortran"):
            D.load_npy(str(path))

    def test_version_two_rejected(self, tmp_path, rng):
        path = tmp_path / "g.npy"
        with open(path, "wb") as fh:
            np.lib.format.write_array(
                fh, rng.standard_normal((2, 2)).astype(np.float32), version=(2, 0)
            )
        with pytest.raises(DataFormatError, match="version"):
            D.load_npy(str(path))


class TestDecodeRecord:
    def test_all_noseq_row(self):
        row = source_row([], [], junk_seed=1)
        rec = D.decode_record(row, rid="empty")
        assert rec.length == 0
        assert not rec.mask.any()
        assert (rec.labels == D.NOSEQ_CLASS).all()

    def test_short_protein(self):
        row = source_row([0, 4, 20], [5, 2, 0], junk_seed=2)
        rec = D.decode_record(row)
        assert rec.length == 3
        np.testing.assert_array_equal(rec.labels[:4], [5, 2, 0, 8])
        np.testing.assert_array_equal(rec.mask[:4], [True, True, True, False])
        assert rec.features[0, 0] == 1.0 and rec.features[1, 4] == 1.0
        assert rec.features.shape == (700, 42)

    def test_label_tie_picks_lowest_index(self):
        row = source_row([0], [0])
        row[0, D.COLUMNS.labels[0] + 3] = 1.0  # two equal maxima: classes 0 and 3
        rec = D.decode_record(row)
        assert rec.labels[0] == 0

    def test_pssm_columns_extracted(self, rng):
        pssm = rng.random((2, 21)).astype(np.float32)
        row = source_row([1, 2], [0, 1], pssm=pssm)
        rec = D.decode_record(row)
        np.testing.assert_array_equal(rec.features[:2, 21:], pssm)

    def test_interior_noseq_rejected(self):
        row = source_row([0, 1, 2], [0, 1, 2])
        lo = D.COLUMNS.labels[0]
        row[1, lo : lo + 9] = 0.0
        row[1, lo + D.NOSEQ_CLASS] = 1.0
        with pytest.raises(MalformedRecordError, match="interior"):
            D.decode_record(row)

    def test_zero_onehot_rejected(self):
        row = source_row([0, 1], [0, 1])
        row[1, 0:21] = 0.0
        with pytest.raises(MalformedRecordError, match="one-hot"):
            D.decode_record(row)

    @pytest.mark.parametrize("column", (2, 25, 40))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_value_rejected(self, column, value):
        row = source_row([0, 1, 2], [0, 1, 2], junk_seed=3)
        row[5, column] = value  # padding is read too
        with pytest.raises(MalformedRecordError,
                           match=f"record p7: non-finite value .* at position 5, column {column}$"):
            D.decode_record(row, rid="p7")

    def test_unread_columns_may_hold_anything(self):
        row = source_row([0, 1, 2], [0, 1, 2])
        row[:, 31] = np.nan
        row[:, 56] = np.inf
        assert D.decode_record(row).length == 3

    def test_reencode_bit_exact(self, rng):
        pssm = rng.standard_normal((5, 21)).astype(np.float32)
        row = source_row([3, 1, 4, 1, 5], [0, 1, 2, 3, 4], pssm=pssm)
        rec = D.decode_record(row)
        back = D.encode_record(rec)
        for lo, hi in (D.COLUMNS.residue_onehot, D.COLUMNS.labels, D.COLUMNS.pssm):
            np.testing.assert_array_equal(back[:, lo:hi], row[:, lo:hi])

    def test_matrix_reshape(self, rng):
        rows = np.stack([source_row([i], [i % 8]) for i in range(3)])
        flat = rows.reshape(3, -1)
        recs = D.records_from_matrix(flat)
        assert [r.length for r in recs] == [1, 1, 1]
        assert [r.labels[0] for r in recs] == [0, 1, 2]
        assert recs[0].id == "p00000"

    @pytest.mark.parametrize("shape", ((2, 39200), (5,), (2, 700, 56)))
    def test_wrong_matrix_shape_is_a_data_error(self, shape):
        with pytest.raises(DataFormatError, match="expected 39900|not \\[n, 39900\\]"):
            D.records_from_matrix(np.zeros(shape, dtype=np.float32))


class TestLoadNpyRecords:
    """``load_npy_records`` decodes a corpus file chunk by chunk into the
    records ``records_from_matrix(load_npy(path))`` gives."""

    @staticmethod
    def _corpus(rng, n, min_length=0):
        rows = []
        for i in range(n):
            length = int(rng.integers(min_length, 40))
            rows.append(source_row(rng.integers(0, 21, size=length), rng.integers(0, 8, size=length),
                                   pssm=rng.standard_normal((length, 21)).astype(np.float32),
                                   junk_seed=i))
        return np.stack(rows)

    @pytest.mark.parametrize("layout", ("flat", "rows", "float64"))
    def test_matches_the_whole_matrix_decode(self, tmp_path, rng, layout):
        n = 2 * D.NPY_CHUNK_ROWS + 3  # two full chunks and a partial one
        mat = self._corpus(rng, n)
        if layout == "flat":
            mat = mat.reshape(n, -1)
        elif layout == "float64":
            mat = mat.astype(np.float64) + rng.standard_normal(mat.shape) * 1e-3
        path = str(tmp_path / "corpus.npy")
        np.save(path, mat)
        want = D.records_from_matrix(D.load_npy(path))
        got = D.load_npy_records(path)
        assert [r.id for r in got] == [r.id for r in want] == [f"p{i:05d}" for i in range(n)]
        for a, b in zip(got, want):
            assert a.length == b.length
            for field in ("features", "labels", "mask"):
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype
                np.testing.assert_array_equal(x, y)

    def test_records_of_a_later_chunk_keep_their_file_index(self, tmp_path, rng):
        mat = self._corpus(rng, D.NPY_CHUNK_ROWS + 3)
        mat[D.NPY_CHUNK_ROWS + 2, 5, 40] = np.nan
        path = str(tmp_path / "corpus.npy")
        np.save(path, mat)
        bad = f"p{D.NPY_CHUNK_ROWS + 2:05d}"
        with pytest.raises(MalformedRecordError, match=f"record {bad}: non-finite value"):
            D.load_npy_records(path)
        rows = D.records_from_matrix(mat[D.NPY_CHUNK_ROWS:D.NPY_CHUNK_ROWS + 2], first=D.NPY_CHUNK_ROWS)
        assert [r.id for r in rows] == [f"p{D.NPY_CHUNK_ROWS + i:05d}" for i in range(2)]

    @pytest.mark.parametrize("shape", ((2, 39200), (5,), (2, 700, 56)))
    def test_wrong_matrix_shape_is_a_data_error(self, tmp_path, shape):
        path = str(tmp_path / "corpus.npy")
        np.save(path, np.zeros(shape, dtype=np.float32))
        with pytest.raises(DataFormatError, match="expected 39900|not \\[n, 39900\\]"):
            D.load_npy_records(path)

    def test_truncated_payload_is_a_data_error(self, tmp_path, rng):
        path = tmp_path / "corpus.npy"
        np.save(path, self._corpus(rng, 3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="payload is .* at offset"):
            D.load_npy_records(str(path))

    def test_corpus_loading_never_holds_the_whole_payload(self, tmp_path, rng):
        """``cli.load_records`` holds the records plus one chunk, not the
        payload beside them: the traced peak above the records' own bytes
        stays under half the payload (it was the whole payload)."""
        from chaincnn.cli import load_records

        mat = self._corpus(rng, 64, min_length=1)  # ``load_records`` rejects empty records
        np.save(tmp_path / "corpus.npy", mat)
        tracemalloc.start()
        try:
            records = load_records(str(tmp_path), "corpus")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(r.features.nbytes + r.labels.nbytes + r.mask.nbytes for r in records)
        assert peak - held < mat.nbytes / 2


class TestNormalizePssm:
    def _records_with_column(self, values, col=0):
        recs = rule_corpus(n=1, length=len(values), seed=0)
        feats = recs[0].features.copy()
        feats[: len(values), 21:] = 0.0
        feats[: len(values), 21 + col] = values
        from dataclasses import replace

        return [replace(recs[0], features=feats)]

    def test_hand_standardization(self):
        recs = self._records_with_column([1.0, 2.0, 3.0])
        with pytest.warns(RuntimeWarning):
            mean, std = D.compute_pssm_stats(recs)
        out = D.apply_pssm_stats(recs[0].features, mean, std)
        expected = 1.0 / math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(
            out[:3, 21], [-expected, 0.0, expected], rtol=1e-4, atol=1e-6
        )
        assert (mean.dtype, std.dtype) == (np.float32, np.float32)
        assert std[0] == pytest.approx(math.sqrt(2.0 / 3.0))
        np.testing.assert_array_equal(out[:, :21], recs[0].features[:, :21])

    def test_constant_column_centered_unscaled(self):
        recs = self._records_with_column([5.0, 5.0, 5.0])
        with pytest.warns(RuntimeWarning, match="constant"):
            mean, std = D.compute_pssm_stats(recs)
        assert std[0] == 1.0
        out = D.apply_pssm_stats(recs[0].features, mean, std)
        np.testing.assert_array_equal(out[:3, 21], [0.0, 0.0, 0.0])

    def test_train_stats_applied_to_validation(self, tmp_path):
        """The buffers ``_train_and_save`` writes are the training split's
        statistics, and the saved model standardizes the raw validation
        records with them."""
        from chaincnn.cli import _train_and_save, build_run_config, prepare_split
        from chaincnn.model import build
        from chaincnn.training import bind_checkpoint, load_checkpoint

        records = rule_corpus(n=6, length=10, seed=2)
        for r in records:
            r.features[:, 21:] = r.features[:, 21:] * 3 + 5
        D.save_native(records, str(tmp_path / "corpus.txt"))
        run = build_run_config({
            "fc_window": "3", "fc_layers": "1", "fc_width": "8", "lr_init": "0.0004",
            "lr_decay_factor": "0.5", "lr_decay_every": "35000", "max_iterations": "2",
            "batch_size": "2", "eval_every": "1", "n_validation": "2", "data": str(tmp_path),
        })
        out = str(tmp_path / "m.ckpt")
        assert _train_and_save(run, out) == 0
        split = prepare_split(run, run.data_dir)
        cols = np.concatenate([r.features[: r.length, 21:] for r in split.train])
        mean = cols.astype(np.float64).mean(axis=0).astype(np.float32)
        std = cols.astype(np.float64).std(axis=0).astype(np.float32)
        ckpt = load_checkpoint(out)
        np.testing.assert_array_equal(ckpt.tensors["input_norm.pssm_mean"], mean)
        np.testing.assert_array_equal(ckpt.tensors["input_norm.pssm_std"], std)

        model = build(run.model, np.random.default_rng(0))
        bind_checkpoint(ckpt, model)
        twin = build(run.model, np.random.default_rng(0))
        bind_checkpoint(ckpt, twin)
        twin.buffers["input_norm.pssm_mean"].data[...] = 0.0
        twin.buffers["input_norm.pssm_std"].data[...] = 1.0
        batch = D.make_batch(split.validation, length=10)
        hand = batch.features.copy()
        hand[..., 21:] = ((hand[..., 21:] - mean.astype(np.float64))
                          / std.astype(np.float64)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(batch.features, batch.mask).data,
                                      twin.forward(hand, batch.mask).data)

    def test_padding_stays_inert(self):
        """Padding is standardized like any position; the model's input
        mask then zeroes it, so no raw padding value reaches a real position."""
        from chaincnn.model import ModelConfig, build

        recs = self._records_with_column([1.0, 2.0, 3.0])
        with pytest.warns(RuntimeWarning):
            mean, std = D.compute_pssm_stats(recs)
        out = D.apply_pssm_stats(recs[0].features, mean, std)
        np.testing.assert_allclose(out[3:, 21], -2.0 / math.sqrt(2.0 / 3.0), rtol=1e-6)
        model = build(ModelConfig(fc_window=3, fc_layers=1,
                                  fc_width=8), np.random.default_rng(0))
        model.buffers["input_norm.pssm_mean"].data[...] = mean
        model.buffers["input_norm.pssm_std"].data[...] = std
        junk = recs[0].features.copy()
        junk[3:, 21:] = 1e4
        mask = recs[0].mask[None, :6]
        np.testing.assert_array_equal(
            model.forward(recs[0].features[None, :6], mask).data[0, :3],
            model.forward(junk[None, :6], mask).data[0, :3])

    def test_zero_records_or_positions_rejected(self):
        with pytest.raises(ParameterError, match="zero positions"):
            D.compute_pssm_stats([])
        with pytest.raises(ParameterError, match="zero positions"):
            D.compute_pssm_stats(rule_corpus(n=2, length=0))

    def test_records_not_mutated(self):
        recs = self._records_with_column([1.0, 2.0, 3.0])
        before = recs[0].features.copy()
        with pytest.warns(RuntimeWarning):
            mean, std = D.compute_pssm_stats(recs)
        D.apply_pssm_stats(recs[0].features, mean, std)
        np.testing.assert_array_equal(recs[0].features, before)


class TestSplit:
    def test_benchmark_sizes(self):
        split = D.split_records(list(range(5534)), n_val=256, seed=9)
        assert len(split.train) == 5278
        assert len(split.validation) == 256

    def test_deterministic(self):
        a = D.split_records(list(range(100)), n_val=10, seed=4)
        b = D.split_records(list(range(100)), n_val=10, seed=4)
        assert a.train == b.train and a.validation == b.validation

    def test_seed_changes_split(self):
        a = D.split_records(list(range(100)), n_val=10, seed=4)
        b = D.split_records(list(range(100)), n_val=10, seed=5)
        assert a.validation != b.validation

    def test_partition_is_exact(self):
        split = D.split_records(list(range(50)), n_val=7, seed=1)
        assert sorted(split.train + split.validation) == list(range(50))

    def test_bad_n_val(self):
        with pytest.raises(ParameterError):
            D.split_records(list(range(5)), n_val=6, seed=0)


class TestMakeBatch:
    def test_unconditioned_shapes(self):
        recs = rule_corpus(n=3, length=30, seed=0)
        batch = D.make_batch(recs)
        assert batch.features.shape == (3, 700, 42)
        assert batch.labels.shape == (3, 700)
        assert batch.mask.shape == (3, 700)
        assert batch.mask[0, :30].all() and not batch.mask[0, 30:].any()

    def test_cropped_length(self):
        recs = rule_corpus(n=2, length=30, seed=0)
        batch = D.make_batch(recs, length=32)
        assert batch.features.shape == (2, 32, 42)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            D.make_batch([])


class TestNativeFormat:
    def test_round_trip(self, tmp_path):
        recs = rule_corpus(n=3, length=12, seed=5)
        path = tmp_path / "corpus.tsv"
        D.save_native(recs, str(path))
        loaded = D.load_native(str(path))
        assert len(loaded) == 3
        for a, b in zip(recs, loaded):
            assert a.id == b.id and a.length == b.length
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.mask, b.mask)

    def test_labels_optional(self, tmp_path):
        path = tmp_path / "unlabeled.tsv"
        pssm = ",".join(["0.0"] * 21)
        path.write_text(f"q1\tAC\t\t{pssm};{pssm}\n", encoding="utf-8")
        recs = D.load_native(str(path))
        assert recs[0].labels is None and recs[0].length == 2

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ok\tA\tH\t" + ",".join(["0"] * 21) + "\nbroken line\n")
        with pytest.raises(DataFormatError, match=":2"):
            D.load_native(str(path))

    def test_unknown_residue_letter(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("r\tZ\tH\t" + ",".join(["0"] * 21) + "\n")
        with pytest.raises(DataFormatError, match="'Z'"):
            D.load_native(str(path))

    def test_pssm_row_mismatch(self, tmp_path):
        path = tmp_path / "bad3.tsv"
        row = ",".join(["0"] * 21)
        path.write_text(f"r\tACE\tHEL\t{row};{row}\n")
        with pytest.raises(DataFormatError, match="PSSM"):
            D.load_native(str(path))

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_pssm_value(self, tmp_path, value):
        path = tmp_path / "bad5.tsv"
        row = ",".join(["0"] * 21)
        bad = ",".join(["0"] * 4 + [value] + ["0"] * 16)
        path.write_text(f"ok\tA\tH\t{row}\nr\tACE\tHEL\t{row};{row};{bad}\n")
        with pytest.raises(DataFormatError,
                           match=":2: record r: non-finite PSSM value .* position 2, PSSM column 4$"):
            D.load_native(str(path))

    def test_bad_float(self, tmp_path):
        path = tmp_path / "bad4.tsv"
        row = ",".join(["0"] * 20 + ["oops"])
        path.write_text(f"r\tA\tH\t{row}\n")
        with pytest.raises(DataFormatError, match=":1"):
            D.load_native(str(path))

    def test_label_string_round_trip(self):
        labels = np.array([5, 2, 0, 7, 1])
        assert D.labels_to_string(labels) == "HELTB"
        np.testing.assert_array_equal(D.string_to_labels("HELTB"), labels)

    def test_noseq_not_renderable(self):
        with pytest.raises(ParameterError):
            D.labels_to_string(np.array([8]))
