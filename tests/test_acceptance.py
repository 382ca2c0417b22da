"""Whole-system acceptance battery.

Each test covers one acceptance criterion and prints exactly one
PASS/FAIL summary line (run with ``pytest tests/test_acceptance.py -v -s``
to see them). The last test trains on a real downloaded corpus for many
CPU-hours; it skips itself unless $CHAINCNN_CULLPDB names a data
directory holding corpus.npy or corpus.txt.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

import chaincnn.tensor as T
from chaincnn.cli import main
from chaincnn.data import (
    DatasetSplit,
    load_npy,
    record_from_parts,
    save_native,
)
from chaincnn.errors import CheckpointError, DataFormatError
from chaincnn.inference import Ensemble, beam_search, decode_independent, sequence_log_prob
from chaincnn.metrics import confusion_matrix, precision_recall, q8
from chaincnn.model import build
from chaincnn.training import (
    TrainConfig,
    bind_checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    lr_at,
    sampling_rate_at,
    save_checkpoint,
    train,
)
from corpus import rule_corpus, shipped_model
from gradcheck import away_from_kinks, check_grad
from test_inference import brute_force_decode, greedy_decode
from test_model import small_config

FULL_DATA_ENV = "CHAINCNN_CULLPDB"


def _report(index, name, ok, detail):
    line = f"acceptance {index}/10 {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient suite


def _grad_instance(op, rng):
    """One randomized (fn, arrays) pair for a differentiable op."""
    b = int(rng.integers(1, 3))
    length = int(rng.integers(2, 6))
    c = int(rng.integers(1, 4))

    if op == "conv1d":
        width = int(rng.choice([1, 3, 5]))
        out_c = int(rng.integers(1, 4))
        return (
            lambda ts: T.conv1d(*ts),
            [rng.standard_normal((b, length, c)),
             rng.standard_normal((width, c, out_c)),
             rng.standard_normal(out_c)],
        )
    if op == "dense":
        m = int(rng.integers(1, 5))
        return (
            lambda ts: T.dense(*ts),
            [rng.standard_normal((b, length, c)),
             rng.standard_normal((c, m)),
             rng.standard_normal(m)],
        )
    if op == "batch_norm":
        mask = np.ones((b, length), dtype=np.float32)
        if length > 2:
            mask[-1, -1] = 0.0

        def fn(ts):
            params = T.LayerParams(
                "bn", ts[1], ts[2],
                extra={
                    "running_mean": T.Tensor(np.zeros(c, dtype=np.float32), requires_grad=False),
                    "running_var": T.Tensor(np.ones(c, dtype=np.float32), requires_grad=False),
                },
            )
            return T.batch_norm(ts[0], mask, params, train=True)

        return fn, [rng.standard_normal((b, length, c)),
                    1.0 + 0.3 * rng.standard_normal(c),
                    rng.standard_normal(c)]
    if op == "relu":
        return (lambda ts: T.relu(ts[0]),
                [away_from_kinks(rng.standard_normal((b, length, c)))])
    if op == "apply_mask":
        mask = (rng.random((b, length)) > 0.4).astype(np.float32)
        return (lambda ts: T.apply_mask(ts[0], mask),
                [rng.standard_normal((b, length, c))])
    if op == "concat_channels":
        c2 = int(rng.integers(1, 4))
        return (lambda ts: T.concat_channels(list(ts)),
                [rng.standard_normal((b, length, c)),
                 rng.standard_normal((b, length, c2))])
    if op == "gather_windows":
        width = int(rng.choice([1, 3, 5]))
        return (lambda ts: T.gather_windows(ts[0], width),
                [rng.standard_normal((b, length, c))])
    if op == "dropout":
        mask_seed = int(rng.integers(0, 2**31))
        rate = float(rng.choice([0.25, 0.5]))
        return (lambda ts: T.dropout(ts[0], rate, True, np.random.default_rng(mask_seed)),
                [rng.standard_normal((b, length, c))])
    if op == "softmax_cross_entropy":
        k = int(rng.integers(3, 10))
        labels = rng.integers(0, k, size=(b, length))
        mask = (rng.random((b, length)) > 0.3).astype(np.float32)
        mask[0, 0] = 1.0
        return (lambda ts: T.softmax_cross_entropy(ts[0], labels, mask),
                [rng.standard_normal((b, length, k))])
    raise AssertionError(op)


GRAD_OPS = (
    "conv1d", "dense", "batch_norm", "relu", "apply_mask",
    "concat_channels", "gather_windows", "dropout", "softmax_cross_entropy",
)


def test_01_gradient_suite():
    start = time.time()
    instances_per_op = 20
    worst = 0.0
    for op in GRAD_OPS:
        for seed in range(instances_per_op):
            fn, arrays = _grad_instance(op, np.random.default_rng(1000 * seed + 17))
            arrays = [np.asarray(a, dtype=np.float32) for a in arrays]
            worst = max(worst, check_grad(fn, arrays, tol=1e-3, seed=seed))
    elapsed = time.time() - start
    _report(
        1, "gradient suite",
        worst < 1e-3 and elapsed < 60.0,
        f"{len(GRAD_OPS)} ops x {instances_per_op} instances, "
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. overfit oracle


def test_02_overfit_final_architecture():
    start = time.time()
    records = rule_corpus(n=8, length=30, seed=0)
    split = DatasetSplit(train=records, validation=records, test=(), seed=0)
    model = build(shipped_model("ablation_row9"), np.random.default_rng(0))
    config = TrainConfig(
        lr_init=2e-3, lr_decay_factor=0.5, lr_decay_every=10**6,
        max_iterations=3000, batch_size=8, eval_every=100, patience=1000,
        seed=0, log_every=10**6, target_q8=0.99,
    )
    ckpt = train(model, split, config)
    elapsed = time.time() - start
    _report(
        2, "overfit oracle",
        ckpt.best_validation_q8 >= 0.99 and ckpt.iteration <= 3000 and elapsed < 600.0,
        f"train q8 {ckpt.best_validation_q8:.4f} at iteration {ckpt.iteration}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. beam-search exactness


def test_03_beam_search_exactness():
    start = time.time()
    ensemble = Ensemble((build(small_config(conditioned=True), np.random.default_rng(7)),))

    exact = 0
    for record in rule_corpus(n=10, length=4, seed=3):
        wide = beam_search(ensemble, record, beam_width=4096)
        brute, _ = brute_force_decode(ensemble.members, record)
        assert np.array_equal(wide, brute)
        exact += 1

    # all-tie degenerate case: a zero-weight model scores every sequence
    # equally, so both searches must settle on the lexicographic minimum
    flat = build(small_config(conditioned=True), np.random.default_rng(8))
    for t in flat.trainable().values():
        t.data[...] = 0.0
    record = rule_corpus(n=1, length=4, seed=4)[0]
    wide = beam_search(Ensemble((flat,)), record, beam_width=4096)
    brute, _ = brute_force_decode((flat,), record)
    assert np.array_equal(wide, brute) and not wide.any()
    exact += 1

    worst_margin = math.inf
    for record in rule_corpus(n=100, length=4, seed=11):
        beam = sequence_log_prob(ensemble, record, beam_search(ensemble, record, beam_width=8))
        greedy = sequence_log_prob(ensemble, record, greedy_decode(ensemble.members, record))
        worst_margin = min(worst_margin, beam - greedy)
    elapsed = time.time() - start
    _report(
        3, "beam-search exactness",
        worst_margin >= 0.0 and elapsed < 60.0,
        f"{exact} exhaustive matches, beam8-greedy margin >= {worst_margin:.3e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. receptive field and causality


def test_04_receptive_field_and_causality():
    start = time.time()
    length, crop = 120, 140
    record = rule_corpus(n=1, length=length, seed=21)[0]
    feats = record.features[:crop]
    mask = record.mask[:crop].astype(np.float32)
    rng = np.random.default_rng(0)

    plain = build(shipped_model("ablation_row9"), np.random.default_rng(1))
    rf = plain.receptive_field()
    assert (rf.width, rf.radius, rf.conditioning_shift) == (43, 21, 22)
    base = plain.forward(feats[None], mask[None]).data
    occlusion_ok = 0
    for _ in range(100):
        q = int(rng.integers(0, length))
        far = [p for p in range(length) if abs(p - q) > rf.radius]
        p = int(rng.choice(far))
        noisy = feats.copy()
        noisy[p] = rng.standard_normal(42).astype(np.float32)
        out = plain.forward(noisy[None], mask[None]).data
        occlusion_ok += (out[0, q] == base[0, q]).all()

    cond = build(shipped_model("chained"), np.random.default_rng(2))
    context = record.labels[:crop]  # no-seq past the record's end
    base = cond.forward(feats[None], mask[None], cond.label_context(context[None])).data
    causality_ok = 0
    for _ in range(100):
        i = int(rng.integers(0, length))
        future = context.copy()
        future[i:length] = rng.integers(0, 8, size=length - i)
        out = cond.forward(feats[None], mask[None], cond.label_context(future[None])).data
        causality_ok += (out[0, i] == base[0, i]).all()

    elapsed = time.time() - start
    _report(
        4, "receptive field and causality",
        occlusion_ok == 100 and causality_ok == 100,
        f"occlusion {occlusion_ok}/100 bit-identical, "
        f"future labels {causality_ok}/100 bit-identical, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. schedule closed forms


def test_05_schedule_closed_forms():
    fc = TrainConfig(lr_init=4e-4, lr_decay_factor=0.5, lr_decay_every=35000,
                     max_iterations=1)
    conv = TrainConfig(lr_init=3.357e-4, lr_decay_factor=0.4, lr_decay_every=200000,
                       max_iterations=1)
    rng = np.random.default_rng(5)
    checked = 0
    for s in rng.integers(0, 3_000_000, size=1000):
        s = int(s)
        assert lr_at(s, fc) == 4e-4 * 0.5 ** (s // 35000)
        assert lr_at(s, conv) == 3.357e-4 * 0.4 ** (s // 200000)
        checked += 1
    samp = TrainConfig(lr_init=1.0, lr_decay_factor=0.5, lr_decay_every=1,
                       max_iterations=1, sampling_rate_init=0.4,
                       sampling_rate_increment=0.1, sampling_rate_every=750000)
    for s in rng.integers(0, 30_000_000, size=1000):
        s = int(s)
        assert sampling_rate_at(s, samp) == min(1.0, 0.4 + 0.1 * (s // 750000))
        checked += 1
    _report(5, "schedule closed forms", True, f"{checked} sampled steps, all exact")


# ---------------------------------------------------------------------------
# 6. ensemble identities


def test_06_ensemble_identities():
    records = rule_corpus(n=6, length=25, seed=6)
    checks = 0

    plain = [build(small_config(), np.random.default_rng(s)) for s in (3, 5, 6)]
    cond = [build(small_config(conditioned=True), np.random.default_rng(s)) for s in (4, 8, 9)]
    for r in records:
        single = decode_independent(Ensemble((plain[0],)), r)
        assert np.array_equal(decode_independent(Ensemble((plain[0],) * 3), r), single)
        single = beam_search(Ensemble((cond[0],)), r, beam_width=8)
        assert np.array_equal(beam_search(Ensemble((cond[0],) * 3), r, beam_width=8), single)
        checks += 2

    forward = Ensemble(tuple(plain))
    backward = Ensemble(tuple(reversed(plain)))
    cond_fwd = Ensemble(tuple(cond))
    cond_bwd = Ensemble((cond[2], cond[0], cond[1]))
    for r in records:
        assert np.array_equal(decode_independent(forward, r), decode_independent(backward, r))
        assert np.array_equal(beam_search(cond_fwd, r, beam_width=8),
                              beam_search(cond_bwd, r, beam_width=8))
        checks += 2
    _report(6, "ensemble identities", True,
            f"{checks} identity checks over {len(records)} records, both modes")


# ---------------------------------------------------------------------------
# 7. metrics oracle


def test_07_metrics_oracle():
    # hand fixture: 10 real residues across two records, 7 correct
    rec_a = record_from_parts("a", "ACDEGH", "LBEGIH", np.zeros((6, 21), dtype=np.float32))
    rec_b = record_from_parts("b", "KMLN", "STHH", np.zeros((4, 21), dtype=np.float32))
    preds = [
        np.array([0, 1, 2, 3, 5, 5]),  # position 4: I predicted as H
        np.array([6, 6, 5, 2]),        # T predicted as S, last H as E
    ]
    value = q8(preds, [rec_a, rec_b])
    assert abs(value - 0.7) < 1e-12

    cm = confusion_matrix(preds, [rec_a, rec_b])
    assert cm.sum() == 10 and np.trace(cm) == 7
    per_class = {c.letter: c for c in precision_recall(cm)}
    # hand counts: S predicted twice (the true S plus the mislabeled T),
    # one correct; H predicted three times (true I plus two true H)
    assert abs(per_class["S"].precision - 0.5) < 1e-12
    assert per_class["S"].recall == 1.0
    assert abs(per_class["H"].precision - 2 / 3) < 1e-12
    assert abs(per_class["H"].recall - 2 / 3) < 1e-12
    assert per_class["I"].recall == 0.0

    # micro-averaged recall must reproduce q8 exactly
    row_totals = cm.sum(axis=1)
    micro = math.fsum(
        (cm[i, i] / row_totals[i]) * (row_totals[i] / cm.sum())
        for i in range(8) if row_totals[i]
    )
    assert abs(micro - value) < 1e-12

    # padding inertness: garbage beyond each record's length changes nothing
    longer = [np.concatenate([p, np.full(5, 7)]) for p in preds]
    assert q8(longer, [rec_a, rec_b]) == value
    assert np.array_equal(confusion_matrix(longer, [rec_a, rec_b]), cm)
    _report(7, "metrics oracle", True,
            "q8 7/10, per-class precision/recall, micro recall == q8, padding inert")


# ---------------------------------------------------------------------------
# 8. determinism


DETERMINISM_CFG = """\
fc_window = 3
fc_layers = 1
fc_width = 16
blocks = 3x8
dropout_rate = 0.1
fc_max_norm = 10.0
lr_init = 0.005
lr_decay_factor = 0.5
lr_decay_every = 1000000
max_iterations = 500
batch_size = 8
eval_every = 100
patience = 1000
log_every = 1000000
n_validation = 4
seed = 9
"""


def test_08_end_to_end_determinism(tmp_path, capsys):
    start = time.time()
    data = tmp_path / "data"
    data.mkdir()
    save_native(rule_corpus(n=16, length=30, seed=0), str(data / "corpus.txt"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DETERMINISM_CFG)

    blobs, reports = [], []
    for name in ("a", "b"):
        out = str(tmp_path / f"{name}.ckpt")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", str(data), "--raw"]) == 0
        reports.append(capsys.readouterr().out)
        with open(out, "rb") as fh:
            blobs.append(fh.read())

    elapsed = time.time() - start
    with capsys.disabled():
        _report(
            8, "determinism",
            blobs[0] == blobs[1] and reports[0] == reports[1],
            f"500-iteration runs byte-identical "
            f"({len(blobs[0])}-byte checkpoints), reports identical, {elapsed:.1f}s",
        )


# ---------------------------------------------------------------------------
# 9. format round trips


def test_09_format_round_trips(tmp_path):
    cases = 0
    arrays = [
        np.random.default_rng(0).standard_normal(7).astype(np.float32),
        np.random.default_rng(1).standard_normal((3, 5)).astype(np.float32),
        np.random.default_rng(2).standard_normal((2, 3, 4)).astype(np.float32),
    ]
    for i, arr in enumerate(arrays):
        path = str(tmp_path / f"arr{i}.npy")
        np.save(path, arr)
        loaded = load_npy(path)
        assert loaded.dtype == np.float32
        assert arr.tobytes() == loaded.tobytes()
        cases += 1
    double = np.random.default_rng(3).standard_normal((4, 6))
    np.save(str(tmp_path / "f64.npy"), double)
    assert np.array_equal(load_npy(str(tmp_path / "f64.npy")),
                          double.astype(np.float32))
    cases += 1

    good = open(str(tmp_path / "arr1.npy"), "rb").read()
    for label, blob in (
        ("bad magic", b"\x00" + good[1:]),
        ("bad version", good[:6] + b"\x09" + good[7:]),
        ("truncated payload", good[:-3]),
    ):
        path = str(tmp_path / "corrupt.npy")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(DataFormatError):
            load_npy(path)
        cases += 1

    model = build(small_config(conditioned=True), np.random.default_rng(12))
    adam = T.AdamState.for_params(model.trainable())
    for k in adam.first_moment:
        adam.first_moment[k] += 0.25
        adam.second_moment[k] += 0.5
    adam.step = 17
    ckpt = checkpoint_from_model(model, adam=adam, iteration=17, best_validation_q8=0.625)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(ckpt, path)
    reread = load_checkpoint(path)
    twin = build(small_config(conditioned=True), np.random.default_rng(99))
    twin_adam = T.AdamState.for_params(twin.trainable())
    bind_checkpoint(reread, twin, adam=twin_adam)
    for name, tensor in model.named_tensors().items():
        assert tensor.data.tobytes() == twin.named_tensors()[name].data.tobytes()
        cases += 1
    assert all(np.array_equal(adam.first_moment[k], twin_adam.first_moment[k])
               for k in adam.first_moment)
    assert reread.iteration == 17 and reread.best_validation_q8 == 0.625
    assert twin_adam.step == 17

    good = open(path, "rb").read()
    for label, blob in (
        ("bad magic", b"XXXX" + good[4:]),
        ("truncated", good[:30]),
        ("trailing byte", good + b"\x00"),
    ):
        with open(str(tmp_path / "corrupt.ckpt"), "wb") as fh:
            fh.write(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "corrupt.ckpt"))
        cases += 1

    _report(9, "format round trips", True,
            f"{cases} bit-exact round-trip and corruption cases")


# ---------------------------------------------------------------------------
# 10. full-data smoke (optional tier)


@pytest.mark.skipif(
    not os.environ.get(FULL_DATA_ENV),
    reason=f"full-data tier: set {FULL_DATA_ENV} to a directory with corpus.npy",
)
def test_10_full_data_smoke(tmp_path, capsys):
    start = time.time()
    out = str(tmp_path / "row9.ckpt")
    code = main([
        "train", "--config", "ablation_row9",
        "--data", os.environ[FULL_DATA_ENV],
        "--out", out, "--seed", "0",
        "--set", "max_iterations=50000",
    ])
    assert code == 0
    best = load_checkpoint(out).best_validation_q8
    elapsed = time.time() - start
    with capsys.disabled():
        _report(10, "full-data smoke", best > 0.60,
                f"validation q8 {best:.4f} after <=50k iterations, {elapsed:.0f}s")
