"""Deterministic training loop: Adam with stepped learning-rate decay,
scheduled sampling for conditioned models, max-norm projection on the
fully connected layers, early stopping on validation Q8, and binary
checkpoint persistence.
"""

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

import chaincnn.tensor as T
from .data import NOSEQ_CLASS, NUM_REAL_CLASSES, Batch, DatasetSplit, make_batch
from .errors import CheckpointError, NonFiniteError, ParameterError
from .inference import decode_records, worker_threads
from .metrics import q8 as metrics_q8
from .model import Model, Stepper

CHECKPOINT_MAGIC = b"CCNN"
CHECKPOINT_VERSION = 1
RERANK_SNAPSHOTS = 3

@dataclass(frozen=True)
class TrainConfig:
    lr_init: float
    lr_decay_factor: float
    lr_decay_every: int
    max_iterations: int
    batch_size: int = 50
    sampling_rate_init: float = 0.4
    sampling_rate_increment: float = 0.1
    sampling_rate_every: int = 750000
    eval_every: int = 1000
    patience: int = 10
    seed: int = 0
    log_every: int = 100
    # optional early exit once ``evaluate_q8`` reaches a target (None = off);
    # for a conditioned model that is teacher-forced Q8, which can read high
    # long before beam-search Q8 does
    target_q8: float | None = None

    def validate(self) -> None:
        if not 0 < self.lr_init < math.inf:  # also rejects nan
            raise ParameterError(f"lr_init must be finite and positive, got {self.lr_init}")
        if not 0 < self.lr_decay_factor < 1:
            raise ParameterError(
                f"lr_decay_factor must lie in (0, 1), got {self.lr_decay_factor}"
            )
        for name in ("lr_decay_every", "max_iterations", "batch_size",
                     "eval_every", "sampling_rate_every", "log_every"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("patience", "seed"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.sampling_rate_init <= 1.0:
            raise ParameterError(
                f"sampling_rate_init must lie in [0, 1], got {self.sampling_rate_init}"
            )
        if not 0 <= self.sampling_rate_increment < math.inf:
            raise ParameterError(
                "sampling_rate_increment must be finite and >= 0, "
                f"got {self.sampling_rate_increment}"
            )
        if self.target_q8 is not None and not 0.0 < self.target_q8 <= 1.0:
            raise ParameterError(f"target_q8 must lie in (0, 1], got {self.target_q8}")


def lr_at(step: int, config: TrainConfig) -> float:
    """Stepped exponential decay: lr_init * factor^(step // every)."""
    if step < 0:
        raise ParameterError(f"step must be >= 0, got {step}")
    return config.lr_init * config.lr_decay_factor ** (step // config.lr_decay_every)


def sampling_rate_at(step: int, config: TrainConfig) -> float:
    """Stepped sampling-rate ramp, clamped to [0, 1]."""
    if step < 0:
        raise ParameterError(f"step must be >= 0, got {step}")
    rate = config.sampling_rate_init + config.sampling_rate_increment * (
        step // config.sampling_rate_every
    )
    return min(1.0, max(0.0, rate))


def scheduled_sampling_pass(model, batch: Batch, rate: float, rng) -> np.ndarray:
    """Mix the ground-truth labels of ``batch``, the step's ``make_batch``
    output, with the model's own samples at ``rate``; returns the mixed
    [batch, length] int64 labels, no-seq at padding, for
    ``model.label_context``.

    Walks the rows left to right together; at position i the model scores
    every row conditioned on its already-mixed label y[i-1], a label is
    drawn from the renormalized 8-class softmax for each row still inside
    its record, and the label becomes the draw with probability ``rate``,
    else the ground truth. One ``model.Stepper`` over ``batch.features``
    scores each position with one new column per layer; its scores equal
    ``inference.step_scores`` bit for bit. ``rate`` 0 short-circuits to the
    ground truth without evaluating the model.
    """
    if not 0.0 <= rate <= 1.0:
        raise ParameterError(f"sampling rate must lie in [0, 1], got {rate}")
    if batch.labels is None:
        raise ParameterError("the batch has no labels to sample against")
    mixed = np.where(batch.mask > 0, batch.labels, NOSEQ_CLASS).astype(np.int64)
    if rate == 0.0:
        return mixed
    lengths = np.count_nonzero(batch.mask, axis=1)
    stepper = Stepper(model, batch.features, batch.mask)
    previous = np.full(len(mixed), NOSEQ_CLASS, dtype=np.int64)
    for i in range(lengths.max(initial=0)):
        scores = stepper.push(previous)
        rows = np.flatnonzero(lengths > i)
        s8 = scores[rows, :NUM_REAL_CLASSES]
        probs = np.exp(s8 - s8.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        cdf[:, -1] = 1.0
        draws = (rng.random(len(rows))[:, None] > cdf).sum(axis=1)
        mix = rng.random(len(rows)) < rate
        mixed[rows[mix], i] = draws[mix]
        previous = mixed[:, i]
    return mixed


def evaluate_q8(model, records) -> float:
    """Validation Q8 of per-position argmax predictions, one record per
    forward in infer mode, counted by ``metrics.q8``. The records decode on
    the cores BLAS leaves idle; the value does not depend on how many.

    An unconditioned model decodes through ``inference.decode_records``. A
    conditioned one is scored teacher-forced, with ``model.label_context``
    of the record's ground-truth labels as context, on its own
    ``worker_threads`` context: the cheap next-step accuracy that early
    stopping watches.
    """
    if not model.config.conditioned:
        return metrics_q8(decode_records(model, records), records)

    def teacher_forced(r):
        batch = make_batch([r], length=max(r.length, 1))
        logits = model.forward(batch.features, batch.mask, model.label_context(batch.labels))
        return logits.data[0, : r.length, :NUM_REAL_CLASSES].argmax(axis=1)

    with worker_threads() as each:
        return metrics_q8(each(teacher_forced, records), records)


def beam_q8(model, records) -> float:
    """Validation Q8 under full beam-search decoding at the default width,
    the records decoded through ``inference.decode_records``."""
    return metrics_q8(decode_records(model, records), records)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    """Snapshot of every named tensor plus optimizer moments.

    ``tensors`` maps tensor names to float32 arrays; Adam moments ride along
    under ``adam.m.<param>`` / ``adam.v.<param>``. ``best_validation_q8`` is
    the metric that selected this snapshot.
    """

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    iteration: int = 0
    best_validation_q8: float = float("nan")


def checkpoint_from_model(model, adam=None, iteration: int = 0,
                          best_validation_q8: float = float("nan")) -> Checkpoint:
    tensors = {name: t.data.copy() for name, t in model.named_tensors().items()}
    if adam is not None:
        for name, m in adam.first_moment.items():
            tensors[f"adam.m.{name}"] = m.copy()
        for name, v in adam.second_moment.items():
            tensors[f"adam.v.{name}"] = v.copy()
    return Checkpoint(tensors, iteration, best_validation_q8)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary format: magic, version, tensor count, named float32 tensors
    (sorted by name), then the iteration counter and best validation Q8.
    All integers little-endian. The file is replaced atomically; each
    tensor streams into it from its own array, so saving holds no second
    copy of the checkpoint.
    """

    def chunks():
        yield CHECKPOINT_MAGIC
        yield struct.pack("<II", CHECKPOINT_VERSION, len(ckpt.tensors))
        for name in sorted(ckpt.tensors):
            arr = np.asarray(ckpt.tensors[name])
            if arr.dtype != np.float32:
                raise CheckpointError(f"tensor {name!r} is {arr.dtype}, only float32 is storable")
            encoded = name.encode("utf-8")
            yield struct.pack("<H", len(encoded))
            yield encoded
            yield struct.pack("<BB", 0, arr.ndim)
            yield struct.pack(f"<{arr.ndim}Q", *arr.shape)
            yield np.ascontiguousarray(arr, dtype="<f4")
        yield struct.pack("<Qd", ckpt.iteration, ckpt.best_validation_q8)

    write_atomic(path, chunks())


def write_atomic(path, chunks) -> None:
    """Write the bytes-like ``chunks``, in order, to ``path`` through a
    temporary file in the same directory and ``os.replace``, so a process
    that dies mid-write leaves the previous file whole. A write that
    raises, in ``chunks`` or in the file, removes its temporary."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(data):
            raise CheckpointError(f"{path}: truncated reading {what} at byte {offset}")
        chunk = data[offset : offset + n]
        offset += n
        return chunk

    magic = take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        raw_name = take(name_len, "tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: tensor name at byte {offset - name_len} "
                                  f"is not UTF-8: {err}") from err
        dtype_code, ndim = struct.unpack("<BB", take(2, "dtype/ndim"))
        if dtype_code != 0:
            raise CheckpointError(f"{path}: unknown dtype code {dtype_code} for {name!r}")
        dims = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"dims of {name!r}"))
        n_items = 1
        for d in dims:
            n_items *= d
        payload = take(4 * n_items, f"payload of {name!r}")
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    iteration, best = struct.unpack("<Qd", take(16, "trailer"))
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return Checkpoint(tensors, int(iteration), float(best))


def bind_checkpoint(ckpt: Checkpoint, model, adam=None) -> None:
    """Copy checkpoint values into a built model (and optimizer) in place.

    The checkpoint's tensor names must match the model's exactly, every
    tensor bound to the model must have its shape and only finite entries,
    and ``input_norm.pssm_std`` must be finite and positive, because every
    forward divides its input by it. Adam moments are restored when
    ``adam`` is given, with its step counter set to the checkpoint iteration.
    """
    stored = {n for n in ckpt.tensors if not n.startswith(("adam.m.", "adam.v."))}
    expected = model.named_tensors()
    if stored != set(expected):
        missing = sorted(set(expected) - stored)
        surplus = sorted(stored - set(expected))
        raise CheckpointError(
            f"parameter names do not match the model: missing {missing}, unexpected {surplus}"
        )
    std = ckpt.tensors["input_norm.pssm_std"]
    if not (np.isfinite(std) & (std > 0)).all():
        raise CheckpointError("tensor 'input_norm.pssm_std' has an entry that is not "
                              "finite and positive")
    for name, tensor in expected.items():
        arr = ckpt.tensors[name]
        if arr.shape != tensor.data.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {arr.shape}, model expects {tensor.data.shape}"
            )
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name!r} has a non-finite entry")
        np.copyto(tensor.data, arr)
    if adam is not None:
        for name, buf in adam.first_moment.items():
            for prefix, store in (("adam.m.", adam.first_moment),
                                  ("adam.v.", adam.second_moment)):
                key = prefix + name
                if key not in ckpt.tensors:
                    raise CheckpointError(f"checkpoint carries no {key!r}")
                np.copyto(store[name], ckpt.tensors[key])
        adam.step = ckpt.iteration


# ---------------------------------------------------------------------------
# the loop


def train(model: Model, data: DatasetSplit, config: TrainConfig, log=None) -> Checkpoint:
    """Run the training loop and return the best checkpoint by validation Q8.

    Early stopping runs ``evaluate_q8`` every ``eval_every`` steps
    (teacher-forced next-step Q8 for conditioned models) and stops after
    more than ``patience`` consecutive non-improving evaluations. For
    conditioned models the final pick re-scores the last three improving
    snapshots with full beam-search Q8 on the validation set. The model is
    left holding the returned checkpoint's weights.
    """
    config.validate()
    if not data.train:
        raise ParameterError("no training records")
    if not data.validation:
        raise ParameterError("no validation records for early stopping")
    rng = np.random.default_rng(config.seed)
    params = model.trainable()
    adam = T.AdamState.for_params(params)
    conditioned = model.config.conditioned

    snapshots: list[Checkpoint] = []
    best = float("-inf")
    stale_evals = 0
    for step in range(config.max_iterations):
        idx = rng.integers(0, len(data.train), size=config.batch_size)
        records = [data.train[i] for i in idx]
        batch = make_batch(records, length=max(r.length for r in records))
        rate = sampling_rate_at(step, config) if conditioned else 0.0
        context = None
        if conditioned:
            context = model.label_context(scheduled_sampling_pass(model, batch, rate, rng))
        for t in params.values():
            t.grad = None
        lr = lr_at(step, config)
        try:  # batch norm, the loss and Adam each reject a non-finite value
            logits = model.forward(batch.features, batch.mask, context, train=True, rng=rng)
            loss = T.softmax_cross_entropy(logits, batch.labels, batch.mask)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise NonFiniteError("non-finite loss")
            loss.backward()
            T.adam_update(params, adam, lr)
        except NonFiniteError as err:
            ids = ",".join(r.id for r in records[:8])
            raise NonFiniteError(f"step {step} (batch {ids}, ...): {err}") from err
        for lp in model.dense_layers():
            lp.weights.data = T.max_norm_project(lp.weights.data, model.config.fc_max_norm)

        iteration = step + 1
        if log is not None and iteration % config.log_every == 0:
            log(f"iter={iteration} loss={loss_value:.6f} lr={lr:.6e} rate={rate:.3f}")
        if iteration % config.eval_every == 0 or iteration == config.max_iterations:
            val_q8 = evaluate_q8(model, data.validation)
            if val_q8 > best:
                best = val_q8
                stale_evals = 0
                snapshots.append(checkpoint_from_model(model, adam, iteration, val_q8))
                del snapshots[:-RERANK_SNAPSHOTS]
            else:
                stale_evals += 1
            if log is not None:
                log(f"iter={iteration} val_q8={val_q8:.6f} best={best:.6f}")
            if config.target_q8 is not None and best >= config.target_q8:
                break
            if stale_evals > config.patience:
                break

    winner = snapshots[-1]
    if conditioned:
        ranked = []
        for cand in snapshots:
            bind_checkpoint(cand, model)
            score = beam_q8(model, data.validation)
            ranked.append((score, cand.best_validation_q8, -cand.iteration, cand))
            if log is not None:
                log(f"rerank iter={cand.iteration} beam_q8={score:.6f}")
        score, _, _, winner = max(ranked, key=lambda r: r[:3])
        winner = Checkpoint(winner.tensors, winner.iteration, score)
    bind_checkpoint(winner, model)
    return winner
