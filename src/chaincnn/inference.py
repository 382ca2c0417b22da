"""Decoding: independent argmax, width-8 beam search, and log-prob ensembles.

Beam search scores position i through ``step_scores``: each (record,
label context) row becomes the receptive-field window around i, and
``Model.forward_window`` scores the stacked windows. Nothing outside the
window can reach the center logit, so this equals the full forward at i.
``forward_window`` computes only that center: the conv trunk runs as a
valid-convolution pyramid that narrows to the fc_window columns the head
reads, and the head runs once per window. Its kernels pad and block rows
(``model._row_blocks`` says why), so for the shipped configs, at every
batch size, the tests check the scores bit-identical to the full forward's;
other shapes can differ in the last bits.
Rescoring (``sequence_log_prob``) and scheduled sampling do not score
here: ``model.Stepper`` steps a whole batch with one new column per layer
per position, and the tests check its scores equal to this window path's,
so a rescored sequence totals exactly what beam search accumulated for it.
Ensembles average the members' log probabilities per class.

``decode_records`` decodes every record set (``eval``, ``predict``,
validation, snapshot re-ranking) on the cores BLAS leaves idle
(``idle_cores``) through one thread pool, ``worker_threads``: each call of
its ``each`` takes the next item from one shared counter, and the results
come back in item order. The records run through ``each``, and each record
runs its ensemble members through the same ``each`` (at every beam position
and in ``decode_independent``): a call borrows only the pool threads free
at its start, so records and members together never outnumber the idle
cores, and the threads of finished records score the members of the rest.
Every member makes the BLAS calls it makes alone and the mean does not
depend on member order, so the labels do not depend on any thread count.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import NOSEQ_CLASS, NUM_REAL_CLASSES, ProteinRecord, make_batch
from .errors import ModeError, ParameterError
from .model import Model, Stepper
from .tensor import log_softmax

DEFAULT_BEAM_WIDTH = 8


@dataclass(frozen=True)
class Ensemble:
    """Independently trained models decoded jointly; configs must agree."""

    members: tuple[Model, ...]

    def __post_init__(self):
        if not self.members:
            raise ParameterError("an ensemble needs at least one member")
        first = self.members[0].config
        if any(m.config != first for m in self.members[1:]):  # conditioning mode included
            raise ModeError("ensemble members must share one architecture")


def idle_cores() -> int:
    """Threads decoding may run on without crowding BLAS: ``cores // blas_threads``.

    At least 1: ``cores`` is this process's CPU affinity (else
    ``os.cpu_count()``), and ``blas_threads`` the first positive integer in
    ``$OPENBLAS_NUM_THREADS``, then ``$OMP_NUM_THREADS``, else ``cores``. So
    an unpinned BLAS, which already runs one matmul on every core, leaves
    one: decode threads beside BLAS threads on the same cores oversubscribe
    them and run slower.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    blas_threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:  # unset, or not an integer
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, cores // blas_threads)


def _in_turn(fn, items) -> list:
    return [fn(x) for x in items]


@contextmanager
def worker_threads():
    """Yield ``each(fn, items)``: ``[fn(x) for x in items]`` on ``idle_cores()`` threads.

    The calling thread works, beside the pool threads free when the call
    starts, at most ``len(items) - 1`` of them; each takes the next item
    index from one shared counter and returns to the pool when no item is
    left. ``fn`` may call ``each`` again, as a record scoring its members
    does; that call borrows only threads no other call holds, and with none
    free it is the serial loop, so the threads never outnumber
    ``idle_cores()`` and no call waits for a busy thread. The pool threads
    start at the first call that borrows one, serve every later call in the
    context, and are joined when it exits. The results come back in item
    order. After an item raises (``KeyboardInterrupt`` too) no new item of
    that call starts, the items in flight finish, and the exception of the
    lowest failing index is raised: the one the serial loop would raise.
    """
    free = idle_cores() - 1
    budget = threading.Lock()
    pool = ThreadPoolExecutor(max(free, 1), thread_name_prefix="decode")

    def each(fn, items):
        nonlocal free
        results = [None] * len(items)
        failures = {}
        lock = threading.Lock()
        claimed = 0

        def work():
            nonlocal claimed
            while True:
                with lock:
                    if failures or claimed == len(items):
                        return
                    i = claimed
                    claimed += 1
                try:
                    results[i] = fn(items[i])
                except BaseException as err:  # re-raised by the calling thread
                    with lock:
                        failures[i] = err
                    return

        def helper():
            nonlocal free
            try:
                work()
            finally:
                with budget:
                    free += 1

        with budget:  # a helper queued behind busy threads could wait on its own caller
            borrowed = max(0, min(free, len(items) - 1))
            free -= borrowed
        helpers = [pool.submit(helper) for _ in range(borrowed)]
        try:
            work()
        finally:
            with lock:  # also after an interrupt outside ``fn``: start no new item
                claimed = len(items)
            for h in helpers:
                h.result()
        if failures:
            raise failures[min(failures)]
        return results

    with pool:  # joins the pool threads on exit
        yield each


def _members(model_or_ensemble) -> tuple[Model, ...]:
    if isinstance(model_or_ensemble, Ensemble):
        return model_or_ensemble.members
    return (model_or_ensemble,)


def extract_window(record: ProteinRecord, center: int, radius: int):
    """Feature/mask window of width 2*radius+1 centered on ``center``.

    Positions outside the padded buffer read as zero features with zero mask,
    indistinguishable from stored padding.
    """
    width = 2 * radius + 1
    nf = record.features.shape[1]
    feats = np.zeros((width, nf), dtype=np.float32)
    mask = np.zeros(width, dtype=np.float32)
    lo = center - radius
    a = max(lo, 0)
    b = min(center + radius + 1, record.features.shape[0])
    if a < b:
        feats[a - lo : b - lo] = record.features[a:b]
        mask[a - lo : b - lo] = record.mask[a:b]
    return feats, mask


def context_window(context: np.ndarray, center: int, radius: int, shift: int, length: int) -> np.ndarray:
    """Label indices feeding the conditioning channels of one window.

    Window position j carries context[j - shift]; entries before the first
    position or past ``length`` read as the no-seq label, matching padding.
    """
    positions = np.arange(center - radius, center + radius + 1) - shift
    out = np.full(positions.shape, NOSEQ_CLASS, dtype=np.int64)
    valid = (positions >= 0) & (positions < length)
    out[valid] = np.asarray(context, dtype=np.int64)[positions[valid]]
    return out


def _mean_over_members(scores: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean that is bitwise invariant to member order.

    Values are sorted per element before summing so the reduction order is
    canonical regardless of how the ensemble was assembled.
    """
    if len(scores) == 1:
        return scores[0]
    stacked = np.sort(np.stack(scores), axis=0)
    return stacked.sum(axis=0) / len(scores)


def ensemble_step_score(members, features, mask, context=None, each=_in_turn) -> np.ndarray:
    """Per-class averaged log probabilities over the 8 structure classes.

    ``features``/``mask``/``context`` are a batch of windows, as
    ``Model.forward_window`` takes them; returns (batch, 8) float64.
    ``members`` come from one validated ``Ensemble`` or a single model, so
    they agree on mode. ``each`` runs the members' window forwards: in turn,
    or side by side when it comes from ``worker_threads``.
    """
    members = tuple(members)
    if not members:
        raise ParameterError("no models to score with")
    scores = each(lambda m: m.forward_window(features, mask, context), members)
    return _mean_over_members(scores)[..., :NUM_REAL_CLASSES]


def step_scores(members, rows, i: int, each=_in_turn) -> np.ndarray:
    """Scores at position ``i`` for a batch of (record, label context) rows.

    Builds each row's receptive-field window and conditioning context,
    stacks them, and scores the whole batch with one ``ensemble_step_score``
    call, so every member runs one window forward per position. Returns
    [len(rows), 8] float64. Beam search scores through here; it is also the
    reference that ``model.Stepper``, which scores scheduled sampling and
    rescoring, is tested against.
    """
    rf = members[0].receptive_field()
    feats, masks, contexts = [], [], []
    for record, context in rows:
        f, m = extract_window(record, i, rf.radius)
        feats.append(f)
        masks.append(m)
        contexts.append(context_window(context, i, rf.radius, rf.conditioning_shift,
                                       record.length))
    return ensemble_step_score(members, np.stack(feats), np.stack(masks), np.stack(contexts),
                               each)


def decode_independent(model_or_ensemble, record: ProteinRecord, each=_in_turn) -> np.ndarray:
    """Argmax of (ensemble-averaged) log probabilities per masked-in position.

    ``each`` runs the members' forwards: in turn, or side by side when it
    comes from ``worker_threads``.
    """
    members = _members(model_or_ensemble)
    if any(m.config.conditioned for m in members):
        raise ModeError("independent decoding needs unconditioned models")
    if record.length == 0:
        return np.zeros(0, dtype=np.int64)
    batch = make_batch([record], length=record.length)

    def scores(m):
        return log_softmax(m.forward(batch.features, batch.mask, train=False).data[0])

    mean = _mean_over_members(each(scores, members))
    return np.argmax(mean[:, :NUM_REAL_CLASSES], axis=1).astype(np.int64)


def _best_first(candidates):
    """Sort hypotheses by higher log_prob, then lexicographically smaller labels."""
    return sorted(candidates, key=lambda c: (-c[0], c[1]))


def beam_search(model_or_ensemble, record: ProteinRecord, beam_width: int = DEFAULT_BEAM_WIDTH,
                each=_in_turn) -> np.ndarray:
    """Left-to-right beam decode over the 8 structure classes.

    Each step extends every live hypothesis by all 8 classes, scores the
    extensions by accumulated float64 log probability, and keeps the best
    ``beam_width``. Ties break toward the lexicographically smaller label
    sequence. Returns the labels of the best complete hypothesis. ``each``
    runs the members' forwards at every position, as in ``step_scores``.
    """
    members = _members(model_or_ensemble)
    if not all(m.config.conditioned for m in members):
        raise ModeError("beam search needs next-step conditioned models")
    if beam_width < 1:
        raise ParameterError(f"beam width must be >= 1, got {beam_width}")
    if record.length == 0:
        return np.zeros(0, dtype=np.int64)

    beam = [(0.0, ())]  # (accumulated log_prob, labels so far)
    for i in range(record.length):
        scores = step_scores(members, [(record, labels) for _, labels in beam], i, each)
        candidates = [
            (log_prob + float(scores[h, c]), labels + (c,))
            for h, (log_prob, labels) in enumerate(beam)
            for c in range(NUM_REAL_CLASSES)
        ]
        beam = _best_first(candidates)[:beam_width]
    return np.array(beam[0][1], dtype=np.int64)


def decode_records(model_or_ensemble, records, beam_width: int = DEFAULT_BEAM_WIDTH) -> list:
    """Labels of every record, in record order: ``beam_search`` for
    conditioned models, per-position argmax (``decode_independent``)
    otherwise. One ``worker_threads`` context decodes the records on the
    cores BLAS leaves idle, and each record scores its members on the
    threads free at the time; the labels do not depend on how many."""
    with worker_threads() as each:
        if _members(model_or_ensemble)[0].config.conditioned:
            return each(lambda r: beam_search(model_or_ensemble, r, beam_width, each), records)
        return each(lambda r: decode_independent(model_or_ensemble, r, each), records)


def sequence_log_prob(model_or_ensemble, record: ProteinRecord, labels) -> float:
    """Accumulated log probability of a complete label sequence.

    One ``model.Stepper`` per member runs over the record's positions,
    teacher-forced on ``labels`` (position i is conditioned on label i-1,
    the no-seq label at i = 0). The members' scores are averaged per
    position as beam search averages them, and the scores of ``labels``
    are summed left to right in float64, so a beam result rescores to
    exactly the total beam search accumulated. Labels lie in [0, 8).
    """
    members = _members(model_or_ensemble)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != record.length:
        raise ParameterError(
            f"sequence covers {labels.shape[0]} of {record.length} positions"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= NUM_REAL_CLASSES):
        raise ParameterError("labels outside [0, 8) cannot be scored")
    n = record.length
    steppers = [Stepper(m, record.features[None, :n], record.mask[None, :n]) for m in members]
    context = np.concatenate([[NOSEQ_CLASS], labels[:-1]])
    total = 0.0
    for i in range(n):
        scores = _mean_over_members([s.push(context[i : i + 1]) for s in steppers])
        total += float(scores[0, labels[i]])
    return total
