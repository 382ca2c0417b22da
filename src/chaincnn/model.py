"""Sequence labeling models: windowed fully-connected and multi-scale conv.

A convolutional model is a chain of blocks. Each block runs its parallel
multi-scale convolutions, depth-concatenates them, applies batch norm,
ReLU and dropout, then optionally a single follow-up convolution with
the same norm/ReLU/dropout treatment. With skip connections enabled,
block k >= 2 additionally projects the previous block's output through a
width-1 convolution and depth-concatenates that onto its own output.
The head gathers a centered window of trunk features per position and
runs it through fully-connected layers into 9-class logits (8 structure
classes plus no-seq, which only padding targets would use). One layer plan
(``_plan``) names every layer and counts its channels; ``build``,
``parameter_count``, ``receptive_field``, the trunk, the window path and
``Stepper`` read it.

A next-step conditioned model also takes a label context, one label index
per position. The model one-hot encodes it into 9 channels appended to the
42 input features; ``label_context`` shifts a label sequence right by the
receptive-field radius + 1, so position i's output sees y[i-1] at most.

Padding is inert by construction: the mask zeroes the raw input and
every block output, so convolutions near a sequence edge see zeros, and
a record's padded tail can never influence a masked-in position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import NOSEQ_CLASS, NUM_CLASSES, NUM_FEATURES, NUM_PSSM, apply_pssm_stats
from .errors import ConfigError, ModeError, ParameterError, ShapeError


@dataclass(frozen=True)
class BlockSpec:
    """One conv block: parallel (width, depth) filters plus an optional
    single follow-up convolution."""

    multi_scale: tuple[tuple[int, int], ...] = ()
    single_scale: tuple[int, int] | None = None

    def validate(self):
        if not self.multi_scale and self.single_scale is None:
            raise ConfigError("a block needs at least one convolution")
        for width, depth in list(self.multi_scale) + (
            [self.single_scale] if self.single_scale else []
        ):
            if width < 1 or width % 2 == 0:
                raise ConfigError(f"filter width {width} must be odd and positive")
            if depth < 1:
                raise ConfigError(f"filter depth {depth} must be positive")


@dataclass(frozen=True)
class ModelConfig:
    fc_window: int
    fc_layers: int
    fc_width: int = 455
    blocks: tuple[BlockSpec, ...] = ()
    skip_connections: bool = False
    skip_projection_depth: int = 96
    conditioned: bool = False
    dropout_rate: float = 0.4
    fc_max_norm: float = 0.150

    def validate(self):
        if self.fc_window < 1 or self.fc_window % 2 == 0:
            raise ConfigError(f"fc_window {self.fc_window} must be odd and positive")
        if self.fc_layers < 1 or self.fc_width < 1:
            raise ConfigError("fc_layers and fc_width must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate {self.dropout_rate} outside [0, 1)")
        if not 0 < self.fc_max_norm < math.inf:  # also rejects nan
            raise ConfigError(f"fc_max_norm must be finite and positive, got {self.fc_max_norm}")
        if self.skip_projection_depth < 1:
            raise ConfigError("skip projection depth must be positive")
        for b in self.blocks:
            b.validate()

    @property
    def input_channels(self) -> int:
        return NUM_FEATURES + (NUM_CLASSES if self.conditioned else 0)


@dataclass(frozen=True)
class ReceptiveField:
    width: int
    radius: int
    conditioning_shift: int  # radius + 1: the closest visible label is y[i-1]


@dataclass(frozen=True)
class _Stage:
    """Parallel convs (layer name, width, depth) over ``channels`` input
    channels, depth-concatenated, then batch norm ``norm``, ReLU and dropout."""

    convs: tuple[tuple[str, int, int], ...]
    norm: str
    channels: int

    @functools.cached_property  # read on every Stepper step
    def width(self) -> int:
        return max(w for _, w, _ in self.convs)

    @property
    def depth(self) -> int:
        return sum(d for _, _, d in self.convs)


@dataclass(frozen=True)
class _Block:
    stages: tuple[_Stage, ...]
    skip: str | None  # width-1 conv of the block input, appended to its output


@dataclass(frozen=True)
class _Plan:
    blocks: tuple[_Block, ...]
    trunk_channels: int
    head: tuple[str, ...]  # the fc layers, then the output layer
    shapes: tuple[tuple[str, tuple[int, ...]], ...]  # weight shapes, in creation order
    field: ReceptiveField


def _plan(config: ModelConfig) -> _Plan:
    """The layer layout of ``config``, the one place that names a layer or
    counts its channels.

    Block k has a multi-scale stage, convs ``block{k}.multi{i}`` normed by
    ``block{k}.multi_norm``, then a single-scale stage, ``block{k}.single``
    normed by ``block{k}.single_norm``; either may be absent. With skip
    connections, block k >= 2 also projects its input through
    ``block{k}.skip``. The head is ``fc1`` .. ``fc{fc_layers}``, then
    ``output``. A conv's weights are [width, in, out], a dense layer's
    [in, out] and a norm's scale [channels].
    """
    blocks, shapes = [], []
    c = config.input_channels
    for k, b in enumerate(config.blocks, start=1):
        block_in, stages = c, []
        single = [(f"block{k}.single", *b.single_scale)] if b.single_scale else []
        multi = [(f"block{k}.multi{i}", w, d) for i, (w, d) in enumerate(b.multi_scale)]
        for convs, norm in ((multi, f"block{k}.multi_norm"), (single, f"block{k}.single_norm")):
            if convs:
                shapes += [(name, (w, c, d)) for name, w, d in convs]
                stages.append(_Stage(tuple(convs), norm, c))
                c = stages[-1].depth
                shapes.append((norm, (c,)))
        skip = f"block{k}.skip" if config.skip_connections and k >= 2 else None
        if skip:
            shapes.append((skip, (1, block_in, config.skip_projection_depth)))
            c += config.skip_projection_depth
        blocks.append(_Block(tuple(stages), skip))
    head = tuple(f"fc{i + 1}" for i in range(config.fc_layers)) + ("output",)
    n_in = config.fc_window * c
    for name in head:
        n_out = NUM_CLASSES if name == "output" else config.fc_width
        shapes.append((name, (n_in, n_out)))
        n_in = n_out
    width = config.fc_window + sum(s.width - 1 for b in blocks for s in b.stages)
    radius = (width - 1) // 2
    return _Plan(tuple(blocks), c, head, tuple(shapes),
                 ReceptiveField(width=width, radius=radius, conditioning_shift=radius + 1))


def receptive_field(config: ModelConfig) -> ReceptiveField:
    """Input width visible to one output position, down the deepest path."""
    return _plan(config).field


def parameter_count(config: ModelConfig) -> int:
    """Closed-form trainable parameter count for a config: every layer has
    its weights plus one bias (a norm: shift) per output channel."""
    return sum(math.prod(shape) + shape[-1] for _, shape in _plan(config).shapes)


def _one_hot(context, shape) -> np.ndarray:
    """The float32 one-hot [*shape, 9] of label indices ``context``."""
    context = np.asarray(context, dtype=np.int64)
    if context.shape != shape:
        raise ShapeError(f"label context shape {context.shape} != {shape}")
    if context.size and (context.min() < 0 or context.max() >= NUM_CLASSES):
        raise ParameterError(f"label context indices must lie in [0, {NUM_CLASSES})")
    return np.eye(NUM_CLASSES, dtype=np.float32)[context]


class Model:
    """A built model: config plus named layers and non-trainable buffers."""

    def __init__(self, config: ModelConfig, layers: dict[str, T.LayerParams], buffers: dict[str, T.Tensor]):
        self.config = config
        self.layers = layers
        self.buffers = buffers
        self._plan = _plan(config)

    # -- parameter bookkeeping ------------------------------------------

    def named_tensors(self) -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for lp in self.layers.values():
            out.update(lp.tensors())
        out.update(self.buffers)
        return out

    def trainable(self) -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for lp in self.layers.values():
            out.update(lp.trainable())
        return out

    def dense_layers(self) -> list[T.LayerParams]:
        """The max-norm constrained layers: the FC stack and the output layer."""
        return [self.layers[n] for n in self._plan.head]

    def receptive_field(self) -> ReceptiveField:
        return self._plan.field

    def label_context(self, labels: np.ndarray) -> np.ndarray:
        """The ``forward`` context that conditions on ``labels``.

        Shifts [..., length] label indices right by the conditioning shift
        (receptive-field radius + 1), filling the front with the no-seq
        label, so position j carries labels[..., j - shift] and no output
        can see its own label or a later one.
        """
        labels = np.asarray(labels, dtype=np.int64)
        shift = self.receptive_field().conditioning_shift
        out = np.full(labels.shape, NOSEQ_CLASS, dtype=np.int64)
        out[..., shift:] = labels[..., :-shift]
        return out

    # -- forward passes -------------------------------------------------

    def _with_context(self, features: np.ndarray, context) -> np.ndarray:
        """Raw [batch, length, 42] features, their PSSM columns standardized
        by this model's own buffers, with the one-hot of a conditioned
        model's [batch, length] label context appended."""
        if features.ndim != 3 or features.shape[2] != NUM_FEATURES:
            raise ShapeError(f"expected [batch, length, {NUM_FEATURES}] features, "
                             f"got {features.shape}")
        features = apply_pssm_stats(features, self.buffers["input_norm.pssm_mean"].data,
                                    self.buffers["input_norm.pssm_std"].data)
        if not self.config.conditioned:
            if context is not None:
                raise ModeError("unconditioned model takes no label context")
            return features
        if context is None:
            raise ModeError("conditioned model needs a label context")
        return np.concatenate([features, _one_hot(context, features.shape[:2])], axis=2)

    def forward(
        self,
        features: np.ndarray,
        mask: np.ndarray,
        context: np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> T.Tensor:
        """Per-position logits [batch, length, 9].

        features: [batch, length, 42] raw features; the model standardizes
        their PSSM columns with its ``input_norm.*`` buffers and masks the
        padding before the first layer. A conditioned model also
        takes ``context``: [batch, length] label indices (0..8), one per
        position, one-hot encoded into the conditioning channels as they
        are. ``label_context`` builds it from a label sequence.

        In infer mode (``train`` false) the layers run on gradient-free views
        (``_layer``), so no autodiff graph is recorded: the logits have no
        parents, and each intermediate is freed once the next layer replaces it.
        """
        features = self._with_context(np.asarray(features, dtype=np.float32), context)
        h = self._trunk(T.Tensor(features), mask, train, rng)
        return self._head(T.gather_windows(h, self.config.fc_window), train, rng)

    def _layer(self, name: str, train: bool) -> T.LayerParams:
        """Layer ``name``, as a gradient-free view (``LayerParams.frozen``) unless ``train``."""
        lp = self.layers[name]
        return lp if train else lp.frozen()

    def _trunk(self, h: T.Tensor, mask, train: bool, rng) -> T.Tensor:
        """The conv blocks over [batch, length, channels] input; every layer
        keeps the input length (SAME padding)."""
        drop = self.config.dropout_rate

        def conv(name, x):
            lp = self._layer(name, train)
            return T.conv1d(x, lp.weights, lp.biases)

        def norm_relu(x, name):
            x = T.batch_norm(x, mask, self._layer(name, train), train)
            return T.apply_mask(T.dropout(T.relu(x), drop, train, rng), mask)

        mask = np.asarray(mask, dtype=np.float32)
        h = T.apply_mask(h, mask)
        for block in self._plan.blocks:
            block_in = h
            for stage in block.stages:
                h = T.concat_channels([conv(name, h) for name, _, _ in stage.convs])
                h = norm_relu(h, stage.norm)
            if block.skip:
                h = T.apply_mask(T.concat_channels([h, conv(block.skip, block_in)]), mask)
        return h

    def _head(self, h: T.Tensor, train: bool, rng) -> T.Tensor:
        """FC stack and output layer over gathered fc_window features."""
        drop = self.config.dropout_rate
        *fcs, out = (self._layer(name, train) for name in self._plan.head)
        for lp in fcs:
            h = T.dropout(T.relu(T.dense(h, lp.weights, lp.biases)), drop, train, rng)
        return T.dense(h, out.weights, out.biases)

    def forward_window(
        self,
        features: np.ndarray,
        mask: np.ndarray,
        context: np.ndarray | None = None,
    ) -> np.ndarray:
        """Log probabilities at the center of a receptive-field-sized window.

        features: [batch, width, 42] raw features; mask [batch, width]
        marks real positions inside each window; for conditioned models
        ``context`` [batch, width] gives, per window position, the already-
        shifted label index (0..8), as in ``forward``. Returns [batch, 9]
        float64.

        Only what the center logit depends on is computed. The trunk runs
        on plain arrays as a valid-convolution pyramid (for ``chained``: 43
        -> 35 -> 27 -> 19 -> 11 columns) over time-major windows, rows
        padded as ``Stepper`` pads them: each ``_stage`` drops width // 2
        columns at each end. Its last fc_window columns, flattened
        window-position major, are exactly the center's ``gather_windows``
        row, and the head runs once per window, not once per window position.

        ``forward`` over the window, center kept, is the reference. The
        center rows go through ``_score_rows``, which rounds them as that
        forward's head does (see ``_row_blocks``). For the shipped configs
        the tests check the result bit-identical to the reference. The
        cropped trunk convolutions can still round differently from SAME
        ones for other shapes (a depth like 3, or a pyramid that narrows to
        one column), so there the match is only to float32 rounding.
        """
        features = np.asarray(features, dtype=np.float32)
        mask = np.asarray(mask, dtype=np.float32)
        width = self.receptive_field().width
        if features.ndim != 3 or features.shape[1] != width or mask.shape != features.shape[:2]:
            raise ShapeError(f"expected [batch, {width}, {NUM_FEATURES}] windows (width = "
                             f"receptive field) and a [batch, {width}] mask, got "
                             f"{features.shape} and {mask.shape}")
        n = features.shape[0]
        blocks = _row_blocks(n, 2)  # one row would go to gemv
        x = self._with_context(features, context)
        h = np.zeros((width, blocks[-1][1], x.shape[2]), dtype=np.float32)
        cols = np.zeros(h.shape[:2] + (1,), dtype=np.float32)  # the mask, time-major
        h[:, :n], cols[:, :n, 0] = x.transpose(1, 0, 2), mask.T
        h *= cols
        for block in self._plan.blocks:
            block_in = h
            for stage in block.stages:
                crop = stage.width // 2
                cols = cols[crop : len(cols) - crop]
                h = self._stage(stage, h, cols, blocks)
            if block.skip:  # the block input's columns beside the block output's
                proj = _conv_columns(block_in, self.layers[block.skip],
                                     (len(block_in) - len(h)) // 2, blocks)
                h = np.concatenate([h, proj], axis=2) * cols
        return self._score_rows(h[:, :n].transpose(1, 0, 2).reshape(n, h.shape[0] * h.shape[2]))

    def _stage(self, stage: _Stage, x: np.ndarray, mask: np.ndarray, blocks) -> np.ndarray:
        """``stage`` at positions [width // 2, length - width // 2) of
        time-major [length, rows, channels] ``x``: its convs, depth-
        concatenated, then batch norm, ReLU and ``mask`` through ``_norm_relu``."""
        crop = stage.width // 2
        h = np.concatenate([_conv_columns(x, self.layers[name], crop, blocks)
                            for name, _, _ in stage.convs], axis=2)
        return _norm_relu(h, self.layers[stage.norm], mask)

    def _score_rows(self, rows: np.ndarray) -> np.ndarray:
        """Log probabilities [n, 9] float64 of the head over [n, n_in] rows of
        fc_window trunk columns, flattened window-position major, run in
        ``_row_blocks`` of 16 to 128 rows, fewer than 16 zero-padded.
        ``forward_window`` and ``Stepper`` both score here, in infer mode: no graph.
        """
        n = rows.shape[0]
        blocks = _row_blocks(n, 16)
        padded = np.zeros((blocks[-1][1], rows.shape[1]), dtype=np.float32)
        padded[:n] = rows
        logits = [self._head(T.Tensor(padded[lo:hi]), False, None).data for lo, hi in blocks]
        return T.log_softmax(np.concatenate(logits)[:n])


def _conv_columns(x: np.ndarray, lp: T.LayerParams, crop: int, blocks) -> np.ndarray:
    """Conv layer ``lp`` of C-contiguous, time-major [length, rows, in] ``x``
    at the n = length - 2 * crop positions [crop, length - crop) only, for
    crop >= width // 2, so none reads padding. The taps are one strided
    [width, n, rows, in] view; each ``blocks`` block runs one batched matmul,
    a 2-D [rows_block, in] @ [in, out] sgemm per tap and column (never one
    over stacked columns, whose row count would differ between the scorers
    that share this), and one sum over the leading axis adds bias and taps
    in tap order, as ``tensor.conv1d`` does."""
    filt = lp.weights.data
    width, _, out = filt.shape
    n = len(x) - 2 * crop
    step = x.strides[0]
    taps = np.ndarray((width, n) + x.shape[1:], np.float32, x, (crop - width // 2) * step,
                      (step,) + x.strides)
    terms = np.empty((width + 1, n, x.shape[1], out), dtype=np.float32)
    terms[0] = lp.biases.data
    for lo, hi in blocks:
        np.matmul(taps[:, :, lo:hi], filt[:, None], out=terms[1:, :, lo:hi])
    return terms.sum(axis=0)


def _norm_relu(x: np.ndarray, lp: T.LayerParams, mask: np.ndarray) -> np.ndarray:
    """Batch norm ``lp`` with its running statistics, ReLU, then ``mask``
    (broadcast over the channels), as ``tensor.batch_norm(train=False)``,
    ``relu`` and ``apply_mask`` compute them."""
    inv = 1.0 / np.sqrt(lp.extra["running_var"].data + np.float32(T.BN_EPS))
    xhat = (x - lp.extra["running_mean"].data) * inv
    return np.maximum(xhat * lp.weights.data + lp.biases.data, 0.0) * mask


def _row_blocks(n: int, floor: int) -> list[tuple[int, int]]:
    """Even [lo, hi) blocks of at most 128 rows over max(n, floor) rows.

    The scorers run their matmuls on these blocks so that BLAS rounds each
    row as the full ``forward`` does, which multiplies one record's rows
    per call. OpenBLAS sgemm rounds a row alike at any row count within one
    kernel regime: gemv for one row, a small-matrix kernel for small
    products, a blocked kernel above. In every shipped head the fc layers
    run the blocked kernel from 16 rows up and the 9-wide output layer the
    small-matrix one up to 128, so ``_score_rows`` uses a floor of 16;
    ``_conv_columns`` runs on a floor of 2, as one row would go to gemv,
    and at 256 rows a shipped trunk tap would leave the small-matrix kernel.
    For the shipped configs the tests check ``forward_window`` and
    ``Stepper`` bit-identical to ``forward`` on the SkylakeX core; other
    cores and shapes can differ in the last bits.
    """
    rows = max(n, floor)
    blocks = -(-rows // 128)
    return [(rows * b // blocks, rows * (b + 1) // blocks) for b in range(blocks)]


class _Queue:
    """The last ``size`` [rows, channels] columns pushed, in a mirrored ring:
    each column is stored twice, ``size`` slots apart, so any run of at most
    ``size`` consecutive columns is one contiguous slice. Columns not yet
    pushed read as zeros, as masked positions do."""

    def __init__(self, size: int, rows: int, channels: int):
        self.size = size
        self.columns = np.zeros((2 * size, rows, channels), dtype=np.float32)
        self.pushed = 0

    def push(self, column: np.ndarray) -> None:
        slot = self.pushed % self.size
        self.columns[slot] = self.columns[slot + self.size] = column
        self.pushed += 1

    def span(self, k: int, n: int) -> np.ndarray:
        """The [n, rows, channels] view of the ``n`` consecutive columns,
        oldest first, whose newest was pushed ``k`` pushes ago (0: the newest
        push); ``k + n`` must not exceed ``size``."""
        start = (self.pushed - k - n) % self.size
        return self.columns[start : start + n]


class Stepper:
    """Scores a conditioned model over a batch one position at a time.

    Label y[i-1] enters only input column i + radius, so scoring position
    i needs one new column per conv layer and one head row on top of what
    earlier positions computed: the queue cache of Paine et al. 2016, "Fast
    Wavenet Generation Algorithm". Each conv reads a queue of its input's
    last columns, a skip projection reads its block's input queue, and the
    head reads the last fc_window trunk columns. Queues start as zeros,
    which is what the masked positions before a record hold. Construction
    takes the model's input from ``Model._with_context`` with a no-seq
    context, so it has ``forward``'s checks, standardization and channels,
    and pushes input columns 0..radius-1; each ``push`` then scores the
    next position, its column's label channels overwritten by the labels.

    The scores are bit-identical to ``Model.forward_window`` over the same
    windows on every BLAS core, by construction: on rows padded to the same
    ``_row_blocks``, each stage step is ``Model._stage`` over its queue's
    last ``stage.width`` columns, a skip projection is ``_conv_columns``
    over one ``_Queue.span`` column, and the head is ``Model._score_rows``.
    """

    def __init__(self, model: Model, features: np.ndarray, mask: np.ndarray):
        """features: [n, length, 42] raw features; mask: [n, length]."""
        features = np.asarray(features, dtype=np.float32)
        mask = np.asarray(mask, dtype=np.float32)
        x = model._with_context(features, np.full(features.shape[:2], NOSEQ_CLASS))
        if mask.shape != features.shape[:2]:
            raise ShapeError(f"mask shape {mask.shape} != {features.shape[:2]}")
        self.model = model
        self.n, self.length = mask.shape
        self._row_blocks = _row_blocks(self.n, 2)  # one row would go to gemv
        rows = self._row_blocks[-1][1]
        radius = model.receptive_field().radius
        # columns up to length - 1 + radius get pushed; past the buffer they are masked
        length = self.length
        self._input = np.zeros((rows, length + radius, x.shape[2]), dtype=np.float32)
        self._input[: self.n, :length] = x
        self._mask = np.zeros((rows, length + radius), dtype=np.float32)
        self._mask[: self.n, :length] = mask
        self._column = 0

        self._queues = []  # per block: one input queue per stage
        for block in model._plan.blocks:
            # the skip projection reads the block input at the block's output position
            sizes = [stage.width for stage in block.stages]
            if block.skip:
                sizes[0] = max(sizes[0], sum(w // 2 for w in sizes) + 1)
            self._queues.append([_Queue(size, rows, stage.channels)
                                 for size, stage in zip(sizes, block.stages)])
        self._head_queue = _Queue(model.config.fc_window, rows, model._plan.trunk_channels)
        no_seq = np.full(self.n, NOSEQ_CLASS, dtype=np.int64)
        for _ in range(radius):
            self._advance(no_seq)

    def push(self, labels: np.ndarray) -> np.ndarray:
        """Log probabilities [n, 9] float64 at the next position i, given
        the [n] labels y[i-1] (the no-seq label for i = 0) that condition it."""
        if self._column == self._input.shape[1]:
            raise ParameterError(f"all {self.length} positions of the batch are already scored")
        self._advance(labels)
        window = self._head_queue.span(0, self._head_queue.size)[:, : self.n]
        return self.model._score_rows(
            window.transpose(1, 0, 2).reshape(self.n, window.shape[0] * window.shape[2]))

    def _advance(self, labels) -> None:
        """Push input column i + radius with context ``labels`` through the trunk."""
        col = self._column
        x = self._input[:, col].copy()
        x[: self.n, NUM_FEATURES:] = _one_hot(labels, (self.n,))
        self._column += 1
        h = x * self._mask[:, col, None]
        for block, queues in zip(self.model._plan.blocks, self._queues):
            start = col  # the block input's position; col becomes its output's
            for stage, queue in zip(block.stages, queues):
                queue.push(h)
                col -= stage.width // 2
                h = self.model._stage(stage, queue.span(0, stage.width), self._mask_at(col),
                                      self._row_blocks)[0]
            if block.skip:
                proj = _conv_columns(queues[0].span(start - col, 1),
                                     self.model.layers[block.skip], 0, self._row_blocks)[0]
                h = np.concatenate([h, proj], axis=1) * self._mask_at(col)
        self._head_queue.push(h)

    def _mask_at(self, col: int) -> np.ndarray:
        if col < 0:
            return np.zeros((len(self._mask), 1), dtype=np.float32)
        return self._mask[:, col, None]


def build(config: ModelConfig, rng: np.random.Generator | None) -> Model:
    """Initialize all layers; creation order is fixed, so equal seeds give
    bit-identical models. ``rng`` None draws nothing and leaves the weights
    zero, for ``training.bind_checkpoint`` to fill."""
    config.validate()
    buffers = {
        "input_norm.pssm_mean": T.Tensor(np.zeros(NUM_PSSM, dtype=np.float32)),
        "input_norm.pssm_std": T.Tensor(np.ones(NUM_PSSM, dtype=np.float32)),
    }
    model = Model(config, {}, buffers)
    for name, shape in model._plan.shapes:
        if len(shape) == 1:  # batch norm: scale and shift, running statistics
            model.layers[name] = T.LayerParams(
                name=name,
                weights=T.Tensor(np.ones(shape, dtype=np.float32), requires_grad=True),
                biases=T.Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True),
                extra={
                    "running_mean": T.Tensor(np.zeros(shape, dtype=np.float32)),
                    "running_var": T.Tensor(np.ones(shape, dtype=np.float32)),
                },
            )
        else:
            model.layers[name] = T.LayerParams(
                name=name,
                weights=(T.Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
                         if rng is None else
                         T.init_weights(shape, fan_in=math.prod(shape[:-1]), rng=rng)),
                biases=T.init_bias(shape[-1:]),
            )
    return model
