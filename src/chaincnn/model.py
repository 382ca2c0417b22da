"""Sequence labeling models: windowed fully-connected and multi-scale conv.

A convolutional model is a chain of blocks. Each block runs its parallel
multi-scale convolutions, depth-concatenates them, applies batch norm,
ReLU and dropout, then optionally a single follow-up convolution with
the same norm/ReLU/dropout treatment. With skip connections enabled,
block k >= 2 additionally projects the previous block's output through a
width-1 convolution and depth-concatenates that onto its own output.
The head gathers a centered window of trunk features per position and
runs it through fully-connected layers into 9-class logits (8 structure
classes plus no-seq, which only padding targets would use).

A next-step conditioned model also takes a label context, one label index
per position. The model one-hot encodes it into 9 channels appended to the
42 input features; ``label_context`` shifts a label sequence right by the
receptive-field radius + 1, so position i's output sees y[i-1] at most.

Padding is inert by construction: the mask zeroes the raw input and
every block output, so convolutions near a sequence edge see zeros, and
a record's padded tail can never influence a masked-in position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import NOSEQ_CLASS, NUM_CLASSES, NUM_FEATURES, NUM_PSSM
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
    kind: str  # "fully_connected" | "convolutional"
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
        if self.kind not in ("fully_connected", "convolutional"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.fc_window < 1 or self.fc_window % 2 == 0:
            raise ConfigError(f"fc_window {self.fc_window} must be odd and positive")
        if self.fc_layers < 1 or self.fc_width < 1:
            raise ConfigError("fc_layers and fc_width must be positive")
        if self.kind == "convolutional" and not self.blocks:
            raise ConfigError("convolutional models need at least one block")
        if self.kind == "fully_connected" and self.blocks:
            raise ConfigError("fully_connected models take no blocks")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate {self.dropout_rate} outside [0, 1)")
        if self.fc_max_norm <= 0:
            raise ConfigError("fc_max_norm must be positive")
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


def receptive_field(config: ModelConfig) -> ReceptiveField:
    """Input width visible to one output position, down the deepest path."""
    width = config.fc_window
    for b in config.blocks:
        if b.multi_scale:
            width += max(w for w, _ in b.multi_scale) - 1
        if b.single_scale:
            width += b.single_scale[0] - 1
    radius = (width - 1) // 2
    return ReceptiveField(width=width, radius=radius, conditioning_shift=radius + 1)


def _block_channels(config: ModelConfig) -> list[dict]:
    """Per-block channel arithmetic; returns dicts of the intermediate widths."""
    plans = []
    c = config.input_channels
    prev_out = None
    for k, b in enumerate(config.blocks, start=1):
        plan = {"in": c}
        mid = sum(d for _, d in b.multi_scale) if b.multi_scale else c
        plan["concat"] = mid
        out = b.single_scale[1] if b.single_scale else mid
        plan["single_out"] = out
        if config.skip_connections and k >= 2:
            plan["skip_in"] = prev_out
            out = out + config.skip_projection_depth
        plan["out"] = out
        plans.append(plan)
        prev_out = c = out
    return plans


def parameter_count(config: ModelConfig) -> int:
    """Closed-form trainable parameter count for a config."""
    total = 0
    plans = _block_channels(config)
    for b, plan in zip(config.blocks, plans):
        c_in = plan["in"]
        for width, depth in b.multi_scale:
            total += width * c_in * depth + depth
        mid = plan["concat"]
        if b.multi_scale:
            total += 2 * mid  # norm scale + shift
        if b.single_scale:
            width, depth = b.single_scale
            total += width * mid * depth + depth + 2 * depth
        if "skip_in" in plan:
            total += (plan["skip_in"] + 1) * config.skip_projection_depth  # weights + biases
    trunk_out = plans[-1]["out"] if plans else config.input_channels
    n_in = config.fc_window * trunk_out
    for _ in range(config.fc_layers):
        total += n_in * config.fc_width + config.fc_width
        n_in = config.fc_width
    total += n_in * NUM_CLASSES + NUM_CLASSES
    return total


class Model:
    """A built model: config plus named layers and non-trainable buffers."""

    def __init__(self, config: ModelConfig, layers: dict[str, T.LayerParams], buffers: dict[str, T.Tensor]):
        self.config = config
        self.layers = layers
        self.buffers = buffers

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

    def num_parameters(self) -> int:
        return sum(t.data.size for t in self.trainable().values())

    def dense_layers(self) -> list[T.LayerParams]:
        """The max-norm constrained layers: the FC stack and the output layer."""
        names = [f"fc{i + 1}" for i in range(self.config.fc_layers)] + ["output"]
        return [self.layers[n] for n in names]

    def receptive_field(self) -> ReceptiveField:
        return receptive_field(self.config)

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
        """[batch, length, 42] features, with the one-hot of a conditioned
        model's [batch, length] label context appended."""
        if features.ndim != 3 or features.shape[2] != NUM_FEATURES:
            raise ShapeError(f"expected [batch, length, {NUM_FEATURES}] features, "
                             f"got {features.shape}")
        if not self.config.conditioned:
            if context is not None:
                raise ModeError("unconditioned model takes no label context")
            return features
        if context is None:
            raise ModeError("conditioned model needs a label context")
        context = np.asarray(context, dtype=np.int64)
        if context.shape != features.shape[:2]:
            raise ShapeError(f"label context shape {context.shape} != {features.shape[:2]}")
        if context.size and (context.min() < 0 or context.max() >= NUM_CLASSES):
            raise ParameterError(f"label context indices must lie in [0, {NUM_CLASSES})")
        chans = np.zeros(features.shape[:2] + (NUM_CLASSES,), dtype=np.float32)
        b_idx, p_idx = np.indices(context.shape)
        chans[b_idx, p_idx, context] = 1.0
        return np.concatenate([features, chans], axis=2)

    def forward(
        self,
        features: np.ndarray,
        mask: np.ndarray,
        context: np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> T.Tensor:
        """Per-position logits [batch, length, 9].

        features: [batch, length, 42] raw features. A conditioned model also
        takes ``context``: [batch, length] label indices (0..8), one per
        position, one-hot encoded into the conditioning channels as they
        are. ``label_context`` builds it from a label sequence.
        """
        features = self._with_context(np.asarray(features, dtype=np.float32), context)
        h = self._trunk(T.Tensor(features), mask, train, rng, valid=False)
        return self._head(T.gather_windows(h, self.config.fc_window), train, rng)

    def _trunk(self, h: T.Tensor, mask, train: bool, rng, valid: bool) -> T.Tensor:
        """The conv blocks over [batch, length, channels] input.

        With ``valid`` each conv computes only the positions the next layer
        consumes, so no output reads padding and the result is shorter than
        the input by receptive-field width - fc_window; masks are sliced to
        match. Without it every layer keeps the input length (SAME padding).
        """
        cfg = self.config
        drop = cfg.dropout_rate

        def conv(name, x, crop):
            lp = self.layers[name]
            if valid:
                return T.cropped_conv1d(x, lp.weights, lp.biases, crop)
            return T.conv1d(x, lp.weights, lp.biases)

        def norm_relu(x, name, mask):
            x = T.batch_norm(x, mask, self.layers[name], train)
            return T.apply_mask(T.dropout(T.relu(x), drop, train, rng), mask)

        def cropped(mask, width):
            crop = width // 2 if valid else 0
            return crop, mask[:, crop : mask.shape[1] - crop]

        mask = np.asarray(mask, dtype=np.float32)
        h = T.apply_mask(h, mask)
        for k, b in enumerate(cfg.blocks, start=1):
            block_in, in_mask = h, mask
            if b.multi_scale:
                crop, mask = cropped(mask, max(w for w, _ in b.multi_scale))
                m = T.concat_channels([
                    conv(f"block{k}.multi{i}", block_in, crop)
                    for i in range(len(b.multi_scale))
                ])
                m = norm_relu(m, f"block{k}.multi_norm", mask)
            else:
                m = block_in
            if b.single_scale:
                crop, mask = cropped(mask, b.single_scale[0])
                s = norm_relu(conv(f"block{k}.single", m, crop), f"block{k}.single_norm", mask)
            else:
                s = m
            if cfg.skip_connections and k >= 2:
                crop = (in_mask.shape[1] - mask.shape[1]) // 2
                proj = conv(f"block{k}.skip", block_in, crop)
                h = T.apply_mask(T.concat_channels([s, proj]), mask)
            else:
                h = s
        return h

    def _head(self, h: T.Tensor, train: bool, rng) -> T.Tensor:
        """FC stack and output layer over gathered fc_window features."""
        drop = self.config.dropout_rate
        for i in range(self.config.fc_layers):
            lp = self.layers[f"fc{i + 1}"]
            h = T.dropout(T.relu(T.dense(h, lp.weights, lp.biases)), drop, train, rng)
        out = self.layers["output"]
        return T.dense(h, out.weights, out.biases)

    def forward_window(
        self,
        features: np.ndarray,
        mask: np.ndarray,
        context: np.ndarray | None = None,
    ) -> np.ndarray:
        """Log probabilities at the center of a receptive-field-sized window.

        features: [width, 42] or [batch, width, 42] raw features; mask
        marks real positions inside the window; for conditioned models
        ``context`` gives, per window position, the already-shifted label
        index (0..8), as in ``forward``. Returns [9] or [batch, 9] float64.

        Only what the center logit depends on is computed. The trunk runs
        as a valid-convolution pyramid (for ``chained``: 43 -> 35 -> 27 ->
        19 -> 11 columns), whose last fc_window columns, flattened window-
        position major, are exactly the center's ``gather_windows`` row. The
        head then runs once per window, not once per window position.

        ``forward`` over the window, center kept, is the reference. That
        forward's head multiplies one record's [width, n_in] rows per BLAS
        call, and BLAS rounds differently for other row counts (one row goes
        to gemv, small products to a small-matrix kernel). So the center rows
        are stacked into blocks of exactly ``width`` rows, the last block
        zero-padded, and each head matmul runs on whole blocks. For the
        shipped configs the tests check the result bit-identical to the
        reference. The cropped trunk convolutions can still round differently
        from SAME ones for other shapes (a depth like 3, or a pyramid that
        narrows to one column), so there the match is only to float32
        rounding.
        """
        features = np.asarray(features, dtype=np.float32)
        squeeze = features.ndim == 2
        if squeeze:
            features = features[None]
            mask = np.asarray(mask)[None]
            context = None if context is None else np.asarray(context)[None]
        width = self.receptive_field().width
        if features.shape[1] != width:
            raise ShapeError(
                f"window length {features.shape[1]} != receptive field width {width}"
            )
        features = self._with_context(features, context)
        trunk = self._trunk(T.Tensor(features), mask, False, None, valid=True).data
        n = trunk.shape[0]
        rows = np.zeros((-(-n // width) * width, trunk[0].size), dtype=np.float32)
        rows[:n] = trunk.reshape(n, -1)
        logits = self._head(T.Tensor(rows.reshape(-1, width, rows.shape[1])), False, None)
        center = T.log_softmax(logits.data.reshape(-1, NUM_CLASSES)[:n])
        return center[0] if squeeze else center


def build(config: ModelConfig, rng: np.random.Generator) -> Model:
    """Initialize all layers; creation order is fixed, so equal seeds give
    bit-identical models."""
    config.validate()
    layers: dict[str, T.LayerParams] = {}

    def conv_layer(name, width, c_in, c_out):
        layers[name] = T.LayerParams(
            name=name,
            weights=T.init_weights((width, c_in, c_out), fan_in=width * c_in, rng=rng),
            biases=T.init_bias((c_out,)),
        )

    def norm_layer(name, ch):
        layers[name] = T.LayerParams(
            name=name,
            weights=T.Tensor(np.ones(ch, dtype=np.float32), requires_grad=True),
            biases=T.Tensor(np.zeros(ch, dtype=np.float32), requires_grad=True),
            extra={
                "running_mean": T.Tensor(np.zeros(ch, dtype=np.float32)),
                "running_var": T.Tensor(np.ones(ch, dtype=np.float32)),
            },
        )

    def dense_layer(name, n_in, n_out):
        layers[name] = T.LayerParams(
            name=name,
            weights=T.init_weights((n_in, n_out), fan_in=n_in, rng=rng),
            biases=T.init_bias((n_out,)),
        )

    plans = _block_channels(config)
    for k, (b, plan) in enumerate(zip(config.blocks, plans), start=1):
        for i, (width, depth) in enumerate(b.multi_scale):
            conv_layer(f"block{k}.multi{i}", width, plan["in"], depth)
        if b.multi_scale:
            norm_layer(f"block{k}.multi_norm", plan["concat"])
        if b.single_scale:
            width, depth = b.single_scale
            conv_layer(f"block{k}.single", width, plan["concat"], depth)
            norm_layer(f"block{k}.single_norm", depth)
        if "skip_in" in plan:
            conv_layer(f"block{k}.skip", 1, plan["skip_in"], config.skip_projection_depth)

    trunk_out = plans[-1]["out"] if plans else config.input_channels
    n_in = config.fc_window * trunk_out
    for i in range(config.fc_layers):
        dense_layer(f"fc{i + 1}", n_in, config.fc_width)
        n_in = config.fc_width
    dense_layer("output", n_in, NUM_CLASSES)

    buffers = {
        "input_norm.pssm_mean": T.Tensor(np.zeros(NUM_PSSM, dtype=np.float32)),
        "input_norm.pssm_std": T.Tensor(np.ones(NUM_PSSM, dtype=np.float32)),
    }
    return Model(config, layers, buffers)
