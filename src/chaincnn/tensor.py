"""Dense float32 tensors with reverse-mode automatic differentiation.

Deliberately minimal: only the layer set the sequence labelers need. Ops
build a graph of closures; calling ``backward`` on the result walks the
graph in reverse topological order and accumulates gradients into every
tensor that asked for them. As in PyTorch's autograd, an op keeps its
inputs and closure only when one of them requires a gradient, so ops on
gradient-free tensors (inference) record no graph, and each intermediate
is freed as soon as the next op replaces it. A graph is single-use: the
walk frees each op node (a tensor with parents) as soon as its closure
has run, so it keeps its ``data`` but loses its gradient, closure and
parents, and with them every activation only the closure still held.
Leaves (tensors without parents: parameters and inputs) keep their
gradients. A later walk that reaches a freed node, a second ``backward``
or one through a tensor built on it, raises ``ModeError``. Data and
gradients are float32 throughout; loss and statistic reductions run
their sums in float64 before rounding back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateStatsError,
    EmptyLossError,
    ModeError,
    NonFiniteError,
    ParameterError,
    ShapeError,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BN_EPS = 1e-5
BN_MOMENTUM = 0.99
BIAS_INIT = 0.1
# Relative slack on the max-norm trigger. One float32 rounding of a
# projected column can leave its norm a few ulps above the bound; the
# slack keeps a second projection from touching it, so projecting twice
# is bit-identical to projecting once.
_MAX_NORM_SLACK = 1e-6


class Tensor:
    """A float32 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"

    def backward(self, seed=None):
        """Accumulate gradients of this node into every requiring ancestor.

        ``seed`` defaults to ones and must match this tensor's shape; pass
        an explicit cotangent to differentiate a non-scalar output.

        The walk consumes the graph. Once a node's closure has run, the
        node drops its ``grad``, closure and parents, so each intermediate
        activation and gradient is freed after its last consumer used it,
        and this tensor itself ends with ``grad`` None. Leaves keep their
        gradients. Reaching a consumed node, by calling ``backward`` twice
        or through a tensor built on a consumed one, raises ``ModeError``
        before any gradient is touched; run the forward again instead.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=np.float32)
        if seed.shape != self.data.shape:
            raise ShapeError(f"seed shape {seed.shape} != tensor shape {self.data.shape}")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise ModeError("backward reached a graph node an earlier backward "
                                "consumed; run the forward again")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        _accum(self, seed)
        while order:
            node = order.pop()
            if node._parents:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = node._parents = None


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


@dataclass
class LayerParams:
    """Named parameters of one layer.

    ``weights``/``biases`` are trainable; ``extra`` holds auxiliary
    buffers such as batch-norm running statistics. For a normalization
    layer the per-channel scale lives in ``weights`` and the shift in
    ``biases``, so the trainable/buffer split stays uniform.
    """

    name: str
    weights: Tensor
    biases: Tensor
    extra: dict[str, Tensor] = field(default_factory=dict)

    def tensors(self) -> dict[str, Tensor]:
        out = {f"{self.name}.weights": self.weights, f"{self.name}.biases": self.biases}
        for key, t in self.extra.items():
            out[f"{self.name}.{key}"] = t
        return out

    def trainable(self) -> dict[str, Tensor]:
        return {f"{self.name}.weights": self.weights, f"{self.name}.biases": self.biases}

    def frozen(self) -> "LayerParams":
        """The same arrays in tensors that require no gradient: ops on it record no graph."""
        return LayerParams(self.name, Tensor(self.weights.data), Tensor(self.biases.data),
                           self.extra)


# ---------------------------------------------------------------------------
# initialization


def init_weights(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """Gaussian init with std 3.0/sqrt(fan_in), zero mean."""
    if fan_in <= 0:
        raise ParameterError(f"fan_in must be positive, got {fan_in}")
    std = 3.0 / math.sqrt(fan_in)
    data = (rng.standard_normal(shape) * std).astype(np.float32)
    return Tensor(data, requires_grad=True)


def init_bias(shape) -> Tensor:
    """Constant 0.1 bias."""
    return Tensor(np.full(shape, BIAS_INIT, dtype=np.float32), requires_grad=True)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        _accum(x, g * (x.data > 0.0))

    return Tensor(out_data, parents=(x,), backward=backward)


def apply_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    """Zero all channels at masked-out positions. ``mask`` is [batch, length]."""
    m = np.asarray(mask, dtype=np.float32)
    if m.shape != x.data.shape[:2]:
        raise ShapeError(f"mask shape {m.shape} != leading dims {x.data.shape[:2]}")
    m3 = m[:, :, None]
    out_data = x.data * m3

    def backward(g):
        _accum(x, g * m3)

    return Tensor(out_data, parents=(x,), backward=backward)


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate along the trailing (channel) axis."""
    if not parts:
        raise ShapeError("concat of zero tensors")
    if len(parts) == 1:
        return parts[0]
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.shape[:-1] != lead:
            raise ShapeError("concat operands disagree on leading dims")
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.data.shape[-1] for p in parts]

    def backward(g):
        start = 0
        for p, w in zip(parts, widths):
            _accum(p, g[..., start : start + w])
            start += w

    return Tensor(out_data, parents=tuple(parts), backward=backward)


def gather_windows(x: Tensor, width: int) -> Tensor:
    """Per position, concatenate the ``width`` neighboring positions' channels.

    Output feature layout is window-position major: [b, t] holds
    x[b, t-r], ..., x[b, t+r] back to back (r = width//2), with zeros
    where the window leaves the buffer.
    """
    if width < 1 or width % 2 == 0:
        raise ParameterError(f"window width must be odd and positive, got {width}")
    if x.data.ndim != 3:
        raise ShapeError(f"gather_windows expects [batch, length, ch], got {x.data.shape}")
    b, length, ch = x.data.shape
    r = width // 2
    xp = np.zeros((b, length + 2 * r, ch), dtype=np.float32)
    xp[:, r : r + length] = x.data
    out_data = np.concatenate([xp[:, w : w + length] for w in range(width)], axis=-1)

    def backward(g):
        dxp = np.zeros_like(xp)
        for w in range(width):
            dxp[:, w : w + length] += g[..., w * ch : (w + 1) * ch]
        _accum(x, dxp[:, r : r + length])

    return Tensor(out_data, parents=(x,), backward=backward)


# ---------------------------------------------------------------------------
# linear ops


def conv1d(x: Tensor, filt: Tensor, bias: Tensor) -> Tensor:
    """1D convolution along the length axis with SAME zero padding.

    x: [batch, length, in_ch], filt: [width, in_ch, out_ch], bias: [out_ch].
    Filter widths must be odd so SAME padding is symmetric. Each position
    accumulates bias + x[t - r + w] @ filt[w] for taps w = 0..width-1 in
    order (r = width // 2), one matmul per record and tap.
    """
    if x.data.ndim != 3 or filt.data.ndim != 3:
        raise ShapeError(
            f"conv1d expects x[b,l,c] and filt[w,c,o], got {x.data.shape} and {filt.data.shape}"
        )
    width, in_ch, out_ch = filt.data.shape
    if width % 2 == 0 or width < 1:
        raise ParameterError(f"filter width must be odd and positive, got {width}")
    if x.data.shape[2] != in_ch:
        raise ShapeError(f"input has {x.data.shape[2]} channels, filter expects {in_ch}")
    if bias.data.shape != (out_ch,):
        raise ShapeError(f"bias shape {bias.data.shape} != ({out_ch},)")

    b, length, _ = x.data.shape
    r = width // 2
    if r:
        xp = np.zeros((b, length + 2 * r, in_ch), dtype=np.float32)
        xp[:, r : r + length] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    out_data = np.broadcast_to(bias.data, (b, length, out_ch)).copy()
    for w in range(width):
        out_data += xp[:, w : w + length] @ filt.data[w]

    def backward(g):
        if filt.requires_grad:
            df = np.empty_like(filt.data)
            g2 = g.reshape(b * length, out_ch)
            for w in range(width):
                df[w] = xp[:, w : w + length].reshape(b * length, in_ch).T @ g2
            _accum(filt, df)
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 1)))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for w in range(width):
                dxp[:, w : w + length] += g @ filt.data[w].T
            _accum(x, dxp[:, r : r + length])

    return Tensor(out_data, parents=(x, filt, bias), backward=backward)


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the trailing axis; leading axes are preserved."""
    if weights.data.ndim != 2:
        raise ShapeError(f"dense weights must be 2-D, got {weights.data.shape}")
    n_in, n_out = weights.data.shape
    if x.data.shape[-1] != n_in:
        raise ShapeError(f"input trailing dim {x.data.shape[-1]} != weights rows {n_in}")
    if bias.data.shape != (n_out,):
        raise ShapeError(f"bias shape {bias.data.shape} != ({n_out},)")
    out_data = x.data @ weights.data + bias.data

    def backward(g):
        if weights.requires_grad:
            _accum(weights, x.data.reshape(-1, n_in).T @ g.reshape(-1, n_out))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, n_out).sum(axis=0))
        if x.requires_grad:
            _accum(x, g @ weights.data.T)

    return Tensor(out_data, parents=(x, weights, bias), backward=backward)


# ---------------------------------------------------------------------------
# normalization / regularization


def batch_norm(x: Tensor, mask: np.ndarray, params: LayerParams, train: bool) -> Tensor:
    """Per-channel batch normalization over masked-in positions.

    Statistics come from masked-in positions only; masked-out positions
    pass through the same affine transform. Training mode updates the
    running statistics in ``params.extra`` with EMA momentum 0.99; a batch
    mean or variance that is not finite in float32 raises ``NonFiniteError``
    naming the layer before they are touched.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"batch_norm expects [batch, length, ch], got {x.data.shape}")
    ch = x.data.shape[2]
    scale, shift = params.weights, params.biases
    if scale.data.shape != (ch,) or shift.data.shape != (ch,):
        raise ShapeError(f"scale/shift must be ({ch},)")
    m = np.asarray(mask, dtype=np.float32)
    if m.shape != x.data.shape[:2]:
        raise ShapeError(f"mask shape {m.shape} != leading dims {x.data.shape[:2]}")
    m3 = m[:, :, None]

    if train:
        n = float(m.sum(dtype=np.float64))
        if n < 2:
            raise DegenerateStatsError(
                f"batch statistics need >= 2 masked-in positions, got {int(n)}"
            )
        mean64 = (x.data * m3).sum(axis=(0, 1), dtype=np.float64) / n
        mean = mean64.astype(np.float32)
        centered = (x.data - mean) * m3
        var64 = (centered.astype(np.float64) ** 2).sum(axis=(0, 1)) / n
        var = var64.astype(np.float32)
        for stat, value in (("mean", mean), ("variance", var)):
            if not np.isfinite(value).all():
                raise NonFiniteError(f"non-finite batch {stat} in layer {params.name!r}")
        rmean, rvar = params.extra["running_mean"], params.extra["running_var"]
        rmean.data = (BN_MOMENTUM * rmean.data + (1.0 - BN_MOMENTUM) * mean).astype(np.float32)
        rvar.data = (BN_MOMENTUM * rvar.data + (1.0 - BN_MOMENTUM) * var).astype(np.float32)
    else:
        mean = params.extra["running_mean"].data
        var = params.extra["running_var"].data

    inv = 1.0 / np.sqrt(var + np.float32(BN_EPS))
    xhat = (x.data - mean) * inv
    out_data = xhat * scale.data + shift.data

    def backward(g):
        if scale.requires_grad:
            _accum(scale, (g * xhat).sum(axis=(0, 1)))
        if shift.requires_grad:
            _accum(shift, g.sum(axis=(0, 1)))
        if not x.requires_grad:
            return
        dxhat = g * scale.data
        if not train:
            _accum(x, dxhat * inv)
            return
        # All positions were normalized with the masked statistics, so the
        # sums below run over every position while only masked-in positions
        # receive the mean/variance correction terms.
        s1 = dxhat.sum(axis=(0, 1))
        s2 = (dxhat * xhat).sum(axis=(0, 1))
        dx = inv * (dxhat - m3 * (s1 + xhat * s2) / np.float32(n))
        _accum(x, dx)

    return Tensor(out_data, parents=(x, scale, shift), backward=backward)


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: surviving units are scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ParameterError("training-mode dropout needs an rng")
    keep = (rng.random(x.data.shape) >= rate).astype(np.float32)
    keep /= np.float32(1.0 - rate)
    out_data = x.data * keep

    def backward(g):
        _accum(x, g * keep)

    return Tensor(out_data, parents=(x,), backward=backward)


def max_norm_project(weights: np.ndarray, c: float) -> np.ndarray:
    """Scale each column (one output unit's incoming weights) to l2 norm <= c.

    Columns already inside the bound are returned bit-identical, and the
    projection is idempotent: a projected column's norm lands close
    enough to c that a second call leaves it untouched.
    """
    if c <= 0:
        raise ParameterError(f"max-norm bound must be positive, got {c}")
    w = np.asarray(weights, dtype=np.float32)
    if w.ndim != 2:
        raise ShapeError(f"max_norm_project expects a 2-D matrix, got {w.shape}")
    w64 = w.astype(np.float64)
    norms = np.sqrt((w64 * w64).sum(axis=0))
    over = norms > c * (1.0 + _MAX_NORM_SLACK)
    if not over.any():
        return w.copy()
    scale = np.ones_like(norms)
    scale[over] = c / norms[over]
    return (w64 * scale).astype(np.float32)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over masked-in positions.

    logits: [batch, length, classes], labels: [batch, length] ints,
    mask: [batch, length]. The per-position sums accumulate in float64.
    """
    if logits.data.ndim != 3:
        raise ShapeError(f"logits must be [batch, length, classes], got {logits.data.shape}")
    labels = np.asarray(labels)
    m = np.asarray(mask, dtype=np.float32)
    if labels.shape != logits.data.shape[:2] or m.shape != labels.shape:
        raise ShapeError("labels/mask must match the logits' leading dims")
    k = logits.data.shape[2]
    masked_in = m > 0
    n = int(masked_in.sum())
    if n == 0:
        raise EmptyLossError("loss over zero masked-in positions is undefined")
    picked_labels = labels[masked_in]
    if picked_labels.size and (picked_labels.min() < 0 or picked_labels.max() >= k):
        raise ParameterError(f"labels at masked-in positions must lie in [0, {k})")

    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=-1, keepdims=True)
    logp = (z - zmax) - np.log(sez)
    picked = np.take_along_axis(logp, labels[..., None].astype(np.int64) % k, axis=-1)[..., 0]
    loss64 = -(picked.astype(np.float64) * m.astype(np.float64)).sum() / n
    out_data = np.float32(loss64)

    def backward(g):
        if not logits.requires_grad:
            return
        softmax = ez / sez
        onehot = np.zeros_like(z)
        np.put_along_axis(onehot, labels[..., None].astype(np.int64) % k, 1.0, axis=-1)
        d = (softmax - onehot) * m[..., None] / np.float32(n)
        _accum(logits, d * g)

    return Tensor(out_data, parents=(logits,), backward=backward)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log softmax over the trailing axis (float64)."""
    z = np.asarray(logits, dtype=np.float64)
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    return (z - zmax) - np.log(ez.sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""

    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            first_moment={k: np.zeros_like(t.data) for k, t in params.items()},
            second_moment={k: np.zeros_like(t.data) for k, t in params.items()},
            step=0,
        )


def adam_update(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam step over ``params`` in place; missing gradients count as zero.
    A non-finite gradient or updated value raises ``NonFiniteError`` naming its parameter."""
    if lr <= 0:
        raise ParameterError(f"learning rate must be positive, got {lr}")
    state.step += 1
    t = state.step
    b1c = 1.0 - ADAM_BETA1**t
    b2c = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        mhat = m / np.float32(b1c)
        vhat = v / np.float32(b2c)
        p.data -= np.float32(lr) * mhat / (np.sqrt(vhat) + np.float32(ADAM_EPS))
        if not np.isfinite(p.data).all():
            raise NonFiniteError(f"non-finite update of parameter {name!r}")
