"""Span tracer that times chaincnn's layers from outside the package.

``Tracer.installed()`` replaces each traced public function with a wrapper
wherever a caller looks it up: every chaincnn module attribute bound to the
original function (``chaincnn.cli.beam_search``, ``chaincnn.training.make_batch``,
``chaincnn.tensor.conv1d`` as reached through ``T.``, ...) and the methods
``Model.forward``, ``Model.forward_window`` and ``Tensor.backward``. Tensor ops
also get their returned tensor's backward closure wrapped, so backward time is
attributed per op. Leaving the context restores every original. Wrappers never
touch the values passing through, so traced runs compute bit-identical results.

Spans (name, start, end, parent, op id) stay in memory until ``write``. A
span's self time is its duration minus the time its child spans cover. Counts
(calls, flops, bytes, rows, residues) are computed from array shapes, not
measured, and repeat exactly for identical work.
"""

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import chaincnn.cli
import chaincnn.data
import chaincnn.inference
import chaincnn.metrics
import chaincnn.model
import chaincnn.tensor
import chaincnn.training

MODULES = ("cli", "data", "model", "tensor", "inference", "training", "metrics")
_PACKAGE = {name: getattr(chaincnn, name) for name in MODULES}

CONV_WIDTHS = (1, 3, 7, 9)
STEP_PHASES = {  # phase -> span name timed inclusively when called by train itself
    "sampling_s": "training.scheduled_sampling_pass",
    "batch_s": "data.make_batch",
    "forward_s": "model.forward",
    "backward_s": "tensor.backward",
    "adam_s": "tensor.adam_update",
    "max_norm_s": "tensor.max_norm_project",
}
_PHASE_OF = {span: phase for phase, span in STEP_PHASES.items()}

# (name, unit) of every per-layer metric, in report order. Times are seconds
# per operation (one train call or one CLI call), except training.step.*,
# which are seconds per optimizer step.
PER_LAYER = (
    [(f"tensor.conv1d.w{w}.{d}_s", "s") for w in CONV_WIDTHS for d in ("fwd", "bwd")]
    + [("tensor.conv1d.calls", "count"), ("tensor.conv1d.flops", "flop"),
       ("tensor.dense.fwd_s", "s"), ("tensor.dense.bwd_s", "s"),
       ("tensor.dense.calls", "count"), ("tensor.dense.flops", "flop"),
       ("tensor.gather_windows.fwd_s", "s"), ("tensor.gather_windows.bwd_s", "s"),
       ("tensor.gather_windows.bytes", "byte")]
    + [(f"tensor.{op}.{d}_s", "s")
       for op in ("batch_norm", "dropout", "elementwise", "softmax_cross_entropy")
       for d in ("fwd", "bwd")]
    + [(f"tensor.{op}.self_s", "s")
       for op in ("backward", "adam_update", "max_norm_project", "log_softmax")]
    + [("model.forward.calls", "count"), ("model.forward.self_s", "s"),
       ("model.forward.positions", "count"), ("model.forward_window.calls", "count"),
       ("model.forward_window.rows", "count"), ("model.forward_window.self_s", "s"),
       ("inference.beam_search.calls", "count"), ("inference.beam_search.self_s", "s"),
       ("inference.beam_search.residues", "count"),
       ("inference.ensemble_step_score.self_s", "s"),
       ("inference.extract_window.self_s", "s"),
       ("inference.context_window.calls", "count"), ("inference.context_window.self_s", "s"),
       ("inference.decode_independent.calls", "count"),
       ("inference.decode_independent.self_s", "s"),
       ("training.train.self_s", "s"),
       ("training.scheduled_sampling_pass.calls", "count"),
       ("training.scheduled_sampling_pass.self_s", "s"),
       ("training.evaluate_q8.self_s", "s"), ("training.beam_q8.self_s", "s"),
       ("training.checkpoint_from_model.self_s", "s"),
       ("training.bind_checkpoint.self_s", "s"), ("training.load_checkpoint.self_s", "s")]
    + [(f"training.step.{phase}", "s") for phase in STEP_PHASES]
    + [("data.make_batch.calls", "count"), ("data.make_batch.self_s", "s"),
       ("data.make_batch.pad_frac", "fraction"), ("data.load_npy.self_s", "s"),
       ("data.load_npy.bytes", "byte"), ("data.records_from_matrix.self_s", "s"),
       ("data.apply_pssm_stats.self_s", "s"), ("data.split_records.self_s", "s"),
       ("data.load_native.self_s", "s"),
       ("cli.main.self_s", "s"), ("cli.load_records.self_s", "s"),
       ("cli.load_run_config.self_s", "s"),
       ("metrics.q8.self_s", "s"), ("metrics.confusion_matrix.self_s", "s"),
       ("metrics.render_report.self_s", "s")]
    + [(f"{module}.errors", "count") for module in MODULES]
    + [("trace.overhead_frac", "fraction")]
)

# Public functions timed as plain spans, named "<module>.<attribute>".
_PLAIN = [
    "tensor.adam_update", "tensor.max_norm_project", "tensor.log_softmax",
    "inference.ensemble_step_score", "inference.extract_window",
    "training.train", "training.evaluate_q8", "training.beam_q8",
    "training.checkpoint_from_model", "training.bind_checkpoint", "training.load_checkpoint",
    "data.records_from_matrix", "data.apply_pssm_stats", "data.split_records",
    "data.load_native",
    "cli.main", "cli.load_records", "cli.load_run_config",
    "metrics.q8", "metrics.confusion_matrix", "metrics.render_report",
]
# Plain spans that also count their calls.
_COUNTED = [
    "inference.context_window", "inference.decode_independent",
    "training.scheduled_sampling_pass",
]
# Tensor ops timed forward and backward without counts: attribute -> span family.
_OPS = {
    "batch_norm": "tensor.batch_norm",
    "dropout": "tensor.dropout",
    "relu": "tensor.elementwise",
    "apply_mask": "tensor.elementwise",
    "concat_channels": "tensor.elementwise",
    "softmax_cross_entropy": "tensor.softmax_cross_entropy",
}


def _lookup(name):
    module, attr = name.split(".")
    return getattr(_PACKAGE[module], attr)


def _metric_of(span_name):
    if span_name.endswith((".fwd", ".bwd")):
        return span_name + "_s"
    return span_name + ".self_s"


class Tracer:
    """Collects spans and shape-derived counts for one benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op_id = None
        self.op_metrics = []  # one dict of per-layer values per finished operation
        self._stack = []
        self._counts = defaultdict(float)
        self._errors = defaultdict(int)
        self._seen_errors = set()
        self._op_start = 0
        self._steps = 0

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            if id(err) not in self._seen_errors:  # count once, at the innermost span
                self._seen_errors.add(id(err))
                self._errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self._counts[name] += value

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_start = len(self.spans)
        self._counts = defaultdict(float)
        self._errors = defaultdict(int)
        self._steps = 0

    def step_done(self, op_id):
        """Mark the end of one optimizer step; later spans carry ``op_id``."""
        self._steps += 1
        self.op_id = op_id

    def end_op(self):
        """Fold the current operation's spans and counts into one metric dict."""
        spans = self.spans[self._op_start:]
        base = self._op_start
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= base:
                child[parent - base] += end - start
        values = {name: 0.0 for name, _ in PER_LAYER}
        phases = dict.fromkeys(STEP_PHASES, 0.0)
        train_spans = {i + base for i, s in enumerate(spans) if s[0] == "training.train"}
        for i, (name, start, end, parent, _) in enumerate(spans):
            metric = _metric_of(name)
            if metric in values:
                values[metric] += end - start - child[i]
            if parent in train_spans and name in _PHASE_OF:
                phases[_PHASE_OF[name]] += end - start
        for phase, total in phases.items():
            values[f"training.step.{phase}"] = total / self._steps if self._steps else 0.0
        for name, total in self._counts.items():
            if name in values:
                values[name] = total
        positions = self._counts.get("data.make_batch.positions", 0)
        if positions:
            values["data.make_batch.pad_frac"] = self._counts["data.make_batch.padded"] / positions
        for module in MODULES:
            values[f"{module}.errors"] = self._errors.get(module, 0)
        self.op_metrics.append(values)
        self.op_id = None

    def summary(self, overhead_frac):
        """Median over finished operations of every per-layer metric."""
        out = {name: statistics.median(op[name] for op in self.op_metrics)
               for name, _ in PER_LAYER if name != "trace.overhead_frac"}
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write(self, path, env):
        """Write ``env`` and every span as JSON: name, start, end, parent index, op id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "env": env,
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "names": names,
                "spans": [[index[n], round(a, 7), round(b, 7), p, op]
                          for n, a, b, p, op in self.spans],
            }, fh)

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_backward(self, out, inputs, name, on_backward=None):
        """Time ``out``'s backward closure as span ``name``."""
        if not isinstance(out, chaincnn.tensor.Tensor) or out._backward is None:
            return
        if any(out is x for x in inputs):  # e.g. dropout in infer mode returns its input
            return
        inner = out._backward

        def backward(g):
            if on_backward is not None:
                on_backward()
            self.call(name, inner, (g,), {})

        out._backward = backward

    def _op(self, fn, family, counts=None):
        def wrapper(*args, **kwargs):
            out = self.call(family + ".fwd", fn, args, kwargs)
            if counts is not None:
                counts(out, *args, **kwargs)
            self._traced_backward(out, args, family + ".bwd")
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _linear(self, fn, family):
        """conv1d or dense: forward span, call and flop counts, traced backward.

        conv1d spans are split by filter width. Flops are 2 x multiply-adds of
        the forward matmuls, plus the same again per gradient (dW, dx) that
        backward computes.
        """
        def wrapper(x, weights, bias):
            *taps, n_in, n_out = weights.data.shape  # conv1d: [width, in, out]
            width = taps[0] if taps else 1
            flops = 2 * (x.data.size // n_in) * width * n_in * n_out
            name = f"{family}.w{width}" if taps else family
            out = self.call(name + ".fwd", fn, (x, weights, bias), {})
            self.count(family + ".calls")
            self.count(family + ".flops", flops)
            grads = int(weights.requires_grad) + int(x.requires_grad)
            self._traced_backward(out, (x, weights, bias), name + ".bwd",
                                  lambda: self.count(family + ".flops", grads * flops))
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name):
        return lambda *args, **kwargs: self.count(name)

    def _wrappers(self):
        """Wrappers for every traced module-level function."""
        tensor = _PACKAGE["tensor"]
        out = [self._span(name, _lookup(name)) for name in _PLAIN]
        out += [self._span(name, _lookup(name), self._counter(name + ".calls"))
                for name in _COUNTED]
        out += [self._op(getattr(tensor, attr), family) for attr, family in _OPS.items()]
        out += [self._linear(tensor.conv1d, "tensor.conv1d"),
                self._linear(tensor.dense, "tensor.dense")]

        def window_bytes(out, *args, **kwargs):
            self.count("tensor.gather_windows.bytes", out.data.nbytes)

        def batch_counts(batch, *args, **kwargs):
            self.count("data.make_batch.calls")
            self.count("data.make_batch.positions", batch.mask.size)
            self.count("data.make_batch.padded", batch.mask.size - float(batch.mask.sum()))

        def npy_bytes(_, path):
            self.count("data.load_npy.bytes", os.path.getsize(path))

        def beam_counts(_, model, record, *args, **kwargs):
            self.count("inference.beam_search.calls")
            self.count("inference.beam_search.residues", record.length)

        return out + [
            self._op(tensor.gather_windows, "tensor.gather_windows", window_bytes),
            self._span("data.make_batch", chaincnn.data.make_batch, batch_counts),
            self._span("data.load_npy", chaincnn.data.load_npy, npy_bytes),
            self._span("inference.beam_search", chaincnn.inference.beam_search, beam_counts),
        ]

    def _method_wrappers(self):
        """(class, attribute, wrapper) for every traced method."""
        model_cls = chaincnn.model.Model

        def forward_counts(_, model, features, *rest, **kwargs):
            self.count("model.forward.calls")
            self.count("model.forward.positions", features.shape[0] * features.shape[1])

        def window_counts(_, model, features, *rest, **kwargs):
            self.count("model.forward_window.calls")
            self.count("model.forward_window.rows", 1 if features.ndim == 2 else features.shape[0])

        return [
            (model_cls, "forward", self._span("model.forward", model_cls.forward, forward_counts)),
            (model_cls, "forward_window",
             self._span("model.forward_window", model_cls.forward_window, window_counts)),
            (chaincnn.tensor.Tensor, "backward",
             self._span("tensor.backward", chaincnn.tensor.Tensor.backward)),
        ]

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        patches = []
        try:
            for wrapper in self._wrappers():
                original = wrapper.__wrapped__
                for mod in _PACKAGE.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for cls, attr, wrapper in self._method_wrappers():
                patches.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)
            yield self
        finally:
            for obj, key, original in reversed(patches):
                setattr(obj, key, original)
