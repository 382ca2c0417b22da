"""Command-line entry point: train, eval, predict, and the ablation ladder.

Configs are flat UTF-8 ``key = value`` files (``#`` starts a comment). Every
key is validated against a fixed schema and unknown keys are rejected.
``--set KEY=VALUE`` flags override file values. Exit codes: 0 success,
1 usage or config error, 2 data or file-system error, 3 numerical failure.

A data directory holds the training corpus as ``corpus.npy`` (raw source
matrix) or ``corpus.txt`` (native text format), plus an optional
``test.npy``/``test.txt`` holdout. Each command reads only the file it uses:
``train`` and ``eval --split validation`` the corpus, ``eval --split test``
the holdout. Training writes ``<out>.cfg`` next to the checkpoint so
eval/predict can rebuild the architecture.
"""

import argparse
import dataclasses
import os
import sys
import typing
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import (
    compute_pssm_stats,
    labels_to_string,
    load_native,
    load_npy_records,
    split_records,
)
from .errors import (
    ChainCnnError,
    CheckpointError,
    ConfigError,
    DataFormatError,
    NonFiniteError,
    UsageError,
)
from .inference import (
    DEFAULT_BEAM_WIDTH,
    Ensemble,
    beam_search,  # noqa: F401  unused here; benchmarks/ traces chaincnn.cli.beam_search
    decode_records,
)
from .metrics import confusion_matrix, render_report
from .model import BlockSpec, ModelConfig, build
from .training import (
    TrainConfig,
    bind_checkpoint,
    load_checkpoint,
    save_checkpoint,
    train,
    write_atomic,
)

@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    training: TrainConfig
    data_dir: str | None = None
    n_validation: int = 256


# ---------------------------------------------------------------------------
# config parsing: flat key=value with a closed schema. The keys are the fields
# of ModelConfig and TrainConfig plus ``data`` and ``n_validation``; each is
# parsed by its field's type, and an absent key takes the field's default.

_ALL_KEYS = frozenset(
    f.name for cls in (ModelConfig, TrainConfig) for f in dataclasses.fields(cls)
) | {"data", "n_validation"}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _parse_conv(text: str) -> tuple[int, int]:
    parts = text.strip().split("x")
    if len(parts) != 2:
        raise ConfigError(f"cannot parse convolution {text.strip()!r}, expected WIDTHxDEPTH")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as err:
        raise ConfigError(f"cannot parse convolution {text.strip()!r}: {err}") from err


def _parse_blocks(text: str) -> tuple[BlockSpec, ...]:
    text = text.strip()
    if not text or text == "none":
        return ()
    blocks = []
    for part in text.split("|"):
        single = None
        if "+" in part:
            part, single_text = part.split("+", 1)
            single = _parse_conv(single_text)
        multi = tuple(_parse_conv(p) for p in part.split(",") if p.strip())
        blocks.append(BlockSpec(multi_scale=multi, single_scale=single))
    return tuple(blocks)


def _render_blocks(blocks: tuple[BlockSpec, ...]) -> str:
    parts = []
    for b in blocks:
        text = ",".join(f"{w}x{d}" for w, d in b.multi_scale)
        if b.single_scale is not None:
            text += "+{}x{}".format(*b.single_scale)
        parts.append(text)
    return " | ".join(parts) if parts else "none"


def _parse_value(key: str, raw: str, kind):
    if kind == tuple[BlockSpec, ...]:
        return _parse_blocks(raw)
    if kind == float | None:
        return None if raw == "none" else _parse_value(key, raw, float)
    if kind is bool:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as err:
        raise ConfigError(f"key {key!r}: {err}") from err


def _render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return _render_blocks(value)
    return str(value)


def _from_values(cls, values: dict[str, str], **given):
    """Build config dataclass ``cls``: a field whose key is in ``values`` is
    parsed by its type, any other takes ``given`` or else its default."""
    types = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name in values:
            given[f.name] = _parse_value(f.name, values[f.name], types[f.name])
        elif f.name not in given and f.default is dataclasses.MISSING:
            raise ConfigError(f"missing required key {f.name!r}")
    return cls(**given)


def build_run_config(values: dict[str, str], seed_override: int | None = None) -> RunConfig:
    unknown = sorted(set(values) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    model = _from_values(ModelConfig, values)
    model.validate()
    training = _from_values(TrainConfig, values)
    # --seed beats the file's seed, which has failed above if malformed
    if seed_override is not None:
        training = dataclasses.replace(training, seed=seed_override)
    training.validate()
    run = _from_values(RunConfig, values, model=model, training=training,
                       data_dir=values.get("data") or None)
    if run.n_validation < 0:
        raise ConfigError(f"n_validation must be >= 0, got {run.n_validation}")
    return run


def render_config(run: RunConfig) -> str:
    """Serialize a RunConfig so that re-parsing yields an equal config."""
    pairs = [(f.name, getattr(section, f.name))
             for section in (run.model, run.training) for f in dataclasses.fields(section)]
    pairs.append(("n_validation", run.n_validation))
    if run.data_dir:
        pairs.append(("data", run.data_dir))
    return "".join(f"{key} = {_render_value(value)}\n" for key, value in pairs)


def shipped_config_names() -> list[str]:
    root = resources.files("chaincnn") / "configs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def read_config_source(name: str) -> tuple[str, str]:
    """Resolve a --config argument to (text, source label).

    Accepts a filesystem path or the bare name of a shipped config
    (``ablation_row1`` .. ``ablation_row9``, ``chained``).
    """
    if os.path.exists(name):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                return fh.read(), name
        except UnicodeDecodeError as err:
            raise ConfigError(f"{name}: not UTF-8 text: {err}") from err
    base = name if name.endswith(".cfg") else name + ".cfg"
    candidate = resources.files("chaincnn") / "configs" / base
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8"), f"chaincnn:{base}"
    raise ConfigError(
        f"no config file {name!r}; shipped configs: {', '.join(shipped_config_names())}"
    )


def load_run_config(name: str, sets, seed_override: int | None = None) -> RunConfig:
    text, source = read_config_source(name)
    values = parse_config_text(text, source)
    for item in sets:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        values[key] = value
    return build_run_config(values, seed_override)


# ---------------------------------------------------------------------------
# data plumbing


def load_records(data_dir: str | None, stem: str):
    """The labelled records of ``{stem}.npy``, or else ``{stem}.txt``, in ``data_dir``.

    Exactly one file is read. Every caller scores against labels, so a file
    without records, or a record without labels or residues, is a data error
    naming the file (and the record).
    """
    if data_dir is None:
        raise UsageError("no data directory: pass --data or set 'data =' in the config")
    if not os.path.isdir(data_dir):
        raise DataFormatError(f"data directory {data_dir!r} does not exist")
    path = os.path.join(data_dir, stem + ".npy")
    if os.path.exists(path):
        records = load_npy_records(path)
    elif os.path.exists(path := os.path.join(data_dir, stem + ".txt")):
        records = load_native(path)
    else:
        raise DataFormatError(f"no {stem}.npy or {stem}.txt in {data_dir!r}")
    if not records:
        raise DataFormatError(f"{path}: no records")
    for r in records:
        if r.labels is None:
            raise DataFormatError(f"{path}: record {r.id} has no labels")
        if r.length == 0:  # an all-no-seq source row
            raise DataFormatError(f"{path}: record {r.id} has no residues")
    return records


def prepare_split(run: RunConfig, data_dir: str | None):
    records = load_records(data_dir, "corpus")
    if run.n_validation > len(records):
        raise ConfigError(f"n_validation = {run.n_validation} exceeds a corpus of "
                          f"{len(records)} records")
    return split_records(records, n_val=run.n_validation, seed=run.training.seed)


def _load_ensemble(paths) -> tuple[Ensemble, list[RunConfig]]:
    """The checkpoints as one ensemble, plus each member's run config."""
    models, runs = [], []
    for path in paths:
        ckpt = load_checkpoint(path)  # a missing checkpoint is named before its sidecar
        sidecar = path + ".cfg"
        if not os.path.exists(sidecar):
            raise ConfigError(f"missing config sidecar {sidecar!r}")
        run = load_run_config(sidecar, [])
        model = build(run.model, None)  # the checkpoint sets every weight
        try:
            bind_checkpoint(ckpt, model)
        except CheckpointError as err:
            raise CheckpointError(f"{path}: {err}") from err
        models.append(model)
        runs.append(run)
    return Ensemble(tuple(models)), runs


# ---------------------------------------------------------------------------
# commands


def _check_output(path: str) -> None:
    """Fail before any work if ``path`` is a directory or its directory is missing."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        state = "is not a directory" if os.path.exists(out_dir) else "does not exist"
        raise FileNotFoundError(f"output directory {out_dir!r} {state}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output {path!r} is a directory")


def _train_and_save(run: RunConfig, out_path: str, make_dir: bool = False) -> int:
    """Train ``run`` and write ``out_path`` with its sidecar; ``make_dir``
    makes a missing output directory, but only once the data has loaded."""
    out_dir = os.path.dirname(out_path) or "."
    missing = make_dir and not os.path.exists(out_dir)
    if not missing:
        for path in (out_path, out_path + ".cfg"):  # before training, which can take hours
            _check_output(path)
    split = prepare_split(run, run.data_dir)
    if not split.train:
        raise ConfigError(f"n_validation = {run.n_validation} leaves no training records "
                          f"in a corpus of {len(split.validation)}")
    if missing:
        os.makedirs(out_dir)
    model = build(run.model, np.random.default_rng(run.training.seed))
    mean, std = compute_pssm_stats(split.train)
    model.buffers["input_norm.pssm_mean"].data[...] = mean
    model.buffers["input_norm.pssm_std"].data[...] = std
    ckpt = train(model, split, run.training, log=print)
    save_checkpoint(ckpt, out_path)
    write_atomic(out_path + ".cfg", render_config(run).encode("utf-8"))
    print(f"wrote {out_path} (iteration {ckpt.iteration}), "
          f"best validation q8 {ckpt.best_validation_q8:.6f}")
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config, args.set, args.seed)
    return _train_and_save(dataclasses.replace(run, data_dir=args.data or run.data_dir), args.out)


def cmd_eval(args) -> int:
    ensemble, runs = _load_ensemble(args.ckpt)
    run = runs[0]
    data_dir = args.data or run.data_dir
    if args.split == "test":
        chosen = load_records(data_dir, "test")
    else:
        # the validation split follows from these; members must agree on it
        def split_of(r):
            return r.training.seed, r.n_validation, args.data or r.data_dir

        for path, other in zip(args.ckpt, runs):
            if split_of(other) != split_of(run):
                raise ConfigError(
                    f"{path} was trained on another validation split than {args.ckpt[0]} "
                    "(seed, n_validation or data differ); use --split test")
        chosen = prepare_split(run, data_dir).validation
    preds = decode_records(ensemble, chosen, args.beam_width)
    report = render_report(confusion_matrix(preds, chosen), digits=None if args.raw else 3)
    print(report, end="")
    return 0


def cmd_predict(args) -> int:
    _check_output(args.output)
    ensemble, _ = _load_ensemble(args.ckpt)
    records = load_native(args.input)
    preds = decode_records(ensemble, records, args.beam_width)
    lines = (f"{record.id}\t{labels_to_string(pred)}\n" for record, pred in zip(records, preds))
    write_atomic(args.output, "".join(lines).encode("utf-8"))
    print(f"wrote {len(records)} predictions to {args.output}")
    return 0


def cmd_ablate(args) -> int:
    if not 1 <= args.row <= 9:
        raise ConfigError(f"ablation row must be in 1..9, got {args.row}")
    run = load_run_config(f"ablation_row{args.row}", args.set, args.seed)
    return _train_and_save(dataclasses.replace(run, data_dir=args.data),
                           os.path.join(args.out, f"row{args.row}.ckpt"), make_dir=True)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def positive_int(text: str) -> int:
    """Type of ``--beam-width``: argparse rejects a width below 1 before any file is read."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincnn",
        description="Eight-class protein secondary structure prediction with "
                    "multi-scale convolutional and next-step conditioned models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True,
                   help="config path or a shipped config name (see README)")
    p.add_argument("--data", help="directory with corpus.npy/corpus.txt")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, help="overrides the config's seed")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")

    p = sub.add_parser("eval", help="evaluate checkpoints on a data split")
    p.add_argument("--ckpt", nargs="+", required=True,
                   help="one checkpoint, or several to form an ensemble")
    p.add_argument("--data", help="directory with corpus and optional test files")
    p.add_argument("--split", choices=("validation", "test"), default="validation")
    p.add_argument("--beam-width", type=positive_int, default=DEFAULT_BEAM_WIDTH,
                   help="beam width for conditioned models")
    p.add_argument("--raw", action="store_true",
                   help="print raw doubles instead of 3-decimal rounding")

    p = sub.add_parser("predict", help="predict structure strings for a fixture file")
    p.add_argument("--ckpt", nargs="+", required=True)
    p.add_argument("--input", required=True, help="native-format fixture file")
    p.add_argument("--output", required=True, help="destination for id<TAB>letters lines")
    p.add_argument("--beam-width", type=positive_int, default=DEFAULT_BEAM_WIDTH)

    p = sub.add_parser("ablate", help="train one row of the ablation ladder")
    p.add_argument("--row", type=int, required=True, help="ladder row, 1..9")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ChainCnnError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, NonFiniteError):
            return 3
        return 2 if isinstance(err, (DataFormatError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
