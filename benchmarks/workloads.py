"""The benchmark's workloads: seeded inputs, one operation, and output checks.

Every input is generated in ``setup`` from a case number, which is the run's
seed reduced modulo ``CASES`` so that each seed has checked-in reference
outputs. The program sees only files and records made here: corpus files,
untrained checkpoints written with ``save_checkpoint`` and their
``render_config`` sidecars. An operation drives the program through its public
entry points only: ``chaincnn.training.train`` for the training workloads and
in-process ``chaincnn.cli.main`` for the decode workloads.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chaincnn.cli as cli
import chaincnn.data as data
import chaincnn.model as model_lib
import chaincnn.training as training

CASES = 64
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class OpResult:
    """What one operation produced and how long it took."""

    wall_s: float = 0.0
    step_s: list = field(default_factory=list)  # optimizer step times, training only
    output: object = None  # compared against the reference by ``check``
    checkpoint_sha256: str | None = None
    error: str | None = None


def spaced_lengths(count, shortest, longest, rng):
    """``count`` lengths evenly spaced over [shortest, longest], in seeded order.

    Every case gets the same multiset, so the work per operation does not
    depend on the seed; only contents and order do.
    """
    lengths = np.linspace(shortest, longest, count).round().astype(int)
    return [int(n) for n in rng.permutation(lengths)]


def synth_records(prefix, lengths, rng, labelled=True):
    """Random residues, standard-normal PSSM columns and uniform labels."""
    records = []
    for i, n in enumerate(lengths):
        features = np.zeros((data.SEQ_LEN, data.NUM_FEATURES), dtype=np.float32)
        features[np.arange(n), rng.integers(0, len(data.RESIDUE_ALPHABET), n)] = 1.0
        features[:n, 21:] = rng.standard_normal((n, data.NUM_PSSM), dtype=np.float32)
        labels = None
        if labelled:
            labels = np.full(data.SEQ_LEN, data.NOSEQ_CLASS, dtype=np.int64)
            labels[:n] = rng.integers(0, data.NOSEQ_CLASS, n)
        mask = np.arange(data.SEQ_LEN) < n
        records.append(data.ProteinRecord(f"{prefix}{i:04d}", features, labels, mask, n))
    return records


def write_checkpoint(run, path, rng):
    """Save an untrained model built from ``rng`` plus its config sidecar."""
    model = model_lib.build(run.model, rng)
    training.save_checkpoint(training.checkpoint_from_model(model), path)
    with open(path + ".cfg", "w", encoding="utf-8") as fh:
        fh.write(cli.render_config(run))


def cli_op(argv, tracer, op_id):
    """Time one in-process ``chaincnn.cli.main`` call; its stdout is the output."""
    if tracer is not None:
        tracer.op_id = op_id
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        return OpResult(wall_s=wall, error=f"exit code {code}: {err.getvalue().strip()}")
    return OpResult(wall_s=wall, output=out.getvalue())


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class TrainWorkload:
    """One operation is a ``train`` call of ``steps`` optimizer steps from a
    seeded untrained checkpoint, ending with the final validation eval (and
    the beam re-rank for conditioned models)."""

    name: str
    config: str
    batch_size: int
    steps: int
    train_lengths: tuple  # (count, shortest, longest)
    validation_lengths: tuple = (1, 24, 24)

    def setup(self, workdir, case):
        rng = np.random.default_rng(case)
        run = cli.load_run_config(self.config, [
            f"batch_size={self.batch_size}", f"max_iterations={self.steps}",
            f"eval_every={self.steps}", "log_every=1", f"seed={case}",
        ])
        ckpt = os.path.join(workdir, "init.ckpt")
        write_checkpoint(run, ckpt, rng)
        split = data.DatasetSplit(
            train=synth_records("t", spaced_lengths(*self.train_lengths, rng), rng),
            validation=synth_records("v", spaced_lengths(*self.validation_lengths, rng), rng),
            test=[], seed=case,
        )
        return {"ckpt": ckpt, "split": split, "out": os.path.join(workdir, "trained.ckpt")}

    def run_op(self, inputs, tracer=None, op_id="op"):
        start = time.perf_counter()
        run = cli.load_run_config(inputs["ckpt"] + ".cfg", [])
        model = model_lib.build(run.model, np.random.default_rng(0))
        training.bind_checkpoint(training.load_checkpoint(inputs["ckpt"]), model)
        losses, ends = [], []

        def log(line):
            if " loss=" in line:
                ends.append(time.perf_counter())
                losses.append(float(line.split(" loss=", 1)[1].split()[0]))
                if tracer is not None:
                    phase = f"step{len(ends) + 1}" if len(ends) < self.steps else "final"
                    tracer.step_done(f"{op_id}/{phase}")

        if tracer is not None:
            tracer.op_id = f"{op_id}/step1"
        begin = time.perf_counter()
        ckpt = training.train(model, inputs["split"], run.training, log=log)
        training.save_checkpoint(ckpt, inputs["out"])
        wall = time.perf_counter() - start
        return OpResult(wall_s=wall, step_s=np.diff([begin] + ends).tolist(), output=losses,
                        checkpoint_sha256=_sha256(inputs["out"]))

    def check(self, result, reference, case):
        losses = result.output
        if len(losses) != self.steps:
            return f"logged {len(losses)} losses for {self.steps} steps"
        if not all(math.isfinite(x) for x in losses):
            return f"non-finite loss in {losses}"
        if abs(losses[-1] - reference["final_loss"]) > reference["tolerance"]:
            return (f"final loss {losses[-1]} outside {reference['final_loss']} "
                    f"+- {reference['tolerance']}")
        return None


@dataclass(frozen=True)
class BeamWorkload:
    """One operation is ``chaincnn predict`` with an ensemble of seeded
    conditioned checkpoints over a native-format file, width-8 beam search."""

    name: str
    config: str
    members: int
    lengths: tuple  # (count, shortest, longest)

    def setup(self, workdir, case):
        rng = np.random.default_rng(case)
        run = cli.load_run_config(self.config, [f"seed={case}"])
        ckpts = [os.path.join(workdir, f"member{i}.ckpt") for i in range(self.members)]
        for path in ckpts:
            write_checkpoint(run, path, rng)
        records = synth_records("q", spaced_lengths(*self.lengths, rng), rng, labelled=False)
        input_path = os.path.join(workdir, "input.txt")
        data.save_native(records, input_path)
        return {"argv": ["predict", "--ckpt", *ckpts, "--input", input_path,
                         "--output", os.path.join(workdir, "predicted.txt")],
                "residues": sum(r.length for r in records)}

    def run_op(self, inputs, tracer=None, op_id="op"):
        result = cli_op(inputs["argv"], tracer, op_id)
        if result.error is None:
            with open(inputs["argv"][-1], encoding="utf-8") as fh:
                result.output = fh.read()
        return result

    def check(self, result, reference, case):
        expected = reference["outputs"][case]
        if result.output == expected:
            return None
        got = dict(line.split("\t") for line in result.output.splitlines())
        want = dict(line.split("\t") for line in expected.splitlines())
        wrong = sorted(rid for rid in want if got.get(rid) != want[rid])
        return f"predicted labels differ from the reference for {wrong or 'the record set'}"


@dataclass(frozen=True)
class ArgmaxWorkload:
    """One operation is ``chaincnn eval --raw`` of one seeded unconditioned
    checkpoint over ``corpus.npy``; the sidecar's validation split is the
    whole corpus."""

    name: str
    config: str
    lengths: tuple  # (count, shortest, longest)

    def setup(self, workdir, case):
        rng = np.random.default_rng(case)
        count = self.lengths[0]
        run = cli.load_run_config(self.config, [f"seed={case}", f"n_validation={count}"])
        ckpt = os.path.join(workdir, "model.ckpt")
        write_checkpoint(dataclasses.replace(run, data_dir=workdir), ckpt, rng)
        records = synth_records("p", spaced_lengths(*self.lengths, rng), rng)
        np.save(os.path.join(workdir, "corpus.npy"),
                np.stack([data.encode_record(r) for r in records]))
        return {"argv": ["eval", "--ckpt", ckpt, "--raw"],
                "residues": sum(r.length for r in records)}

    def run_op(self, inputs, tracer=None, op_id="op"):
        return cli_op(inputs["argv"], tracer, op_id)

    def check(self, result, reference, case):
        if result.output == reference["outputs"][case]:
            return None
        return "--raw report differs from the reference"


# Why each workload exists is in BENCHMARK.json and README.md. Sizes keep
# several operations in one run on a 2-core box, and train_ablation's longest
# record at 300 keeps its peak RSS near 1.5 GB. BENCHMARK.json lists all but
# train_ablation, so that the listed workloads' runs can be longer within the
# total time for all runs; it still runs by name.
WORKLOADS = {w.name: w for w in (
    # the scheduled-sampling pass dominates each conditioned step
    TrainWorkload(name="train_chained", config="chained", batch_size=8, steps=5,
                  train_lengths=(48, 120, 140)),
    # no sampling pass: batched forward/backward over padded mixed lengths
    TrainWorkload(name="train_ablation", config="ablation_row9", batch_size=50, steps=5,
                  train_lengths=(200, 30, 300)),
    # width-8 beam search over a 2-model ensemble
    BeamWorkload(name="decode_beam", config="chained", members=2, lengths=(1, 160, 160)),
    # batch-1 argmax forwards plus corpus loading and metrics
    ArgmaxWorkload(name="decode_argmax", config="ablation_row9", lengths=(200, 30, 700)),
)}
