"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q benchmarks
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import chaincnn.cli  # noqa: E402
import chaincnn.model  # noqa: E402
import chaincnn.tensor  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CASE = 3
_W = workloads.WORKLOADS
TINY = {
    "train_chained": dataclasses.replace(
        _W["train_chained"], batch_size=2, steps=2, train_lengths=(4, 8, 16),
        validation_lengths=(1, 6, 6)),
    "train_ablation": dataclasses.replace(
        _W["train_ablation"], batch_size=3, steps=2, train_lengths=(4, 8, 16),
        validation_lengths=(1, 6, 6)),
    "decode_beam": dataclasses.replace(_W["decode_beam"], lengths=(2, 5, 7)),
    "decode_argmax": dataclasses.replace(_W["decode_argmax"], lengths=(4, 5, 20)),
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def traced_op(workload, inputs):
    tracer = tracing.Tracer()
    tracer.begin_op("op0")
    with tracer.installed():
        result = workload.run_op(inputs, tracer, "op0")
    tracer.end_op()
    return result, tracer


def reference_for(workload, tmp_path):
    """The tiny workload's own untraced output, shaped like a reference file."""
    workdir = tmp_path / "ref"
    workdir.mkdir()
    result = workload.run_op(workload.setup(str(workdir), CASE))
    if isinstance(workload, workloads.TrainWorkload):
        return {"final_loss": result.output[-1], "tolerance": 0.0}
    return {"outputs": {CASE: result.output}}


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_leaves_outputs_bit_identical(name, tmp_path):
    originals = (chaincnn.tensor.conv1d, chaincnn.cli.beam_search,
                 chaincnn.model.Model.forward, chaincnn.tensor.Tensor.backward)
    workload = TINY[name]
    inputs = workload.setup(str(tmp_path), CASE)
    plain = workload.run_op(inputs)
    traced, tracer = traced_op(workload, inputs)
    assert traced.output == plain.output
    assert traced.checkpoint_sha256 == plain.checkpoint_sha256
    assert len(tracer.spans) > 0
    assert all(v == 0 for k, v in tracer.op_metrics[0].items() if k.endswith(".errors"))
    assert (chaincnn.tensor.conv1d, chaincnn.cli.beam_search,
            chaincnn.model.Model.forward, chaincnn.tensor.Tensor.backward) == originals


def test_traced_counts_follow_from_shapes(tmp_path):
    workload = TINY["decode_beam"]
    inputs = workload.setup(str(tmp_path), CASE)
    _, tracer = traced_op(workload, inputs)
    values = tracer.op_metrics[0]
    members, residues = workload.members, inputs["residues"]
    assert values["inference.beam_search.calls"] == workload.lengths[0]
    assert values["inference.beam_search.residues"] == residues
    # one window forward per member per position
    assert values["model.forward_window.calls"] == members * residues
    assert values["cli.main.self_s"] > 0


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name in listed]
    assert set(listed) <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_reports_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    workload = TINY[name]
    result, lines = bench.run(workload, CASE, 0, trace, reference_for(workload, tmp_path))
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    expected = tracing.PER_LAYER if trace else bench.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(expected)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env = ") for line in lines)


def test_failed_check_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    result, lines = bench.run(TINY["decode_argmax"], CASE, 0, 0,
                              {"outputs": {CASE: "not the report"}})
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"] == {}
    assert f"failed_frac = 1 ({result['failed']} of {result['attempted']})" in lines


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "decode_argmax",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
