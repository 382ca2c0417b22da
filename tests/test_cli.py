"""Config schema, command smoke tests, and exit-code contracts."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

import chaincnn.cli
import chaincnn.inference
from chaincnn.cli import (
    _ALL_KEYS,
    RunConfig,
    build_run_config,
    load_run_config,
    main,
    parse_config_text,
    read_config_source,
    render_config,
    shipped_config_names,
)
from chaincnn.data import SEQ_LEN, SOURCE_COLUMNS, save_native, string_to_labels
from chaincnn.errors import ConfigError
from chaincnn.metrics import q8
from chaincnn.model import BlockSpec
from chaincnn.training import TrainConfig, load_checkpoint, save_checkpoint
from corpus import markov_corpus, rule_corpus, shipped_model, source_row
from test_inference import ensemble_on_disk, mixed_records
from test_training import CONV, FC

TINY_CFG = """\
# minimal convolutional model for smoke tests
fc_window = 3
fc_layers = 1
fc_width = 16
blocks = 3x8
conditioned = false
dropout_rate = 0.1
fc_max_norm = 10.0
lr_init = 0.01
lr_decay_factor = 0.5
lr_decay_every = 1000000
max_iterations = 30
batch_size = 4
eval_every = 10
patience = 50
log_every = 10
n_validation = 2
"""


@pytest.fixture()
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    save_native(rule_corpus(n=8, length=30, seed=0), str(d / "corpus.txt"))
    return str(d)


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def run_train(tmp_path, tiny_cfg, data_dir, name="m.ckpt", extra=()):
    out = str(tmp_path / name)
    code = main(["train", "--config", tiny_cfg, "--data", data_dir,
                 "--out", out, "--seed", "3", *extra])
    assert code == 0
    return out


class TestConfigParsing:
    def test_comments_and_blanks(self):
        values = parse_config_text("# all of it\n\nblocks = none  # trailing\n")
        assert values == {"blocks": "none"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("blocs = none\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("blocks = none\n\njust words\n")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            build_run_config(parse_config_text(
                TINY_CFG.replace("conditioned = false", "conditioned = maybe")))

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="fc_layers"):
            build_run_config(parse_config_text(
                TINY_CFG.replace("fc_layers = 1", "fc_layers = one")))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="max_iterations"):
            build_run_config({"fc_window": "17", "fc_layers": "5", "lr_init": "0.0004",
                              "lr_decay_factor": "0.5", "lr_decay_every": "35000"})

    def test_missing_lr_init(self):
        with pytest.raises(ConfigError, match="missing required key 'lr_init'"):
            build_run_config(parse_config_text(TINY_CFG.replace("lr_init = 0.01\n", "")))

    def test_blocks_grammar(self):
        run = build_run_config(parse_config_text(
            TINY_CFG.replace("blocks = 3x8", "blocks = 3x8,5x8+7x4 | +9x2")))
        assert run.model.blocks == (
            BlockSpec(multi_scale=((3, 8), (5, 8)), single_scale=(7, 4)),
            BlockSpec(multi_scale=(), single_scale=(9, 2)),
        )

    def test_bad_blocks_grammar(self):
        with pytest.raises(ConfigError, match="WIDTHxDEPTH"):
            build_run_config(parse_config_text(
                TINY_CFG.replace("blocks = 3x8", "blocks = 3by8")))

    def test_model_validation_applies(self):
        with pytest.raises(ConfigError, match="odd"):
            build_run_config(parse_config_text(
                TINY_CFG.replace("fc_window = 3", "fc_window = 4")))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("row", range(1, 10))
    def test_ablation_rows(self, row):
        run = load_run_config(f"ablation_row{row}", ["max_iterations=123"], seed_override=5)
        assert build_run_config(parse_config_text(render_config(run))) == run

    def test_every_field_survives(self):
        run = build_run_config(parse_config_text(TINY_CFG))
        blocks = (BlockSpec(multi_scale=((3, 8), (5, 4)), single_scale=(7, 6)),
                  BlockSpec(single_scale=(5, 2)))
        run = RunConfig(model=dataclasses.replace(run.model, blocks=blocks,
                                                  skip_connections=True,
                                                  skip_projection_depth=12,
                                                  conditioned=True),
                        training=TrainConfig(
                            lr_init=0.25, lr_decay_factor=0.125,
                            lr_decay_every=7, max_iterations=9, batch_size=3,
                            sampling_rate_init=0.3, sampling_rate_increment=0.05,
                            sampling_rate_every=11, eval_every=2, patience=4,
                            seed=99, log_every=13, target_q8=0.875),
                        data_dir="/some/where", n_validation=5)
        for section in (run.model, run.training, run):
            for f in dataclasses.fields(section):
                if f.default is not dataclasses.MISSING:
                    assert getattr(section, f.name) != f.default, f.name
        assert build_run_config(parse_config_text(render_config(run))) == run


class TestShippedConfigs:
    def test_names(self):
        assert shipped_config_names() == [f"ablation_row{i}" for i in range(1, 10)] + ["chained"]

    @pytest.mark.parametrize("row", range(1, 10))
    def test_rows_match_ladder(self, row):
        # every row trains unconditioned with its family's learning-rate
        # schedule and the paper's defaults for everything else; row 1, the
        # fully connected baseline, is the one without blocks
        run = load_run_config(f"ablation_row{row}", [])
        assert (run.model.blocks == ()) == (row == 1)
        assert not run.model.conditioned
        schedule = FC if row == 1 else CONV
        assert run.training == dataclasses.replace(schedule, max_iterations=1000000)
        assert (run.data_dir, run.n_validation) == (None, 256)

    @pytest.mark.parametrize("name", shipped_config_names())
    def test_states_every_key(self, name):
        # no row leans on a code default. ``data`` is left to --data or the
        # sidecar, and ``seed`` to --seed or --set seed=, so that the ladder
        # trains at seed 0 unless the command line names another
        values = parse_config_text(read_config_source(name)[0])
        assert set(values) == _ALL_KEYS - {"data", "seed"}

    def test_chained_is_conditioned_final(self):
        run = load_run_config("chained", [])
        assert run.model == dataclasses.replace(shipped_model("ablation_row9"), conditioned=True)
        assert run.training.sampling_rate_init == 0.4

    def test_unknown_name_lists_options(self):
        with pytest.raises(ConfigError, match="ablation_row1"):
            load_run_config("mystery", [])


class TestSeedResolution:
    def test_flag_beats_file(self, tiny_cfg):
        assert load_run_config(tiny_cfg, ["seed=7"], seed_override=11).training.seed == 11

    def test_default_zero(self, tiny_cfg):
        assert load_run_config(tiny_cfg, []).training.seed == 0

    def test_environment_changes_no_output(self, tmp_path, tiny_cfg, data_dir, monkeypatch):
        # a run that names no seed trains at seed 0 whatever the shell
        # exports, CHAINCNN_SEED included
        outs = []
        for env_seed in ("21", None):
            if env_seed is None:
                monkeypatch.delenv("CHAINCNN_SEED", raising=False)
            else:
                monkeypatch.setenv("CHAINCNN_SEED", env_seed)
            out = tmp_path / f"env{env_seed}.ckpt"
            assert main(["train", "--config", tiny_cfg, "--data", data_dir,
                         "--out", str(out)]) == 0
            outs.append((out.read_bytes(), Path(f"{out}.cfg").read_bytes()))
        assert outs[0] == outs[1]
        assert load_run_config(f"{out}.cfg", []).training.seed == 0

    def test_bad_seed_fails_under_flag(self):
        with pytest.raises(ConfigError, match="seed"):
            load_run_config("chained", ["seed=abc"], 3)

    def test_bad_file_seed_under_flag_exit_1(self, tmp_path, data_dir, capsys):
        path = tmp_path / "bad_seed.cfg"
        path.write_text(TINY_CFG + "seed = abc\n")
        code = main(["train", "--config", str(path), "--data", data_dir,
                     "--out", str(tmp_path / "m.ckpt"), "--seed", "3"])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_negative_seed_exit_1_before_data(self, tmp_path, tiny_cfg, data_dir, capsys,
                                              monkeypatch):
        def refuse(*args):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(chaincnn.cli, "load_records", refuse)
        out = ["--data", data_dir, "--out", str(tmp_path / "runs")]
        for argv in (["train", "--config", tiny_cfg, "--seed", "-1"],
                     ["train", "--config", tiny_cfg, "--set", "seed=-1"],
                     ["ablate", "--row", "2", "--seed", "-1"]):
            assert main(argv + out) == 1
            assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "runs").exists()

    def test_set_overrides(self, tiny_cfg):
        run = load_run_config(tiny_cfg, ["batch_size=2", "dropout_rate=0.0"])
        assert run.training.batch_size == 2 and run.model.dropout_rate == 0.0


class TestTrainCommand:
    def test_smoke_writes_checkpoint_and_sidecar(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        assert load_checkpoint(out).iteration > 0
        sidecar = load_run_config(out + ".cfg", [])
        assert sidecar.training.seed == 3 and sidecar.data_dir == data_dir
        assert "best validation q8" in capsys.readouterr().out

    def test_missing_data_dir_exit_2(self, tmp_path, tiny_cfg, capsys):
        code = main(["train", "--config", tiny_cfg, "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_config_exit_1(self, tmp_path, data_dir, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG + "wat = 1\n")
        code = main(["train", "--config", str(path), "--data", data_dir,
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1

    def test_non_utf8_config_exit_1(self, tmp_path, data_dir, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(TINY_CFG.encode() + b"# \xff\n")
        code = main(["train", "--config", str(path), "--data", data_dir,
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("shape", ((2, 39200), (5,)))
    def test_wrong_corpus_shape_exit_2(self, tmp_path, tiny_cfg, shape, capsys):
        d = tmp_path / "data"
        d.mkdir()
        np.save(d / "corpus.npy", np.zeros(shape, dtype=np.float32))
        code = main(["train", "--config", tiny_cfg, "--data", str(d),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: matrix ")

    @pytest.mark.parametrize("config", ["ablation_row2", "chained"])
    def test_unlabelled_corpus_exit_2(self, tmp_path, config, capsys):
        d = tmp_path / "data"
        d.mkdir()
        records = [dataclasses.replace(r, labels=None) for r in rule_corpus(n=12, length=30)]
        save_native(records, str(d / "corpus.txt"))
        code = main(["train", "--config", config, "--data", str(d),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "corpus.txt" in err and f"record {records[0].id} has no labels" in err

    def test_test_file_never_read(self, tmp_path, tiny_cfg, data_dir):
        (Path(data_dir) / "test.npy").write_bytes(b"not an npy file")
        run_train(tmp_path, tiny_cfg, data_dir)

    def test_seeded_runs_byte_identical(self, tmp_path, tiny_cfg, data_dir):
        a = run_train(tmp_path, tiny_cfg, data_dir, "a.ckpt")
        b = run_train(tmp_path, tiny_cfg, data_dir, "b.ckpt")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_out_in_missing_directory_exit_2(self, tmp_path, tiny_cfg, data_dir,
                                             monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the output directory")

        monkeypatch.setattr(chaincnn.cli, "train", no_training)
        missing = tmp_path / "missing"
        code = main(["train", "--config", tiny_cfg, "--data", data_dir,
                     "--out", str(missing / "m.ckpt")])
        assert code == 2
        want = f"error: output directory {str(missing)!r} does not exist\n"
        assert capsys.readouterr().err == want

    def test_out_is_a_directory_exit_2(self, tmp_path, tiny_cfg, data_dir, monkeypatch,
                                       capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the output path")

        monkeypatch.setattr(chaincnn.cli, "train", no_training)
        out = tmp_path / "m.ckpt"
        out.mkdir()
        code = main(["train", "--config", tiny_cfg, "--data", data_dir, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: output {str(out)!r} is a directory\n"

    def test_sidecar_is_a_directory_exit_2(self, tmp_path, tiny_cfg, data_dir, monkeypatch,
                                           capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the sidecar path")

        monkeypatch.setattr(chaincnn.cli, "train", no_training)
        out = tmp_path / "m.ckpt"
        sidecar = tmp_path / "m.ckpt.cfg"
        sidecar.mkdir()
        code = main(["train", "--config", tiny_cfg, "--data", data_dir, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: output {str(sidecar)!r} is a directory\n"
        assert not out.exists()

    def test_failed_sidecar_write_keeps_previous_exit_2(self, tmp_path, tiny_cfg, data_dir,
                                                        monkeypatch, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        before = Path(out + ".cfg").read_bytes()
        replace = os.replace

        def crash_on_sidecar(src, dst):
            if str(dst).endswith(".cfg"):
                raise OSError("simulated crash before the rename")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_sidecar)
        code = main(["train", "--config", tiny_cfg, "--data", data_dir,
                     "--out", out, "--seed", "4"])
        assert code == 2
        assert "simulated" in capsys.readouterr().err
        assert Path(out + ".cfg").read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("value", ("nan", "inf"))
    @pytest.mark.parametrize("key", ("fc_max_norm", "lr_init", "sampling_rate_increment"))
    def test_non_finite_hyperparameter_exit_1(self, tmp_path, tiny_cfg, data_dir, key, value,
                                              capsys):
        # each would otherwise train: nan turns max-norm or scheduled
        # sampling off, and a non-finite lr fails only at the first step
        code = main(["train", "--config", tiny_cfg, "--data", data_dir,
                     "--out", str(tmp_path / "m.ckpt"), "--set", f"{key}={value}"])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_numerical_blowup_exit_3(self, tmp_path, tiny_cfg, data_dir, capsys):
        code = main(["train", "--config", tiny_cfg, "--data", data_dir,
                     "--out", str(tmp_path / "m.ckpt"), "--set", "lr_init=1e30",
                     "--set", "dropout_rate=0.0"])
        assert code == 3
        assert "step" in capsys.readouterr().err

    def test_numerical_blowup_names_the_parameter(self, tmp_path, tiny_cfg, data_dir, capsys):
        """The first non-finite value is named at the step that makes it:
        here step 1's batch variance in the first norm layer, before Adam
        leaves a parameter non-finite or the loss turns non-finite."""
        code = main(["train", "--config", tiny_cfg, "--data", data_dir,
                     "--out", str(tmp_path / "m.ckpt"), "--set", "lr_init=1e30",
                     "--set", "dropout_rate=0.0"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: step 1 (batch ")
        assert err.endswith("non-finite batch variance in layer 'block1.multi_norm'\n")


class TestEvalCommand:
    def test_report_on_validation(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 0
        report = capsys.readouterr().out
        assert "[q8]" in report and "[per_class]" in report
        assert "L precision=" in report

    def test_raw_repeat_is_identical(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--raw"]) == 0
        one = capsys.readouterr().out
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--raw"]) == 0
        assert capsys.readouterr().out == one

    def test_self_ensemble_matches_single(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--raw"]) == 0
        single = capsys.readouterr().out
        assert main(["eval", "--ckpt", out, out, out, "--data", data_dir, "--raw"]) == 0
        assert capsys.readouterr().out == single

    def test_test_split(self, tmp_path, tiny_cfg, data_dir, capsys):
        save_native(rule_corpus(n=3, length=25, seed=9),
                    data_dir + "/test.txt")
        out = run_train(tmp_path, tiny_cfg, data_dir)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--split", "test"]) == 0

    def test_missing_test_split_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--split", "test"]) == 2

    def test_test_split_never_reads_corpus(self, tmp_path, tiny_cfg, data_dir, capsys):
        save_native(rule_corpus(n=3, length=25, seed=9), data_dir + "/test.txt")
        out = run_train(tmp_path, tiny_cfg, data_dir)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--split", "test"]) == 0
        report = capsys.readouterr().out
        (Path(data_dir) / "corpus.npy").write_bytes(b"not an npy file")
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--split", "test"]) == 0
        assert capsys.readouterr().out == report

    def test_validation_split_never_reads_test_file(self, tmp_path, tiny_cfg, data_dir,
                                                    capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        (Path(data_dir) / "test.npy").write_bytes(b"not an npy file")
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 0

    def test_unlabelled_test_split_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys):
        records = [dataclasses.replace(r, labels=None) for r in rule_corpus(n=3, length=25)]
        save_native(records, data_dir + "/test.txt")
        out = run_train(tmp_path, tiny_cfg, data_dir)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--split", "test"]) == 2
        err = capsys.readouterr().err
        assert "test.txt" in err and f"record {records[0].id} has no labels" in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_missing_checkpoint_exit_2(self, tmp_path, data_dir, command, capsys):
        # no checkpoint and no sidecar: the error names the checkpoint
        missing = str(tmp_path / "nope.ckpt")
        args = {"eval": ["--data", data_dir],
                "predict": ["--input", data_dir + "/corpus.txt", "--output", str(tmp_path / "p")]}
        assert main([command, "--ckpt", missing, *args[command]]) == 2
        err = capsys.readouterr().err
        assert repr(missing) in err and ".cfg" not in err

    def test_missing_sidecar_exit_1(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        os.remove(out + ".cfg")
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 1

    def test_sidecar_with_kind_line_exit_1(self, tmp_path, tiny_cfg, data_dir, capsys):
        # ``kind`` is no key: ``blocks = none`` alone makes the fully connected baseline
        out = run_train(tmp_path, tiny_cfg, data_dir)
        sidecar = Path(out + ".cfg")
        sidecar.write_text("kind = convolutional\n" + sidecar.read_text())
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 1
        assert capsys.readouterr().err == f"error: {sidecar}:1: unknown key 'kind'\n"

    def test_corrupt_checkpoint_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        with open(out, "r+b") as fh:
            fh.truncate(20)
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 2

    def test_non_utf8_tensor_name_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        with open(out, "r+b") as fh:
            fh.seek(14)  # magic, version, count, name length: the first name byte
            fh.write(b"\xff")
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: tensor name at byte 14")

    def test_zero_pssm_std_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        ckpt = load_checkpoint(out)
        ckpt.tensors["input_norm.pssm_std"][0] = 0.0
        save_checkpoint(ckpt, out)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 2
        assert "input_norm.pssm_std" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ("output.biases", "block1.multi0.weights"))
    def test_non_finite_weight_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys, name):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        ckpt = load_checkpoint(out)
        ckpt.tensors[name].flat[0] = np.nan
        save_checkpoint(ckpt, out)
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: tensor '{name}' has a non-finite entry\n"

    def test_ensemble_names_the_checkpoint_that_fails_to_bind(self, tmp_path, tiny_cfg,
                                                              data_dir, capsys):
        good = run_train(tmp_path, tiny_cfg, data_dir, name="a.ckpt")
        bad = run_train(tmp_path, tiny_cfg, data_dir, name="b.ckpt")
        ckpt = load_checkpoint(bad)
        ckpt.tensors["output.biases"].flat[0] = np.nan
        save_checkpoint(ckpt, bad)
        capsys.readouterr()
        assert main(["eval", "--ckpt", good, bad, "--data", data_dir]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: tensor 'output.biases' has a non-finite entry\n")

    def test_ensemble_ignores_ckpt_order(self, tmp_path, tiny_cfg, data_dir, capsys):
        """Members trained on corpora with different PSSM statistics each
        standardize with their own, so ``--ckpt`` order changes nothing."""
        shifted = tmp_path / "shifted"
        shifted.mkdir()
        records = rule_corpus(n=8, length=30, seed=1)
        for r in records:
            r.features[:, 21:] = r.features[:, 21:] * 3 + 5
        save_native(records, str(shifted / "corpus.txt"))
        a = run_train(tmp_path, tiny_cfg, data_dir, name="a.ckpt")
        b = run_train(tmp_path, tiny_cfg, str(shifted), name="b.ckpt")
        assert not np.array_equal(load_checkpoint(a).tensors["input_norm.pssm_mean"],
                                  load_checkpoint(b).tensors["input_norm.pssm_mean"])
        fixture = str(tmp_path / "in.txt")
        save_native(rule_corpus(n=4, length=25, seed=6), fixture)
        reports, predictions = [], []
        for order in ([a, b], [b, a]):
            capsys.readouterr()
            assert main(["eval", "--ckpt", *order, "--data", data_dir, "--raw"]) == 0
            reports.append(capsys.readouterr().out)
            dest = tmp_path / f"preds_{len(predictions)}.txt"
            assert main(["predict", "--ckpt", *order, "--input", fixture,
                         "--output", str(dest)]) == 0
            predictions.append(dest.read_bytes())
        assert reports[0] == reports[1]
        assert predictions[0] == predictions[1]

    def test_members_on_other_validation_splits_exit_1(self, tmp_path, tiny_cfg, data_dir,
                                                       capsys):
        """Members trained with seeds 3 and 4 hold out different validation
        records, so no validation split serves both, in either order; the
        test split and ``predict`` still take them."""
        paths = []
        for seed in ("3", "4"):
            paths.append(str(tmp_path / f"s{seed}.ckpt"))
            assert main(["train", "--config", tiny_cfg, "--data", data_dir,
                         "--out", paths[-1], "--seed", seed]) == 0
        save_native(rule_corpus(n=3, length=25, seed=9), data_dir + "/test.txt")
        for order in (paths, paths[::-1]):
            capsys.readouterr()
            assert main(["eval", "--ckpt", *order, "--data", data_dir, "--raw"]) == 1
            assert order[1] in capsys.readouterr().err
            assert main(["eval", "--ckpt", *order, "--data", data_dir,
                         "--split", "test"]) == 0
            assert main(["predict", "--ckpt", *order, "--input", data_dir + "/test.txt",
                         "--output", str(tmp_path / "preds.txt")]) == 0


class TestPredictCommand:
    def test_output_parses_and_scores(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        records = rule_corpus(n=3, length=20, seed=4)
        fixture = str(tmp_path / "in.txt")
        save_native(records, fixture)
        dest = str(tmp_path / "preds.txt")
        assert main(["predict", "--ckpt", out, "--input", fixture,
                     "--output", dest]) == 0
        lines = open(dest).read().splitlines()
        assert len(lines) == 3
        preds = []
        for line, rec in zip(lines, records):
            rid, letters = line.split("\t")
            assert rid == rec.id and len(letters) == rec.length
            preds.append(string_to_labels(letters))
        assert 0.0 <= q8(preds, records) <= 1.0

    def test_unlabeled_input(self, tmp_path, tiny_cfg, data_dir):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        records = rule_corpus(n=2, length=15, seed=5)
        unlabeled = [dataclasses.replace(r, labels=None) for r in records]
        fixture = str(tmp_path / "in.txt")
        save_native(unlabeled, fixture)
        dest = str(tmp_path / "preds.txt")
        assert main(["predict", "--ckpt", out, "--input", fixture,
                     "--output", dest]) == 0
        assert len(open(dest).read().splitlines()) == 2

    def test_full_length_protein(self, tmp_path, tiny_cfg, data_dir):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        records = rule_corpus(n=1, length=700, seed=6)
        fixture = str(tmp_path / "in.txt")
        save_native(records, fixture)
        dest = str(tmp_path / "preds.txt")
        assert main(["predict", "--ckpt", out, "--input", fixture,
                     "--output", dest]) == 0
        line = open(dest).read().splitlines()[0]
        assert len(line.split("\t")[1]) == 700

    def test_empty_input_empty_output(self, tmp_path, tiny_cfg, data_dir):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        fixture = tmp_path / "empty.txt"
        fixture.write_text("")
        dest = tmp_path / "preds.txt"
        assert main(["predict", "--ckpt", out, "--input", str(fixture),
                     "--output", str(dest)]) == 0
        assert dest.read_text() == ""

    def test_malformed_input_names_line(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        fixture = tmp_path / "bad.txt"
        fixture.write_text("p1\tACDE\tHHHH\tnot;a;pssm\n")
        code = main(["predict", "--ckpt", out, "--input", str(fixture),
                     "--output", str(tmp_path / "preds.txt")])
        assert code == 2
        assert ":1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_non_finite_pssm_exit_2(self, tmp_path, tiny_cfg, data_dir, value, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        fixture = tmp_path / "in.txt"
        row = ",".join(["0.5"] * 21)
        bad = ",".join(["0.5"] * 7 + [value] + ["0.5"] * 13)
        pssm = ";".join([row] * 6 + [bad] + [row] * 5)
        fixture.write_text(f"p1\tACDEFGHIKLMN\t\t{pssm}\n")
        dest = tmp_path / "preds.txt"
        capsys.readouterr()
        assert main(["predict", "--ckpt", out, "--input", str(fixture),
                     "--output", str(dest)]) == 2
        assert capsys.readouterr().err == (
            f"error: {fixture}:1: record p1: non-finite PSSM value {value} "
            "at position 6, PSSM column 7\n")
        assert not dest.exists()

    @pytest.mark.parametrize("where", ("missing directory", "directory"))
    def test_bad_output_path_exit_2_before_decoding(self, tmp_path, tiny_cfg, data_dir,
                                                    where, monkeypatch, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        fixture = str(tmp_path / "in.txt")
        save_native(rule_corpus(n=2, length=10, seed=4), fixture)

        def no_decoding(*args, **kwargs):
            raise AssertionError("decoded before checking the output path")

        monkeypatch.setattr(chaincnn.inference, "beam_search", no_decoding)
        monkeypatch.setattr(chaincnn.inference, "decode_independent", no_decoding)
        if where == "directory":
            dest = tmp_path / "preds"
            dest.mkdir()
            want = f"error: output {str(dest)!r} is a directory\n"
        else:
            dest = tmp_path / "missing" / "preds.txt"
            want = f"error: output directory {str(dest.parent)!r} does not exist\n"
        capsys.readouterr()
        assert main(["predict", "--ckpt", out, "--input", fixture,
                     "--output", str(dest)]) == 2
        assert capsys.readouterr().err == want

    def test_failed_write_keeps_previous_output(self, tmp_path, tiny_cfg, data_dir,
                                                monkeypatch, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        fixture = str(tmp_path / "in.txt")
        save_native(rule_corpus(n=2, length=10, seed=4), fixture)
        dest = tmp_path / "preds.txt"
        dest.write_text("previous\n")

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        capsys.readouterr()
        assert main(["predict", "--ckpt", out, "--input", fixture,
                     "--output", str(dest)]) == 2
        assert "simulated" in capsys.readouterr().err
        assert dest.read_text() == "previous\n"
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_non_utf8_input_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        fixture = str(tmp_path / "in.txt")
        save_native(rule_corpus(n=1, length=5, seed=2), fixture)
        with open(fixture, "r+b") as fh:
            fh.write(b"\xff")
        capsys.readouterr()
        assert main(["predict", "--ckpt", out, "--input", fixture,
                     "--output", str(tmp_path / "p.txt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fixture}: not UTF-8 text")


class TestAblateCommand:
    def test_invalid_row_exit_1(self, tmp_path, data_dir, capsys):
        for row in ("0", "10"):
            assert main(["ablate", "--row", row, "--data", data_dir,
                         "--out", str(tmp_path)]) == 1
            assert "1..9" in capsys.readouterr().err

    def test_row_two_smoke(self, tmp_path, data_dir, capsys):
        code = main(["ablate", "--row", "2", "--data", data_dir,
                     "--out", str(tmp_path / "runs"), "--seed", "1",
                     "--set", "max_iterations=10", "--set", "eval_every=5",
                     "--set", "batch_size=4", "--set", "n_validation=2",
                     "--set", "log_every=5"])
        assert code == 0
        run = load_run_config(str(tmp_path / "runs" / "row2.ckpt.cfg"), [])
        assert run.model == shipped_model("ablation_row2")
        assert run.training.max_iterations == 10

    def test_same_files_as_train_config(self, tmp_path, data_dir, capsys):
        # ablate --row N is train --config ablation_rowN, --seed included
        sets = ["--seed", "7", "--set", "max_iterations=6", "--set", "eval_every=3",
                "--set", "batch_size=4", "--set", "n_validation=2"]
        assert main(["ablate", "--row", "2", "--data", data_dir,
                     "--out", str(tmp_path / "runs"), *sets]) == 0
        out = str(tmp_path / "row2.ckpt")
        assert main(["train", "--config", "ablation_row2", "--data", data_dir,
                     "--out", out, *sets]) == 0
        for suffix in ("", ".cfg"):
            ablated = (tmp_path / "runs" / f"row2.ckpt{suffix}").read_bytes()
            assert ablated == Path(out + suffix).read_bytes()
        assert load_run_config(out + ".cfg", []).training.seed == 7

    def test_failed_data_load_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["ablate", "--row", "9", "--data", str(tmp_path / "missing"),
                     "--out", str(out)]) == 2
        assert "missing" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file_exit_2(self, tmp_path, data_dir, capsys):
        out = tmp_path / "runs"
        out.write_text("")
        assert main(["ablate", "--row", "2", "--data", data_dir, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: output directory {str(out)!r} is not a directory\n")

    def test_checkpoint_path_is_a_directory_exit_2(self, tmp_path, data_dir, monkeypatch,
                                                   capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the output path")

        monkeypatch.setattr(chaincnn.cli, "train", no_training)
        out = tmp_path / "runs" / "row2.ckpt"
        out.mkdir(parents=True)
        code = main(["ablate", "--row", "2", "--data", data_dir,
                     "--out", str(tmp_path / "runs")])
        assert code == 2
        assert capsys.readouterr().err == f"error: output {str(out)!r} is a directory\n"


class TestConditionedPipeline:
    def test_train_eval_predict_with_beam(self, tmp_path, capsys):
        d = tmp_path / "data"
        d.mkdir()
        save_native(markov_corpus(n=8, length=20, seed=2), str(d / "corpus.txt"))
        cfg = tmp_path / "cond.cfg"
        cfg.write_text(TINY_CFG.replace("conditioned = false", "conditioned = true")
                       + "sampling_rate_init = 0.0\nsampling_rate_increment = 0.0\n")
        out = str(tmp_path / "cond.ckpt")
        assert main(["train", "--config", str(cfg), "--data", str(d),
                     "--out", out, "--seed", "2"]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", str(d),
                     "--beam-width", "4"]) == 0
        assert "[q8]" in capsys.readouterr().out
        fixture = str(tmp_path / "in.txt")
        save_native(markov_corpus(n=2, length=10, seed=3), fixture)
        dest = str(tmp_path / "preds.txt")
        assert main(["predict", "--ckpt", out, "--input", fixture,
                     "--output", dest, "--beam-width", "2"]) == 0
        assert len(open(dest).read().splitlines()) == 2


class TestNpyCorpus:
    def test_train_from_source_matrix(self, tmp_path, tiny_cfg, capsys):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(6):
            residues = rng.integers(0, 21, size=25)
            labels = residues % 8
            pssm = rng.random((25, 21)).astype(np.float32)
            rows.append(source_row(residues, labels, pssm, junk_seed=i))
        matrix = np.stack(rows).reshape(6, -1)
        d = tmp_path / "data"
        d.mkdir()
        np.save(d / "corpus.npy", matrix)
        out = str(tmp_path / "m.ckpt")
        assert main(["train", "--config", tiny_cfg, "--data", str(d),
                     "--out", out, "--seed", "1"]) == 0


    @pytest.mark.parametrize("n_real", [4, 0])
    def test_record_without_residues_exit_2(self, tmp_path, tiny_cfg, n_real, monkeypatch,
                                            capsys):
        # all-no-seq rows: in the validation split they left q8 undefined after
        # eval_every steps of training; alone they left no PSSM statistics
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a corpus with an empty record")

        monkeypatch.setattr(chaincnn.cli, "train", no_training)
        rng = np.random.default_rng(1)
        rows = [source_row(rng.integers(0, 21, size=20), rng.integers(0, 8, size=20),
                           rng.random((20, 21))) for _ in range(n_real)]
        rows += [source_row([], []), source_row([], [])]
        d = tmp_path / "data"
        d.mkdir()
        np.save(d / "corpus.npy", np.stack(rows).reshape(len(rows), -1))
        code = main(["train", "--config", tiny_cfg, "--data", str(d), "--out",
                     str(tmp_path / "m.ckpt"), "--set", "n_validation=2", "--seed", "68"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {d / 'corpus.npy'}: record p{n_real:05d} has no residues\n")

    def test_non_finite_value_in_eval_corpus_exit_2(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        rows = [source_row([1, 2, 3, 4], [0, 1, 2, 3], np.full((4, 21), 0.5)) for _ in range(3)]
        rows[2][1, 40] = np.nan
        d = tmp_path / "npy"
        d.mkdir()
        np.save(d / "corpus.npy", np.stack(rows).reshape(3, -1))
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", str(d)]) == 2
        assert capsys.readouterr().err == (
            "error: record p00002: non-finite value nan at position 1, column 40\n")


def write_records(path, records):
    """``records`` as ``path``: native text for ``.txt``, a source matrix for ``.npy``."""
    if str(path).endswith(".txt"):
        save_native(records, str(path))
        return
    rows = [source_row(r.features[: r.length, :21].argmax(axis=1), r.labels[: r.length],
                       r.features[: r.length, 21:]) for r in records]
    np.save(path, np.stack(rows).reshape(len(rows), -1) if rows
            else np.zeros((0, SEQ_LEN * SOURCE_COLUMNS), dtype=np.float32))


class TestEmptyInput:
    """A data file without records fails with exit 2 naming it; training on
    an empty split fails with exit 1; neither raises a traceback."""

    @pytest.mark.parametrize("suffix", [".txt", ".npy"])
    @pytest.mark.parametrize("n_validation", [0, 256])
    def test_empty_corpus_exit_2(self, tmp_path, tiny_cfg, suffix, n_validation, capsys):
        d = tmp_path / "data"
        d.mkdir()
        write_records(d / f"corpus{suffix}", [])
        code = main(["train", "--config", tiny_cfg, "--data", str(d), "--out",
                     str(tmp_path / "m.ckpt"), "--set", f"n_validation={n_validation}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {d / f'corpus{suffix}'}: no records\n"

    @pytest.mark.parametrize("suffix", [".txt", ".npy"])
    def test_empty_test_split_exit_2(self, tmp_path, tiny_cfg, data_dir, suffix, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir)
        path = os.path.join(data_dir, f"test{suffix}")
        write_records(path, [])
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", data_dir, "--split", "test"]) == 2
        assert capsys.readouterr().err == f"error: {path}: no records\n"

    @pytest.mark.parametrize("suffix", [".txt", ".npy"])
    def test_no_training_records_exit_1(self, tmp_path, tiny_cfg, suffix, capsys):
        d = tmp_path / "data"
        d.mkdir()
        write_records(d / f"corpus{suffix}", rule_corpus(n=6, length=12, seed=4))
        code = main(["train", "--config", tiny_cfg, "--data", str(d), "--out",
                     str(tmp_path / "m.ckpt"), "--set", "n_validation=6"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: n_validation = 6 leaves no training records in a corpus of 6\n")


class TestValidationCount:
    """An ``n_validation`` outside 0..corpus size fails with exit 1 naming the
    key, before any training; ``train``, ``ablate`` and ``eval`` agree."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_negative_exit_1(self, tmp_path, tiny_cfg, data_dir, command, capsys):
        code = main(self._argv(command, tiny_cfg, data_dir, tmp_path, -1))
        assert code == 1
        assert capsys.readouterr().err == "error: n_validation must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_above_the_corpus_exit_1(self, tmp_path, tiny_cfg, command, capsys):
        d = tmp_path / "data"
        d.mkdir()
        save_native(rule_corpus(n=6, length=12, seed=4), str(d / "corpus.txt"))
        code = main(self._argv(command, tiny_cfg, str(d), tmp_path, 7))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: n_validation = 7 exceeds a corpus of 6 records\n")
        assert not [p.name for p in tmp_path.rglob("*.ckpt")]

    def test_eval_on_a_smaller_corpus_exit_1(self, tmp_path, tiny_cfg, data_dir, capsys):
        out = run_train(tmp_path, tiny_cfg, data_dir, extra=("--set", "n_validation=5"))
        small = tmp_path / "small"
        small.mkdir()
        save_native(rule_corpus(n=3, length=12, seed=4), str(small / "corpus.txt"))
        capsys.readouterr()
        assert main(["eval", "--ckpt", out, "--data", str(small)]) == 1
        assert capsys.readouterr().err == (
            "error: n_validation = 5 exceeds a corpus of 3 records\n")

    @staticmethod
    def _argv(command, tiny_cfg, data_dir, tmp_path, n_validation):
        if command == "train":
            head = ["train", "--config", tiny_cfg, "--out", str(tmp_path / "m.ckpt")]
        else:
            head = ["ablate", "--row", "1", "--out", str(tmp_path / "rows")]
        return head + ["--data", data_dir, "--set", f"n_validation={n_validation}"]


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0

    def test_every_documented_flag_in_help(self, capsys):
        main(["eval", "--help"])
        text = capsys.readouterr().out
        for flag in ("--ckpt", "--data", "--split", "--beam-width", "--raw"):
            assert flag in text

    def test_unknown_flag_rejected(self, capsys):
        assert main(["train", "--nonsense"]) == 1

    def test_missing_command_rejected(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("width", ["0", "-3"])
    @pytest.mark.parametrize("conditioned", [True, False])
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_beam_width_below_one_exit_1_before_loading(self, tmp_path, command, conditioned,
                                                        width, monkeypatch, capsys):
        setup = ensemble_on_disk(tmp_path, mixed_records()[:2], conditioned, 1)

        def refuse(*args):
            raise AssertionError("a checkpoint was read")

        monkeypatch.setattr(chaincnn.cli, "load_checkpoint", refuse)
        dest = tmp_path / "preds.txt"
        args = {"eval": ["--raw"],
                "predict": ["--input", setup.dir + "/corpus.txt", "--output", str(dest)]}
        assert main([command, "--ckpt", *setup.ckpts, *args[command],
                     "--beam-width", width]) == 1
        err = capsys.readouterr().err
        assert f"argument --beam-width: invalid positive_int value: '{width}'" in err
        assert not dest.exists()
