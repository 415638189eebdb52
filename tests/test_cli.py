"""End-to-end command-line workflows on a generated toy task."""

import contextlib
import hashlib
import io
import json
import re
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treeattn import cli, toy, training
from treeattn.cli import main
from treeattn.data import load_pair_corpus
from treeattn.model import Model
from treeattn.parser import GumbelConfig
from treeattn.training import Checkpoint, evaluate
from treeattn.trees import parse_bracketed

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def run_in_tmpdir(tmp_path, monkeypatch):
    # stdout-only commands drop their fallback manifest into the cwd
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Toy corpus files plus one trained checkpoint, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    toy.write_embedding_file(root / "emb.txt", vocab_size=20, dim=6, seed=1)
    toy.write_pair_corpus(root / "train.jsonl", toy.subset_pair_records(
        24, vocab_size=20, min_len=3, max_len=5, seed=41))
    toy.write_pair_corpus(root / "val.jsonl", toy.subset_pair_records(
        12, vocab_size=20, min_len=3, max_len=5, seed=42))
    (root / "sents.txt").write_text(
        "tok00 tok01 tok02 tok03 tok04\ntok05\ntok06 tok07 zebra\n",
        encoding="utf-8")
    (root / "pairs.tsv").write_text(
        "tok00 tok01 tok02\ttok00 tok01 tok02\n"
        "tok03 tok04\ttok05 tok06 tok07\n",
        encoding="utf-8")
    code = main(["train", "--task", "pair",
                 "--train", str(root / "train.jsonl"),
                 "--val", str(root / "val.jsonl"),
                 "--embeddings", str(root / "emb.txt"),
                 "--labels", "mixed,subset",
                 "--out", str(root / "model.ckpt"),
                 "--hidden", "8", "--d-attn", "6", "--d-clf", "12",
                 "--batch", "8", "--epochs", "2", "--seed", "5",
                 "--leaf", "affine", "--dropout", "0.1"])
    assert code == 0
    return root


class TestTrain:
    def test_outputs_exist(self, workspace):
        assert (workspace / "model.ckpt").is_file()
        assert (workspace / "model.ckpt.metrics.tsv").is_file()
        assert (workspace / "model.ckpt.manifest.json").is_file()

    def test_metrics_log_format(self, workspace):
        lines = (workspace / "model.ckpt.metrics.tsv").read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 2
        for row in rows:
            epoch, loss, tr_acc, val_acc, seconds = row.split("\t")
            assert int(epoch) >= 1 and float(loss) > 0

    def test_manifest_records_digests_and_seed(self, workspace):
        manifest = json.loads((workspace / "model.ckpt.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 5
        assert len(manifest["inputs"]) == 3
        for digest in manifest["inputs"].values():
            assert len(digest) == 64

    def test_omitted_seed_is_drawn_and_recorded(self, workspace, tmp_path):
        code = main(["train", "--task", "pair",
                     "--train", str(workspace / "train.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset",
                     "--out", str(tmp_path / "m.ckpt"),
                     "--hidden", "4", "--d-attn", "4", "--d-clf", "8",
                     "--epochs", "1", "--leaf", "affine"])
        assert code == 0
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert isinstance(manifest["seed"], int)

    def test_each_selection_flag_reaches_the_induction(self, workspace, tmp_path):
        # each flag changes which merges are drawn or how their gradients
        # scale, so each must change the trained parameters' bytes, not only
        # the config line of the header
        def trained(*flags):
            out = tmp_path / f"model{''.join(flags)}.ckpt"
            assert main(["train", "--task", "pair",
                         "--train", str(workspace / "train.jsonl"),
                         "--val", str(workspace / "val.jsonl"),
                         "--embeddings", str(workspace / "emb.txt"),
                         "--labels", "mixed,subset", "--out", str(out),
                         "--hidden", "4", "--d-attn", "4", "--d-clf", "8",
                         "--epochs", "1", "--seed", "3", "--leaf", "affine", *flags]) == 0
            return out.read_bytes().split(b"\nblob\n", 1)[1], Checkpoint.load(out).build_model()

        default_blob, default = trained()
        assert default.selection == GumbelConfig()
        for flags, selection in [(["--temperature", "0.5"], GumbelConfig(temperature=0.5)),
                                 (["--perturb-probs"], GumbelConfig(perturb_probs=True)),
                                 (["--noise-per-sentence"], GumbelConfig(noise_per_layer=False))]:
            blob, model = trained(*flags)
            assert model.selection == selection, flags
            assert blob != default_blob, flags

    def test_missing_file_exits_2(self, workspace, capsys):
        code = main(["train", "--task", "pair",
                     "--train", str(workspace / "nope.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset",
                     "--out", str(workspace / "x.ckpt")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_corpus_line_that_is_not_an_object_exits_2(self, workspace, tmp_path,
                                                       capsys):
        corpus = tmp_path / "list.jsonl"
        lines = (workspace / "train.jsonl").read_text().splitlines()
        corpus.write_text("\n".join([lines[0], '["tok00", "tok01"]', *lines[1:]]) + "\n")
        code = main(["train", "--task", "pair", "--train", str(corpus),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset", "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}:2: bad record: expected a JSON object")
        assert len(err.splitlines()) == 1

    def test_non_finite_embedding_exits_2(self, workspace, tmp_path, capsys):
        emb = tmp_path / "nan.txt"
        lines = (workspace / "emb.txt").read_text().splitlines()
        word = lines[2].split()[0]
        lines[2] = f"{word} 0.1 nan {' '.join(['0.2'] * 4)}"
        emb.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["train", "--task", "pair",
                     "--train", str(workspace / "train.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(emb),
                     "--labels", "mixed,subset", "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {emb}:3: non-finite vector component\n")

    @pytest.mark.parametrize("setting, message", [
        (["--labels", "mixed"], "need at least two labels"),
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--labels", "mixed,mixed,subset"], "label 'mixed' is given twice"),
        (["--labels", "mixed,subset,"], "a label is empty"),
        # each flag's range is checked by the TrainConfig field it fills
        (["--hidden", "0"], "hidden must be positive, got 0"),
        (["--d-attn", "-3"], "d_attn must be positive, got -3"),
        (["--d-clf", "0"], "d_clf must be positive, got 0"),
        (["--batch", "0"], "batch_size must be positive, got 0"),
        (["--epochs", "0"], "max_epochs must be positive, got 0"),
        (["--max-len", "0"], "max_len must be positive, got 0"),
        (["--dropout", "1"], "dropout_keep must lie in (0, 1], got 0.0"),
        (["--dropout", "-0.5"], "dropout_keep must lie in (0, 1], got 1.5"),
        (["--lr", "nan"], "learning_rate must be positive and finite, got nan"),
        (["--lr", "inf"], "learning_rate must be positive and finite, got inf"),
        (["--lr", "0"], "learning_rate must be positive and finite, got 0.0"),
        (["--temperature", "nan"], "temperature must be positive and finite, got nan"),
        (["--temperature", "inf"], "temperature must be positive and finite, got inf"),
        (["--patience", "-1"], "patience must be nonnegative, got -1"),
        # a negative value that is not a plain decimal reaches the check too
        (["--lr", "-inf"], "learning_rate must be positive and finite, got -inf"),
        (["--lr", "-1e308"], "learning_rate must be positive and finite, got -1e+308"),
        (["--temperature", "-1e-320"],
         "temperature must be positive and finite, got -1e-320"),
        # a rate this close to 0 leaves dropout_keep at 1.0, so the rate is checked
        (["--dropout", "-1e-17"], "dropout rate must be nonnegative, got -1e-17"),
    ], ids=["one-label", "negative-seed", "repeated-label", "empty-label", "zero-hidden",
            "negative-d-attn", "zero-d-clf", "zero-batch", "zero-epochs", "zero-max-len",
            "dropout-one", "negative-dropout", "nan-lr", "inf-lr", "zero-lr",
            "nan-temperature", "inf-temperature", "negative-patience", "minus-inf-lr",
            "minus-huge-lr", "minus-subnormal-temperature", "tiny-negative-dropout"])
    def test_bad_setting_exits_2_before_writing(self, workspace, tmp_path, capsys,
                                                setting, message):
        out = tmp_path / "x.ckpt"
        # the setting comes last, so a repeated option overrides the base one
        code = main(["train", "--task", "pair", "--train", str(workspace / "train.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset", "--out", str(out), *setting])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad training setting: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--vocab-limit", "abc", "must be a positive integer, got 'abc'"),
        ("--vocab-limit", "0", "must be a positive integer, got '0'"),
        ("--hidden", "1e3", "invalid int value: '1e3'"),
        ("--lr", "fast", "invalid float value: 'fast'"),
    ])
    def test_flag_the_parser_rejects_exits_2_naming_it(self, workspace, tmp_path, capsys,
                                                       flag, value, message):
        with pytest.raises(SystemExit) as info:
            main(["train", "--task", "pair", "--train", str(workspace / "train.jsonl"),
                  "--val", str(workspace / "val.jsonl"),
                  "--embeddings", str(workspace / "emb.txt"),
                  "--labels", "mixed,subset", "--out", str(tmp_path / "x.ckpt"),
                  flag, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: {message}\n"), err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["train", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--task", "pair", "--train", "t", "--val", "v", "--embeddings", "e",
         "--labels", "a,b", "--out", "o"],
        ["eval", "--checkpoint", "c", "--corpus", "t"],
        ["treescore", "--pred", "p", "--baselines-only"]], ids=lambda argv: argv[0])
    def test_removed_threads_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def train_argv(self, workspace, tmp_path, *flags, embeddings=None):
        return ["train", "--task", "pair",
                "--train", str(workspace / "train.jsonl"),
                "--val", str(workspace / "val.jsonl"),
                "--embeddings", str(embeddings or workspace / "emb.txt"),
                "--labels", "mixed,subset",
                "--out", str(tmp_path / "x.ckpt"),
                "--hidden", "4", "--d-attn", "4", "--d-clf", "8",
                "--epochs", "1", "--leaf", "affine", "--seed", "1", *flags]

    def test_divergent_training_exits_3(self, workspace, tmp_path, capsys):
        # in-range inputs; the first step's huge rate overflows the second
        # batch's forward pass, which main reports without a numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(self.train_argv(workspace, tmp_path, "--lr", "1e300", "--batch", "8"))
        assert code == 3
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1, err

    def test_weights_beyond_float32_exit_3_without_a_checkpoint(self, workspace, tmp_path,
                                                              capsys):
        # one step at rate 1e39 leaves finite float64 weights whose float32
        # rounding, what the checkpoint would store, is infinite
        code = main(self.train_argv(workspace, tmp_path, "--lr", "1e39"))
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric failure: parameter 'leaf.weight' overflows float32 in the checkpoint\n")
        assert not list(tmp_path.glob("x.ckpt*"))

    @pytest.mark.parametrize("value", ["1e160", "1e39"])
    def test_embedding_beyond_float32_exits_2(self, workspace, tmp_path, capsys, value):
        emb = tmp_path / "huge.txt"
        emb.write_text("".join(f"{toy.token_name(i)} 0.5 {value} 0.5 0.5 0.5 0.5\n"
                               for i in range(20)), encoding="utf-8")
        assert main(self.train_argv(workspace, tmp_path, embeddings=emb)) == 2
        assert capsys.readouterr().err == (
            f"error: {emb}:1: vector component {value} is outside the float32 range\n")
        assert not list(tmp_path.glob("x.ckpt*"))

    def test_sentence_task_trains_and_evaluates(self, workspace, tmp_path, capsys):
        for name, seed in (("train", 51), ("val", 52)):
            records = toy.subset_pair_records(16, vocab_size=20, min_len=3, max_len=5,
                                              seed=seed)
            toy.write_pair_corpus(tmp_path / f"{name}.jsonl", [
                {"sentence": f"{r['premise']} {r['hypothesis']}", "label": r["label"]}
                for r in records])
        ckpt = tmp_path / "sentence.ckpt"
        assert main(["train", "--task", "sentence",
                     "--train", str(tmp_path / "train.jsonl"),
                     "--val", str(tmp_path / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset", "--out", str(ckpt),
                     "--hidden", "8", "--d-attn", "6", "--d-clf", "12",
                     "--batch", "8", "--epochs", "2", "--seed", "5", "--leaf", "affine"]) == 0
        assert Checkpoint.load(ckpt).config.task == "sentence"
        logged_best = max((line.split("\t")[3] for line in
                           (tmp_path / "sentence.ckpt.metrics.tsv").read_text().splitlines()
                           if not line.startswith("#")), key=float)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(tmp_path / "val.jsonl")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"accuracy\t{logged_best}"

    def test_defaults_are_the_train_configs(self, workspace, tmp_path):
        # two training pairs and one validation pair keep the default sizes
        # and epoch count cheap
        for name, count in (("train", 2), ("val", 1)):
            lines = (workspace / f"{name}.jsonl").read_text().splitlines(keepends=True)
            (tmp_path / f"{name}.jsonl").write_text("".join(lines[:count]))
        out = tmp_path / "m.ckpt"
        assert main(["train", "--task", "pair", "--train", str(tmp_path / "train.jsonl"),
                     "--val", str(tmp_path / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset", "--out", str(out), "--seed", "3"]) == 0
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        expected = training.TrainConfig("pair", ("mixed", "subset"), seed=3)
        assert manifest["config"] == json.loads(expected.to_json())

    def test_sentence_field_that_is_not_a_string_exits_2(self, workspace, tmp_path,
                                                         capsys):
        corpus = tmp_path / "null.jsonl"
        lines = (workspace / "train.jsonl").read_text().splitlines()
        record = {**json.loads(lines[1]), "hypothesis": None}
        corpus.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
        code = main(["train", "--task", "pair", "--train", str(corpus),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset", "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}:2: bad record: 'hypothesis' is not a string\n")

    @pytest.mark.parametrize("flag", ["--hidden", "--d-attn", "--d-clf"])
    def test_model_that_cannot_be_allocated_exits_2(self, workspace, tmp_path, capsys,
                                                    flag):
        # numpy refuses 2**62 by arithmetic, before it asks for any memory
        out = tmp_path / "out"
        out.mkdir()
        code = main(["train", "--task", "pair",
                     "--train", str(workspace / "train.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset", "--out", str(out / "x.ckpt"),
                     flag, str(2 ** 62)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate a model with ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not list(out.iterdir())


class TestEval:
    def test_reports_metrics_and_predictions(self, workspace, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        code = main(["eval", "--checkpoint", str(workspace / "model.ckpt"),
                     "--corpus", str(workspace / "val.jsonl"),
                     "--predictions", str(preds)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "macro_f1" in out
        rows = preds.read_text().splitlines()
        assert len(rows) == 12
        index, gold, predicted, probs = rows[0].split("\t")
        assert gold in ("mixed", "subset") and predicted in ("mixed", "subset")
        values = [float(x) for x in probs.split()]
        assert sum(values) == pytest.approx(1.0, abs=1e-6)

    def test_saved_checkpoint_reproduces_logged_best_val_acc(self, workspace, tmp_path,
                                                             capsys):
        # the checkpoint stores float32 weights; validation ran on float64
        # trained weights and on the frozen float32 table the file stores
        toy.write_pair_corpus(tmp_path / "val.jsonl", toy.subset_pair_records(
            40, vocab_size=20, min_len=3, max_len=8, seed=43))
        ckpt = tmp_path / "rnn.ckpt"
        assert main(["train", "--task", "pair",
                     "--train", str(workspace / "train.jsonl"),
                     "--val", str(tmp_path / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset", "--out", str(ckpt),
                     "--hidden", "8", "--d-attn", "6", "--d-clf", "12",
                     "--batch", "8", "--epochs", "3", "--seed", "7",
                     "--leaf", "rnn"]) == 0
        rows = [line.split("\t") for line in
                (tmp_path / "rnn.ckpt.metrics.tsv").read_text().splitlines()
                if not line.startswith("#")]
        logged_best = max(rows, key=lambda row: float(row[3]))[3]
        checkpoint = Checkpoint.load(ckpt)
        assert f"{checkpoint.best_val_acc:.4f}" == logged_best
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(tmp_path / "val.jsonl")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"accuracy\t{logged_best}"
        model = checkpoint.build_model()
        examples = load_pair_corpus(tmp_path / "val.jsonl", model.vocab,
                                    checkpoint.config.labels, checkpoint.config.max_len)
        assert evaluate(examples, model).accuracy == checkpoint.best_val_acc

    def test_checkpoint_with_unknown_config_key_exits_2(self, workspace, tmp_path,
                                                        capsys):
        magic, config, rest = (workspace / "model.ckpt").read_bytes().split(b"\n", 2)
        config = config[:-1] + b', "frobnicate": 1}'
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\n".join([magic, config, rest]))
        code = main(["eval", "--checkpoint", str(bad),
                     "--corpus", str(workspace / "val.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: bad config: unknown config key 'frobnicate'\n"

    def test_checkpoint_with_missing_header_lines_exits_2(self, workspace, tmp_path,
                                                          capsys):
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(b"treeattn-checkpoint 1\nblob\n")
        code = main(["eval", "--checkpoint", str(bad),
                     "--corpus", str(workspace / "val.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: truncated header: no config line\n"

    def test_checkpoint_with_an_extra_header_line_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "extra.ckpt"
        bad.write_bytes((workspace / "model.ckpt").read_bytes().replace(
            b"\nblob\n", b"\nnot a shape line at all\nblob\n", 1))
        code = main(["eval", "--checkpoint", str(bad),
                     "--corpus", str(workspace / "val.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(bad))}: unexpected header line "
                            rf"'not a shape line at all' after the \d+ parameter shape lines\n",
                            err), err

    def test_checkpoint_config_missing_a_key_exits_2(self, workspace, tmp_path,
                                                      capsys):
        magic, config, rest = (workspace / "model.ckpt").read_bytes().split(b"\n", 2)
        values = json.loads(config)
        del values["task"]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\n".join([magic, json.dumps(values).encode(), rest]))
        code = main(["parse", "--checkpoint", str(bad),
                     "--input", str(workspace / "sents.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: bad config: missing config key 'task'\n"

    @pytest.mark.parametrize("key, value, message", [
        ("hidden", 1.5, "hidden must be of type int, got 1.5"),
        ("d_attn", 2.0, "d_attn must be of type int, got 2.0"),
        ("hidden", True, "hidden must be of type int, got True"),
        ("labels", "ab", "labels must be a list of strings, got 'ab'"),
        ("labels", ["no", ""], "a label is empty"),
        ("labels", [1, 2], "labels must be a list of strings, got [1, 2]"),
        ("finetune_embeddings", "no",
         "finetune_embeddings must be of type bool, got 'no'"),
        ("leaf_kind", "cnn", "leaf_kind must be 'rnn' or 'affine', got 'cnn'"),
    ], ids=["float-hidden", "float-d_attn", "bool-hidden", "string-labels", "empty-label",
            "int-labels", "string-bool", "unknown-leaf"])
    def test_checkpoint_config_value_of_the_wrong_type_exits_2(self, workspace, tmp_path,
                                                               capsys, key, value, message):
        magic, config, rest = (workspace / "model.ckpt").read_bytes().split(b"\n", 2)
        values = json.loads(config)
        values[key] = value
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\n".join([magic, json.dumps(values).encode(), rest]))
        code = main(["parse", "--checkpoint", str(bad),
                     "--input", str(workspace / "sents.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: bad config: {message}\n"

    @pytest.mark.parametrize("key, value, message", [
        ("hidden", 3, "parameter 'composition.weight': checkpoint shape (10, 4) != (15, 6)"),
        ("d_attn", 10**9,
         "parameter 'attention.embed_weight': checkpoint shape (2, 2) != (1000000000, 2)"),
        ("d_clf", 10**9, "parameter 'head.hidden_bias': checkpoint shape (2,) != (1000000000,)"),
    ], ids=["hidden", "d_attn", "d_clf"])
    def test_config_sizes_are_checked_before_a_model_is_built(
            self, workspace, tmp_path, capsys, monkeypatch, key, value, message):
        # a size far above the stored arrays' would otherwise be allocated first
        def build(*args, **kwargs):
            raise AssertionError("a model was built before the sizes were checked")

        monkeypatch.setattr(training.Model, "build", build)
        magic, config, rest = (FIXTURES / "affine.ckpt").read_bytes().split(b"\n", 2)
        values = json.loads(config)
        values[key] = value
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\n".join([magic, json.dumps(values).encode(), rest]))
        code = main(["parse", "--checkpoint", str(bad),
                     "--input", str(workspace / "sents.txt")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def _drop(params, name):
    del params[name]


def _rename(params, old, new):
    params[new] = params.pop(old)


@pytest.mark.parametrize("mutate, message", [
    (lambda c: _drop(c.params, "leaf.bias"), "checkpoint is missing parameter 'leaf.bias'"),
    (lambda c: _drop(c.params, "embedding"), "checkpoint is missing parameter 'embedding'"),
    (lambda c: _rename(c.params, "leaf.weight", "leaf.wait"),
     "checkpoint is missing parameter 'leaf.weight'"),
    (lambda c: c.params.update(extra=np.zeros(2, np.float32)),
     "checkpoint has unknown parameter 'extra'"),
    (lambda c: c.params.update({"leaf.weight": c.params["leaf.weight"].T.copy()}),
     "parameter 'leaf.weight': checkpoint shape (6, 16) != (16, 6)"),
    (lambda c: c.vocab_words.pop(),
     "vocabulary has 21 words but parameter 'embedding' has shape (22, 6)"),
    (lambda c: c.vocab_words.append("extra"),
     "vocabulary has 23 words but parameter 'embedding' has shape (22, 6)"),
    (lambda c: c.vocab_words.__setitem__(slice(None), [1, 2, 3]),
     "bad vocabulary line: not a list of strings"),
    (lambda c: c.vocab_words.__setitem__(-1, c.vocab_words[2]),
     "vocabulary repeats the word 'tok00'"),
    (lambda c: c.params["head.out_bias"].__setitem__(1, np.nan),
     "parameter 'head.out_bias' has non-finite values"),
    (lambda c: c.params["embedding"].__setitem__((3, 2), np.nan),
     "parameter 'embedding' has non-finite values"),
    (lambda c: c.params["query"].__setitem__(0, np.inf),
     "parameter 'query' has non-finite values"),
], ids=["missing", "missing-embedding", "renamed", "unknown", "wrong-shape",
        "vocab-short", "vocab-long", "vocab-not-strings", "vocab-repeated",
        "nan-head-bias", "nan-embedding", "inf-query"])
@pytest.mark.parametrize("command", ["parse", "eval"])
def test_checkpoint_that_does_not_match_its_config_exits_2(workspace, tmp_path, capsys,
                                                           mutate, message, command):
    checkpoint = Checkpoint.load(workspace / "model.ckpt")
    mutate(checkpoint)
    bad = tmp_path / "bad.ckpt"
    checkpoint.save(bad)
    inputs = (["--input", str(workspace / "sents.txt")] if command == "parse"
              else ["--corpus", str(workspace / "val.jsonl")])
    assert main([command, "--checkpoint", str(bad), *inputs]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


class TestParse:
    def test_trees_and_attention_report(self, workspace, tmp_path):
        trees_out = tmp_path / "trees.txt"
        attn_out = tmp_path / "attn.tsv"
        code = main(["parse", "--checkpoint", str(workspace / "model.ckpt"),
                     "--input", str(workspace / "sents.txt"),
                     "--out", str(trees_out), "--attention", str(attn_out)])
        assert code == 0
        lines = trees_out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == "( tok05 )"
        tree, _ = parse_bracketed(lines[0])
        assert tree.n == 5 and tree.tokens == ("tok00", "tok01", "tok02", "tok03", "tok04")
        by_sentence = {}
        for row in attn_out.read_text().splitlines():
            sent, node, start, end, weight, text = row.split("\t")
            by_sentence.setdefault(int(sent), []).append(
                (int(node), (int(start), int(end)), float(weight), text))
        assert sorted(by_sentence) == [0, 1, 2]
        assert len(by_sentence[0]) == 9
        assert len(by_sentence[1]) == 1 and by_sentence[1][0][2] == pytest.approx(1.0)
        for index, rows in by_sentence.items():
            tree, _ = parse_bracketed(lines[index])
            tokens, n = tree.tokens, tree.n
            assert [node for node, *_ in rows] == list(range(2 * n - 1))
            assert [span for _, span, *_ in rows[:n]] == [(i, i + 1) for i in range(n)]
            assert {span for _, span, *_ in rows[n:]} == tree.span_set()
            assert rows[-1][1] == (0, n)
            for _, (start, end), _, text in rows:
                assert text == " ".join(tokens[start:end])
            # rows carry 6 decimal places, so sums match 1 at that precision
            assert sum(weight for _, _, weight, _ in rows) == pytest.approx(1.0, abs=1e-5)

    def test_oov_sentence_still_parses(self, workspace, tmp_path, capsys):
        source = tmp_path / "oov.txt"
        source.write_text("zebra quagga okapi\n", encoding="utf-8")
        code = main(["parse", "--checkpoint", str(workspace / "model.ckpt"),
                     "--input", str(source), "--out", str(tmp_path / "t.txt")])
        assert code == 0
        tree, _ = parse_bracketed((tmp_path / "t.txt").read_text())
        assert tree.n == 3

    def test_checkpoint_is_dropped_before_the_first_encode(self, workspace, tmp_path,
                                                           monkeypatch):
        # after build_model only the config is read, so the checkpoint's
        # float32 arrays must not stay alive next to the model's copies
        loaded, alive = [], []
        load, encode = Checkpoint.load.__func__, Model.encode

        def spy_load(cls, path):
            checkpoint = load(cls, path)
            loaded.append(weakref.ref(checkpoint))
            return checkpoint

        def spy_encode(self, *args, **kwargs):
            alive.append(loaded[0]() is not None)
            return encode(self, *args, **kwargs)

        monkeypatch.setattr(Checkpoint, "load", classmethod(spy_load))
        monkeypatch.setattr(Model, "encode", spy_encode)
        assert main(["parse", "--checkpoint", str(workspace / "model.ckpt"),
                     "--input", str(workspace / "sents.txt"),
                     "--out", str(tmp_path / "t.txt")]) == 0
        assert len(loaded) == 1 and alive[0] is False

    def test_bracket_tokens_read_back_in_treescore(self, workspace, tmp_path, capsys):
        tokens = ["tok00", "(", "tok01", ")", "tok02"]
        (tmp_path / "s.txt").write_text(" ".join(tokens) + "\n", encoding="utf-8")
        assert main(["parse", "--checkpoint", str(workspace / "model.ckpt"),
                     "--input", "s.txt", "--out", "t.txt", "--attention", "a.tsv"]) == 0
        model = Checkpoint.load(workspace / "model.ckpt").build_model()
        expected = model.encode(model.vocab.encode(tokens), mode="infer",
                                tokens=tuple(tokens)).tree
        tree, _ = parse_bracketed((tmp_path / "t.txt").read_text())
        assert tree.span_set() == expected.span_set()
        assert tree.tokens == ("tok00", "-LRB-", "tok01", "-RRB-", "tok02")
        # the attention report keeps the raw tokens
        rows = [row.split("\t") for row in (tmp_path / "a.tsv").read_text().splitlines()]
        assert [row[5] for row in rows[:5]] == tokens
        assert rows[-1][5] == " ".join(tokens)
        assert main(["treescore", "--pred", "t.txt", "--baselines-only"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_repeated_runs_are_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["parse", "--checkpoint", str(workspace / "model.ckpt"),
                         "--input", str(workspace / "sents.txt"),
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTreescore:
    def test_identical_files_score_100(self, workspace, tmp_path, capsys):
        trees = "( ( a b ) c )\n( a ( b c ) )\n"
        pred = tmp_path / "pred.txt"
        ref = tmp_path / "ref.txt"
        pred.write_text(trees)
        ref.write_text(trees)
        code = main(["treescore", "--pred", str(pred), "--ref", str(ref)])
        assert code == 0
        assert "100.0" in capsys.readouterr().out

    def test_right_branching_column(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("( a ( b ( c d ) ) )\n( a ( b c ) )\n")
        per_sentence = tmp_path / "per.tsv"
        code = main(["treescore", "--pred", str(pred), "--baselines-only",
                     "--per-sentence", str(per_sentence)])
        assert code == 0
        assert per_sentence.read_text().count("\n") == 3  # header + 2 rows
        out = capsys.readouterr().out
        assert "100.0" in out

    def test_deep_tree_scores_without_recursion(self, tmp_path, capsys):
        n = 3000  # far past the interpreter's default recursion limit
        pred = tmp_path / "deep.txt"
        pred.write_text(" ".join(f"( t{i}" for i in range(n - 1))
                        + f" t{n - 1}" + " )" * (n - 1) + "\n")
        per_sentence = tmp_path / "per.tsv"
        assert main(["treescore", "--pred", str(pred), "--baselines-only",
                     "--per-sentence", str(per_sentence)]) == 0
        assert capsys.readouterr().err == ""
        row = per_sentence.read_text().splitlines()[1].split("\t")
        assert row[1] == str(n) and row[3] == "100.00"

    def test_misaligned_exits_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        ref = tmp_path / "ref.txt"
        pred.write_text("( a b )\n( a ( b c ) )\n")
        ref.write_text("( a b )\n( ( a b ) ( c d ) )\n")
        assert main(["treescore", "--pred", str(pred), "--ref", str(ref)]) == 2
        assert "[1]" in capsys.readouterr().err

    def test_requires_ref_or_baselines_flag(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("( a b )\n")
        with pytest.raises(SystemExit) as info:  # rejected by the argument parser
            main(["treescore", "--pred", str(pred)])
        assert info.value.code == 2
        assert ("one of the arguments --ref --baselines-only is required"
                in capsys.readouterr().err)

    def test_ref_and_baselines_only_together_exit_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("( a b )\n")
        with pytest.raises(SystemExit) as info:
            main(["treescore", "--pred", str(pred), "--ref", str(pred), "--baselines-only"])
        assert info.value.code == 2
        assert ("argument --baselines-only: not allowed with argument --ref"
                in capsys.readouterr().err)

    def test_one_file_as_pred_and_ref_scores_100(self, tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        trees.write_text("( ( a b ) c )\n( a ( b c ) )\n")
        assert main(["treescore", "--pred", str(trees), "--ref", str(trees)]) == 0
        assert "100.0" in capsys.readouterr().out

    def test_max_over_multiple_inputs(self, tmp_path, capsys):
        ref = tmp_path / "ref.txt"
        ref.write_text("( ( a b ) ( c d ) )\n")
        good = tmp_path / "good.txt"
        good.write_text("( ( a b ) ( c d ) )\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("( a ( b ( c d ) ) )\n")
        code = main(["treescore", "--pred", str(bad), str(good), "--ref", str(ref)])
        assert code == 0
        out = capsys.readouterr().out
        assert "max over 2 inputs" in out
        assert out.rstrip().splitlines()[-1].split()[2] == "100.0"


VALID_TREES = b"( ( a b ) c )\n( a ( b ( c d ) ) )\n( e )\n"

# truncation, byte flips, stray or missing brackets, NUL, NEL (U+0085 and
# its bare byte), other non-UTF-8 bytes and blank lines
TREE_FILE_EDITS = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 99)),
    st.tuples(st.just("flip"), st.integers(0, 99), st.integers(1, 255)),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("insert"), st.integers(0, 99), st.sampled_from(
        [b"(", b")", b" ( ", b" ) ", b"\x00", "\x85".encode(), b"\x85", b"\xff",
         b"\xc3", b"\n", b"\n\n", b" \r\n"])),
), min_size=1, max_size=4)


def edit_bytes(data: bytes, edits) -> bytes:
    for kind, position, *arg in edits:
        at = position % (len(data) + 1)
        if kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + arg[0] + data[at:]
        elif at < len(data):
            kept = bytes([data[at] ^ arg[0]]) if kind == "flip" else b""
            data = data[:at] + kept + data[at + 1:]
    return data


@given(TREE_FILE_EDITS, st.booleans())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_treescore_on_mutated_tree_files_exits_0_or_2(edits, mutate_ref_too):
    """A damaged predicted (and optionally reference) tree file is scored or
    rejected with exit 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        damaged = edit_bytes(VALID_TREES, edits)
        (root / "pred.txt").write_bytes(damaged)
        (root / "ref.txt").write_bytes(damaged if mutate_ref_too else VALID_TREES)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["treescore", "--pred", str(root / "pred.txt"),
                         "--ref", str(root / "ref.txt"), "--micro", "--exclude-root",
                         "--per-sentence", str(root / "per.tsv"),
                         "--out", str(root / "report.txt"),
                         "--manifest", str(root / "manifest.json")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


AFFINE_CHECKPOINT = (FIXTURES / "affine.ckpt").read_bytes()

# byte flips anywhere in the file, then perhaps a cut.  A flip can write a
# digit and so change a config size or a shape in the header; allocation
# stays bounded because Checkpoint.load compares each parameter's byte count
# with the file length before it allocates, and build_model checks the
# config sizes against the stored shapes before it allocates the model
CHECKPOINT_EDITS = st.builds(
    lambda flips, cut: flips + cut,
    st.lists(st.tuples(st.just("flip"), st.integers(0, len(AFFINE_CHECKPOINT)),
                       st.integers(1, 255)), max_size=4),
    st.lists(st.tuples(st.just("truncate"), st.integers(0, len(AFFINE_CHECKPOINT))),
             max_size=1))


@given(CHECKPOINT_EDITS)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_parse_with_mutated_checkpoint_exits_0_2_or_3(edits):
    """A damaged checkpoint is parsed, or rejected with exit 2 (3 if its
    values overflow in the model), never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "model.ckpt").write_bytes(edit_bytes(AFFINE_CHECKPOINT, edits))
        (root / "sents.txt").write_text("a b c\nc zebra\nb\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["parse", "--checkpoint", str(root / "model.ckpt"),
                         "--input", str(root / "sents.txt"), "--out", str(root / "trees.txt"),
                         "--attention", str(root / "attn.tsv"),
                         "--manifest", str(root / "manifest.json")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


VALID_EMBEDDINGS = "".join(f"{toy.token_name(i)} 0.{i} -0.5 2.5e-1\n" for i in range(6))
FUZZ_PAIRS = toy.subset_pair_records(4, vocab_size=6, min_len=2, max_len=3, seed=3)

# values put in place of a field, the last field of a row dropped, then
# cuts, byte flips and inserted bytes that are not UTF-8 (or a NUL).  No
# edit adds a field or a line, so the table never grows
EMBEDDING_FILE_EDITS = st.tuples(
    st.lists(st.one_of(
        st.tuples(st.just("value"), st.integers(0, 5), st.integers(1, 3), st.sampled_from(
            ["nan", "-inf", "1e39", "-1e39", "1e400", "3.4028236e38", "3.4028235e38",
             "-1e30", "1e-46"])),
        st.tuples(st.just("ragged"), st.integers(0, 5)),
    ), max_size=3),
    st.lists(st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 99)),
        st.tuples(st.just("flip"), st.integers(0, 99), st.integers(1, 255)),
        st.tuples(st.just("insert"), st.integers(0, 99),
                  st.sampled_from([b"\xff", b"\xc3", b"\x85", b"\x00"])),
    ), max_size=3))


def edit_embeddings(field_edits, byte_edits) -> bytes:
    rows = [line.split() for line in VALID_EMBEDDINGS.splitlines()]
    for kind, row, *arg in field_edits:
        if kind == "value":
            rows[row][arg[0] % len(rows[row])] = arg[1]
        else:
            del rows[row][-1]
    data = "".join(" ".join(fields) + "\n" for fields in rows).encode()
    # a flip that would break a line is left out
    byte_edits = [edit for edit in byte_edits if edit[0] != "flip" or
                  bytes([data[edit[1] % len(data)] ^ edit[2]]) not in b"\n\r"]
    return edit_bytes(data, byte_edits)


@given(EMBEDDING_FILE_EDITS)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_train_with_mutated_embedding_file_exits_0_2_or_3(edits):
    """A damaged embedding file trains, or is rejected with exit 2 (3 if its
    values overflow in the model), never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "emb.txt").write_bytes(edit_embeddings(*edits))
        toy.write_pair_corpus(root / "pairs.jsonl", FUZZ_PAIRS)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--task", "pair", "--train", str(root / "pairs.jsonl"),
                         "--val", str(root / "pairs.jsonl"),
                         "--embeddings", str(root / "emb.txt"),
                         "--labels", ",".join(toy.SUBSET_LABELS),
                         "--out", str(root / "model.ckpt"), "--hidden", "2",
                         "--d-attn", "2", "--d-clf", "2", "--epochs", "1", "--seed", "1"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# values for the numeric train flags: out of range, not a number, or
# extreme.  Sizes are 1-4 or 2**62, which numpy refuses by arithmetic, never
# one it would allocate, and a run has at most two epochs
NOT_A_NUMBER = ["1e3", "abc"]
SIZE_VALUES = st.sampled_from(["1", "2", "3", "4", str(2 ** 62), "0", "-1", *NOT_A_NUMBER])
REAL_VALUES = st.sampled_from(["0", "-0.0", "-1", "0.5", "1", str(2 ** 62), "nan", "inf",
                               "-inf", "1e-320", "-1e-320", "1e308", "-1e308", "1e400",
                               "0x10", "abc"])
TRAIN_FLAG_VALUES = st.lists(st.one_of(
    *(st.tuples(st.just(flag), SIZE_VALUES)
      for flag in ("--hidden", "--d-attn", "--d-clf", "--batch", "--max-len",
                   "--vocab-limit")),
    st.tuples(st.just("--epochs"), st.sampled_from(["-1", "0", "1", "2", *NOT_A_NUMBER])),
    st.tuples(st.just("--patience"), st.sampled_from(["-1", "0", "1", str(2 ** 62),
                                                      *NOT_A_NUMBER])),
    *(st.tuples(st.just(flag), REAL_VALUES)
      for flag in ("--dropout", "--lr", "--temperature")),
), min_size=1, max_size=2)


@given(TRAIN_FLAG_VALUES, st.booleans())
@example([("--temperature", "1e-320")], True)  # finite, but the selection logits overflow
@example([("--lr", "1e308")], True)
@example([("--lr", "-inf"), ("--dropout", "-1e-17")], False)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_train_with_fuzzed_numeric_flags_exits_0_2_or_3(flags, joined):
    """Any value of the numeric train flags, as ``--flag value`` or as
    ``--flag=value``, trains, or is rejected with exit 2 (3 if training
    diverges), never with a traceback; no value is read as another flag."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "emb.txt").write_text(VALID_EMBEDDINGS, encoding="utf-8")
        toy.write_pair_corpus(root / "pairs.jsonl", FUZZ_PAIRS)
        # the drawn flags come last, so they override the small base sizes
        argv = ["train", "--task", "pair", "--train", str(root / "pairs.jsonl"),
                "--val", str(root / "pairs.jsonl"), "--embeddings", str(root / "emb.txt"),
                "--labels", ",".join(toy.SUBSET_LABELS), "--out", str(root / "model.ckpt"),
                "--hidden", "2", "--d-attn", "2", "--d-clf", "2", "--epochs", "1",
                "--seed", "1"]
        for flag, value in flags:
            argv += [f"{flag}={value}"] if joined else [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exit_:  # rejected by the argument parser
                code = exit_.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert "expected one argument" not in err.getvalue()


class TestSimilarity:
    def test_scores_format_and_bounds(self, workspace, tmp_path, capsys):
        code = main(["similarity", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(workspace / "pairs.tsv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1.0000"  # identical sentences
        for line in lines:
            value = float(line)
            assert -1.0 <= value <= 1.0
            assert len(line.split(".")[1]) == 4

    def test_swapped_pair_same_score(self, workspace, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("tok01 tok02 tok03\ttok04 tok05\n"
                         "tok04 tok05\ttok01 tok02 tok03\n", encoding="utf-8")
        assert main(["similarity", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(pairs)]) == 0
        a, b = capsys.readouterr().out.splitlines()
        assert a == b

    def test_empty_sentence_exits_2(self, workspace, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("tok01\t\n", encoding="utf-8")
        assert main(["similarity", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(pairs)]) == 2
        assert ":1:" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, workspace, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("tok01 tok02\ttok01 tok02\n\n \t \ntok04\ttok05\n", encoding="utf-8")
        assert main(["similarity", "--checkpoint", str(workspace / "model.ckpt"),
                     "--pairs", str(pairs)]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == "1.0000" and -1.0 <= float(second) <= 1.0


def _with_bad_byte(source, target):
    """Copy a text file with one byte that is not UTF-8 inserted into line 2."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
    target.write_bytes(b"".join(lines))
    return target


TREES = "( ( a b ) c )\n( a ( b c ) )\n"


class TestInputAndOutputErrors:
    @pytest.mark.parametrize("reader", ["embeddings", "train", "corpus", "pred", "ref",
                                        "input", "pairs"])
    def test_non_utf8_input_exits_2_naming_file_and_line(self, workspace, tmp_path,
                                                        capsys, reader):
        (tmp_path / "trees.txt").write_text(TREES)
        sources = {"embeddings": workspace / "emb.txt", "train": workspace / "train.jsonl",
                   "corpus": workspace / "val.jsonl", "pred": tmp_path / "trees.txt",
                   "ref": tmp_path / "trees.txt", "input": workspace / "sents.txt",
                   "pairs": workspace / "pairs.tsv"}
        bad = str(_with_bad_byte(sources[reader], tmp_path / f"bad_{reader}"))
        files = {name: str(path) for name, path in sources.items()}
        files[reader] = bad
        checkpoint = str(workspace / "model.ckpt")
        argv = {
            "embeddings": ["train", "--task", "pair", "--train", files["train"],
                           "--val", files["corpus"], "--embeddings", files["embeddings"],
                           "--labels", "mixed,subset", "--out", str(tmp_path / "x.ckpt")],
            "corpus": ["eval", "--checkpoint", checkpoint, "--corpus", files["corpus"]],
            "pred": ["treescore", "--pred", files["pred"], "--ref", files["ref"]],
            "input": ["parse", "--checkpoint", checkpoint, "--input", files["input"]],
            "pairs": ["similarity", "--checkpoint", checkpoint, "--pairs", files["pairs"]],
        }
        argv["train"], argv["ref"] = argv["embeddings"], argv["pred"]
        assert main(argv[reader]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}:2: not valid UTF-8\n"

    def test_directory_as_treescore_out_exits_2(self, tmp_path, capsys):
        (tmp_path / "trees.txt").write_text(TREES)
        (tmp_path / "report").mkdir()
        assert main(["treescore", "--pred", str(tmp_path / "trees.txt"),
                     "--baselines-only", "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == (
            f"error: output path is a directory: {tmp_path / 'report'}\n")

    def test_directory_as_eval_predictions_exits_2(self, workspace, tmp_path, capsys):
        (tmp_path / "preds").mkdir()
        assert main(["eval", "--checkpoint", str(workspace / "model.ckpt"),
                     "--corpus", str(workspace / "val.jsonl"),
                     "--predictions", str(tmp_path / "preds")]) == 2
        assert capsys.readouterr().err == (
            f"error: output path is a directory: {tmp_path / 'preds'}\n")

    def test_directory_as_manifest_exits_2(self, tmp_path, capsys):
        (tmp_path / "trees.txt").write_text(TREES)
        (tmp_path / "manifest").mkdir()
        assert main(["treescore", "--pred", str(tmp_path / "trees.txt"),
                     "--baselines-only", "--out", str(tmp_path / "report.txt"),
                     "--manifest", str(tmp_path / "manifest")]) == 2
        assert capsys.readouterr().err == (
            f"error: output path is a directory: {tmp_path / 'manifest'}\n")

    def test_directory_as_train_out_exits_2_before_loading(self, workspace, tmp_path,
                                                          capsys):
        # the embedding file is broken too: only a check made before any
        # loading reports the directory instead
        emb = _with_bad_byte(workspace / "emb.txt", tmp_path / "emb.txt")
        (tmp_path / "ckpt").mkdir()
        code = main(["train", "--task", "pair",
                     "--train", str(workspace / "train.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(emb), "--labels", "mixed,subset",
                     "--out", str(tmp_path / "ckpt")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: output path is a directory: {tmp_path / 'ckpt'}\n")

    @pytest.mark.parametrize("outputs, message", [
        (["--out", "nodir/model.ckpt"], "no such directory for --out {tmp}/nodir/model.ckpt"),
        (["--out", "m.ckpt", "--metrics-log", "m.ckpt"],
         "--out and --metrics-log name the same file: {tmp}/m.ckpt")])
    def test_bad_train_outputs_exit_2_before_loading(self, workspace, tmp_path, capsys,
                                                     outputs, message):
        emb = _with_bad_byte(workspace / "emb.txt", tmp_path / "emb.txt")
        code = main(["train", "--task", "pair",
                     "--train", str(workspace / "train.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(emb), "--labels", "mixed,subset",
                     *(a if a.startswith("--") else str(tmp_path / a) for a in outputs)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]

    @pytest.mark.parametrize("flag, name, message", [
        ("--attention", "t.txt", "--out and --attention name the same file"),
        ("--manifest", "t.txt", "--out and --manifest name the same file"),
        # the default manifest path counts too
        ("--attention", "t.txt.manifest.json",
         "--attention and --manifest name the same file")])
    def test_parse_outputs_naming_one_file_exit_2_before_loading(
            self, workspace, tmp_path, capsys, flag, name, message):
        source = _with_bad_byte(workspace / "sents.txt", tmp_path / "sents.txt")
        (tmp_path / "t.txt").write_text("keep\n")
        code = main(["parse", "--checkpoint", str(workspace / "model.ckpt"),
                     "--input", str(source), "--out", str(tmp_path / "t.txt"),
                     flag, str(tmp_path / name)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}: ")
        assert (tmp_path / "t.txt").read_text() == "keep\n"

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in [
            ("train", ["--out", "--metrics-log", "--manifest"]),
            ("eval", ["--predictions", "--manifest"]),
            ("parse", ["--out", "--attention", "--manifest"]),
            ("treescore", ["--out", "--per-sentence", "--manifest"]),
            ("similarity", ["--out", "--manifest"])]
        for flag in flags])
    def test_directory_as_any_output_exits_2_before_loading(self, workspace, tmp_path,
                                                            capsys, command, flag):
        # each command reads a broken input: only a check made before any
        # loading reports the directory instead
        (tmp_path / "trees.txt").write_text(TREES)
        bad = {name: str(_with_bad_byte(path, tmp_path / f"bad_{path.name}"))
               for name, path in [("emb", workspace / "emb.txt"),
                                  ("corpus", workspace / "val.jsonl"),
                                  ("sents", workspace / "sents.txt"),
                                  ("trees", tmp_path / "trees.txt"),
                                  ("pairs", workspace / "pairs.tsv")]}
        checkpoint = str(workspace / "model.ckpt")
        argv = {
            "train": ["train", "--task", "pair", "--train", str(workspace / "train.jsonl"),
                      "--val", str(workspace / "val.jsonl"), "--embeddings", bad["emb"],
                      "--labels", "mixed,subset", "--out", "x.ckpt"],
            "eval": ["eval", "--checkpoint", checkpoint, "--corpus", bad["corpus"]],
            "parse": ["parse", "--checkpoint", checkpoint, "--input", bad["sents"]],
            "treescore": ["treescore", "--pred", bad["trees"], "--baselines-only"],
            "similarity": ["similarity", "--checkpoint", checkpoint, "--pairs", bad["pairs"]],
        }[command]
        (tmp_path / "dir").mkdir()
        # a repeated flag takes its last value
        assert main([*argv, flag, str(tmp_path / "dir")]) == 2
        assert capsys.readouterr() == ("", f"error: output path is a directory: "
                                           f"{tmp_path / 'dir'}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["dir", "trees.txt", *(Path(path).name for path in bad.values())])
        assert not list((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["treescore", "--pred", "t.txt", "--baselines-only", "--out", "t.txt"],
         "--pred and --out name the same file: t.txt"),
        (["parse", "--input", "t.txt", "--out", "t.txt"],
         "--input and --out name the same file: t.txt")], ids=["treescore", "parse"])
    def test_output_naming_an_input_exits_2_before_loading(self, workspace, tmp_path,
                                                           capsys, argv, message):
        (tmp_path / "t.txt").write_text(TREES)
        if argv[0] == "parse":
            argv = [*argv, "--checkpoint", str(workspace / "model.ckpt")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert (tmp_path / "t.txt").read_text() == TREES
        assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]

    # one record with an empty sentence, one longer than the default max_len
    SKIPPED_RECORDS = "".join(json.dumps(record) + "\n" for record in [
        {"premise": "tok00", "hypothesis": "", "label": "mixed"},
        {"premise": "tok00 " * 121, "hypothesis": "tok01", "label": "subset"}])

    @pytest.mark.parametrize("command, text, message", [
        ("parse", "tok00 tok01\n\ntok02\n", "{input}:2: empty sentence"),
        ("train", SKIPPED_RECORDS, "--train {input}: no usable examples after loading"),
        ("train-val", SKIPPED_RECORDS, "--val {input}: no usable examples after loading"),
        ("eval", SKIPPED_RECORDS, "--corpus {input}: no usable examples after loading"),
        ("treescore", TREES, "--per-sentence needs exactly one --pred file"),
        ("similarity", "tok00\ttok01\n\ntok02\n",
         "{input}:3: expected two tab-separated sentences"),
    ])
    def test_input_the_command_cannot_use_exits_2_with_one_error_line(
            self, workspace, tmp_path, capsys, command, text, message):
        source = tmp_path / "input.txt"
        source.write_text(text, encoding="utf-8")
        checkpoint = str(workspace / "model.ckpt")
        argv = {
            "parse": ["parse", "--checkpoint", checkpoint, "--input", str(source)],
            "train": ["train", "--task", "pair", "--train", str(source),
                      "--val", str(workspace / "val.jsonl"),
                      "--embeddings", str(workspace / "emb.txt"),
                      "--labels", "mixed,subset", "--out", "x.ckpt"],
            "train-val": ["train", "--task", "pair", "--train", str(workspace / "val.jsonl"),
                          "--val", str(source), "--embeddings", str(workspace / "emb.txt"),
                          "--labels", "mixed,subset", "--out", "x.ckpt"],
            "eval": ["eval", "--checkpoint", checkpoint, "--corpus", str(source)],
            "treescore": ["treescore", "--pred", str(source), str(source),
                          "--baselines-only", "--per-sentence", "per.tsv"],
            "similarity": ["similarity", "--checkpoint", checkpoint, "--pairs", str(source)],
        }[command]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {message.format(input=source)}"]
        assert [p.name for p in tmp_path.iterdir()] == ["input.txt"]

    def test_outputs_naming_one_file_through_a_symlink_exit_2(self, tmp_path, capsys):
        (tmp_path / "trees.txt").write_text(TREES)
        (tmp_path / "link.txt").symlink_to(tmp_path / "report.txt")
        assert main(["treescore", "--pred", str(tmp_path / "trees.txt"),
                     "--baselines-only", "--out", str(tmp_path / "report.txt"),
                     "--per-sentence", str(tmp_path / "link.txt")]) == 2
        assert "--out and --per-sentence name the same file" in capsys.readouterr().err


def test_each_manifest_records_the_digest_of_every_file_output(workspace, tmp_path):
    ckpt = str(workspace / "model.ckpt")
    (tmp_path / "trees.txt").write_text(TREES)
    runs = [  # manifest, the command that wrote it, its number of file outputs
        (workspace / "model.ckpt.manifest.json", None, 2),  # the workspace's train run
        (tmp_path / "preds.tsv.manifest.json", [
            "eval", "--checkpoint", ckpt, "--corpus", str(workspace / "val.jsonl"),
            "--predictions", str(tmp_path / "preds.tsv")], 1),
        (tmp_path / "p.txt.manifest.json", [
            "parse", "--checkpoint", ckpt, "--input", str(workspace / "sents.txt"),
            "--out", str(tmp_path / "p.txt"), "--attention", str(tmp_path / "a.tsv")], 2),
        (tmp_path / "r.txt.manifest.json", [
            "treescore", "--pred", str(tmp_path / "trees.txt"), "--baselines-only",
            "--out", str(tmp_path / "r.txt"), "--per-sentence", str(tmp_path / "s.tsv")], 2),
        (tmp_path / "sim.txt.manifest.json", [
            "similarity", "--checkpoint", ckpt, "--pairs", str(workspace / "pairs.tsv"),
            "--out", str(tmp_path / "sim.txt")], 1),
        # stdout is not a file and gets no digest
        (tmp_path / "stdout.json", [
            "similarity", "--checkpoint", ckpt, "--pairs", str(workspace / "pairs.tsv"),
            "--manifest", str(tmp_path / "stdout.json")], 0),
    ]
    for manifest_path, argv, count in runs:
        if argv is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        manifest = json.loads(manifest_path.read_text())
        digests = manifest["output_sha256"]
        assert len(manifest["outputs"]) == count
        assert sorted(digests) == sorted(manifest["outputs"])
        for path, digest in digests.items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest(), path


def test_manifest_digests_each_input_as_it_was_loaded(workspace, tmp_path, monkeypatch):
    emb = tmp_path / "emb.txt"
    emb.write_bytes((workspace / "emb.txt").read_bytes())
    loaded = hashlib.sha256(emb.read_bytes()).hexdigest()
    real_train = cli.train

    def train_then_append(*args, **kwargs):
        result = real_train(*args, **kwargs)
        with open(emb, "a", encoding="utf-8") as fh:
            fh.write("late 0 0 0 0 0 0\n")
        return result

    monkeypatch.setattr(cli, "train", train_then_append)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--task", "pair", "--train", str(workspace / "train.jsonl"),
                     "--val", str(workspace / "val.jsonl"), "--embeddings", str(emb),
                     "--labels", "mixed,subset", "--out", str(tmp_path / "m.ckpt"),
                     "--hidden", "4", "--d-attn", "3", "--d-clf", "4",
                     "--epochs", "1", "--seed", "5"]) == 0
    assert hashlib.sha256(emb.read_bytes()).hexdigest() != loaded
    manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
    assert manifest["inputs"][str(emb)] == loaded
