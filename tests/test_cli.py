"""End-to-end command-line workflows on a generated toy task."""

import json

import numpy as np
import pytest

from treeattn import toy
from treeattn.cli import main
from treeattn.trees import parse_bracketed


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

    def test_missing_file_exits_2(self, workspace, capsys):
        code = main(["train", "--task", "pair",
                     "--train", str(workspace / "nope.jsonl"),
                     "--val", str(workspace / "val.jsonl"),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--labels", "mixed,subset",
                     "--out", str(workspace / "x.ckpt")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_zero_dim_exits_2(self, workspace):
        with pytest.raises(SystemExit) as info:
            main(["train", "--task", "pair",
                  "--train", str(workspace / "train.jsonl"),
                  "--val", str(workspace / "val.jsonl"),
                  "--embeddings", str(workspace / "emb.txt"),
                  "--labels", "mixed,subset",
                  "--out", str(workspace / "x.ckpt"), "--hidden", "0"])
        assert info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["train", "--frobnicate"])
        assert info.value.code == 2

    def test_divergent_training_exits_3(self, workspace, tmp_path, capsys):
        emb = tmp_path / "huge.txt"
        lines = []
        for i in range(20):
            lines.append(toy.token_name(i) + " " + " ".join(["1e160"] * 6))
        emb.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with np.errstate(over="ignore"):
            code = main(["train", "--task", "pair",
                         "--train", str(workspace / "train.jsonl"),
                         "--val", str(workspace / "val.jsonl"),
                         "--embeddings", str(emb),
                         "--labels", "mixed,subset",
                         "--out", str(tmp_path / "x.ckpt"),
                         "--hidden", "4", "--d-attn", "4", "--d-clf", "8",
                         "--epochs", "1", "--leaf", "affine", "--seed", "1"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


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

    def test_requires_ref_or_baselines_flag(self, tmp_path):
        pred = tmp_path / "pred.txt"
        pred.write_text("( a b )\n")
        assert main(["treescore", "--pred", str(pred)]) == 2

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
