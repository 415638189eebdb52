"""Embedding files, vocabularies, corpus loaders, and the file writer."""

import ast
import hashlib
import json
import os
import stat
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from treeattn import data, toy
from treeattn.data import (CorpusError, LoadStats, UNK_INDEX, load_corpus,
                           load_embeddings, load_pair_corpus, load_tree_corpus,
                           tokenize, write_file)
from treeattn.trees import export_bracketed

LABELS3 = ("entailment", "contradiction", "neutral")

# 1 + 2**-24 + 2**-70: float64 rounds it to 1 + 2**-24, a float32 tie that
# rounds to even, 1.0, although the decimal lies above the tie (1 + 2**-23
# when rounded once)
ROUNDS_TWICE = "1.0000000596046447753914720329472543"


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


class TestEmbeddings:
    def test_counts_and_reserved_rows(self, tmp_path):
        path = write(tmp_path / "emb.txt", ["cat 1 2 3", "dog 4 5 6"])
        vocab, emb = load_embeddings(path)
        assert len(vocab) == 4
        assert emb.vectors.shape == (4, 3) and emb.vectors.dtype == np.float32
        np.testing.assert_array_equal(emb.vectors[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(emb.vectors[2], [1.0, 2.0, 3.0])

    def test_unknown_word_maps_to_unk(self, tmp_path):
        path = write(tmp_path / "emb.txt", ["cat 1 2 3"])
        vocab, _ = load_embeddings(path)
        assert vocab.lookup("zebra") == UNK_INDEX
        assert vocab.lookup("cat") == 2

    def test_unk_row_is_seed_deterministic(self, tmp_path):
        path = write(tmp_path / "emb.txt", ["cat 1 2 3"])
        _, a = load_embeddings(path, seed=9)
        _, b = load_embeddings(path, seed=9)
        _, c = load_embeddings(path, seed=10)
        assert (a.vectors[1] == b.vectors[1]).all()
        assert not (a.vectors[1] == c.vectors[1]).all()
        assert (np.abs(a.vectors[1]) < 0.05).all()

    @pytest.mark.parametrize("lines, eol, by_line", [
        (["tiny 4.9e-324 -4.9e-324 -0.0", "huge 3.4028235e38 -3.4028235e38 +1.5",
          f"round {ROUNDS_TWICE} 1e-46 -7e-46"], "\n", False),
        (["\ttab\t1\t2\t3", "  spaced   4  5    6  ", "nbsp\xa07\xa08\xa09"], "\r\n",
         False),
        (["under 1_0 2 3", f"round {ROUNDS_TWICE} 3.4028235e38 -1e-46"], "\n", True),
        (["one 1", "column -2.5"], "\n", False),
    ], ids=["extremes", "separators", "underscore", "one-column"])
    def test_values_are_float_of_each_field(self, tmp_path, monkeypatch, lines, eol,
                                            by_line):
        # numpy converts the vector text unless it refuses a value, as it
        # does "1_0"; the file is then read again one float() at a time.
        # Either way a value is rounded once to float64, then to float32.
        path = tmp_path / "emb.txt"
        path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
        rereads = []
        reread = data._read_vectors_by_line
        monkeypatch.setattr(data, "_read_vectors_by_line",
                            lambda *args: rereads.append(args) or reread(*args))
        vocab, emb = load_embeddings(path)
        fields = [line.split() for line in lines]
        expected = np.array([[np.float32(float(v)) for v in f[1:]] for f in fields])
        assert vocab.index_to_word[2:] == [f[0] for f in fields]
        assert emb.vectors.dtype == np.float32
        assert emb.vectors[2:].tobytes() == expected.tobytes()
        assert bool(rereads) == by_line

    def test_load_peak_memory_is_at_most_twice_the_float32_table(self, tmp_path):
        # numpy reads the text into the table itself: no float64 parse and no
        # copy to add the reserved rows
        path = tmp_path / "emb.txt"
        toy.write_embedding_file(path, vocab_size=2000, dim=300, seed=0)
        tracemalloc.start()
        try:
            _, emb = load_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb.vectors.dtype == np.float32 and emb.vectors.shape == (2002, 300)
        assert peak <= 2 * emb.vectors.nbytes, f"peak {peak / emb.vectors.nbytes:.2f}x the table"

    def test_dimension_mismatch_names_line(self, tmp_path, recwarn):
        # a line holding only a word has no components; a file of such
        # lines warns about nothing
        for lines, message in ((["cat 1 2 3", "dog 4 5"], "2: expected 3 components, got 2"),
                               (["cat 1 2", "", "dog"], "3: expected 2 components, got 0"),
                               (["", "cat", "dog 1 2"], "2: no vector components"),
                               (["cat"], "1: no vector components")):
            path = write(tmp_path / "emb.txt", lines)
            with pytest.raises(CorpusError) as info:
                load_embeddings(path)
            assert str(info.value) == f"{path}:{message}"
        assert not recwarn.list

    def test_empty_file_rejected(self, tmp_path, recwarn):
        path = tmp_path / "emb.txt"
        for text in ("", "\n  \n\t\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(CorpusError) as info:
                load_embeddings(path)
            assert str(info.value) == f"{path}: empty embedding file"
        assert not recwarn.list

    def test_vocab_limit(self, tmp_path):
        # the lines after the limit are not read
        for last in (b"c 3", b"c x y", b"c \xff"):
            path = tmp_path / "emb.txt"
            path.write_bytes(b"a 1\n\nb 2\n" + last + b"\n")
            vocab, emb = load_embeddings(path, vocab_limit=2)
            assert len(vocab) == 4 and emb.vectors.shape == (4, 1)

    def test_bad_number_names_line(self, tmp_path):
        # "#" starts no comment, also when each line would keep as many values
        for lines, lineno, value in ((["cat 1 x 3"], 1, "x"),
                                     (["", "cat 1 2#3", "dog 4 5#6"], 2, "2#3")):
            path = write(tmp_path / "emb.txt", lines)
            with pytest.raises(CorpusError) as info:
                load_embeddings(path)
            assert str(info.value) == (
                f"{path}:{lineno}: could not convert string to float: {value!r}")

    def test_non_finite_value_names_line(self, tmp_path):
        for value in ("nan", "-inf", "1e309"):
            path = write(tmp_path / "emb.txt", ["", "cat 1 2", "", "dog 3 " + value,
                                                "bird inf 4"])
            with pytest.raises(CorpusError) as info:
                load_embeddings(path)
            assert str(info.value) == f"{path}:4: non-finite vector component"

    @pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "fine-tuned"])
    @pytest.mark.parametrize("value", ["1e39", "-3.4028236e38", "1e308", "-1e308"])
    def test_value_beyond_float32_names_line(self, tmp_path, recwarn, value, trainable):
        # finite as a float, but its float32 rounding is not; the whole file
        # is read either way, so a fine-tuned table starts from float32 too
        path = write(tmp_path / "emb.txt", ["cat 1 2", "", f"dog 3 {value}", "bird 1e39 4"])
        with pytest.raises(CorpusError) as info:
            load_embeddings(path, trainable=trainable)
        assert str(info.value) == (
            f"{path}:3: vector component {value} is outside the float32 range")
        assert not recwarn.list

    def test_repeated_word_names_file_line_and_word(self, tmp_path):
        # the blank lines are skipped, so the repeat's line is not its row;
        # a file word may also repeat a reserved token
        for lines, lineno, word in ((["cat 1 2", "dog 3 4", "", "cat 5 6"], 4, "cat"),
                                    (["", "", "dog 1 2", "cat 3 4", "dog 5 6"], 5, "dog"),
                                    (["dog 1 2", "<unk> 3 4"], 2, "<unk>")):
            path = write(tmp_path / "emb.txt", lines)
            with pytest.raises(CorpusError) as info:
                load_embeddings(path)
            assert str(info.value) == f"{path}:{lineno}: vocabulary repeats the word {word!r}"


class TestTokenize:
    def test_lowercase_whitespace_split(self):
        assert tokenize("A MAN") == ["a", "man"]
        assert tokenize("  tabs\tand\nnewlines ") == ["tabs", "and", "newlines"]
        assert tokenize("") == []


class TestPairCorpus:
    @pytest.fixture
    def vocab(self, tmp_path):
        path = write(tmp_path / "emb.txt", ["a 1 0", "man 0 1", "smiles 1 1"])
        return load_embeddings(path)[0]

    def test_label_order_fixes_indices(self, tmp_path, vocab):
        path = jsonl(tmp_path / "c.jsonl", [
            {"premise": "a man smiles", "hypothesis": "a man is happy",
             "label": "entailment"}])
        [ex] = load_pair_corpus(path, vocab, LABELS3)
        assert ex.label == 0
        assert ex.premise == [2, 3, 4]
        assert ex.hypothesis[:2] == [2, 3] and ex.hypothesis[2:] == [1, 1]

    def test_unknown_label_names_line(self, tmp_path, vocab):
        path = jsonl(tmp_path / "c.jsonl", [
            {"premise": "a", "hypothesis": "a", "label": "entailment"},
            {"premise": "a", "hypothesis": "a", "label": "maybe"}])
        with pytest.raises(CorpusError, match=":2:.*maybe"):
            load_pair_corpus(path, vocab, LABELS3)

    def test_empty_sentence_skipped_and_counted(self, tmp_path, vocab):
        # a missing sentence counts as an empty one
        path = jsonl(tmp_path / "c.jsonl", [
            {"premise": "a", "hypothesis": "", "label": "neutral"},
            {"premise": "a", "label": "neutral"},
            {"premise": "a", "hypothesis": "man", "label": "neutral"}])
        stats = LoadStats()
        examples = load_pair_corpus(path, vocab, LABELS3, stats=stats)
        assert len(examples) == 1
        assert stats.skipped_empty == 2

    def test_combined_length_cap(self, tmp_path, vocab):
        path = jsonl(tmp_path / "c.jsonl", [
            {"premise": "a " * 80, "hypothesis": "man " * 41, "label": "neutral"},
            {"premise": "a", "hypothesis": "man", "label": "neutral"}])
        stats = LoadStats()
        examples = load_pair_corpus(path, vocab, LABELS3, max_combined_len=120,
                                    stats=stats)
        assert len(examples) == 1 and stats.skipped_long == 1

    def test_file_order_preserved(self, tmp_path, vocab):
        records = [{"premise": "a", "hypothesis": "man", "label": LABELS3[i % 3]}
                   for i in range(5)]
        path = jsonl(tmp_path / "c.jsonl", records)
        examples = load_pair_corpus(path, vocab, LABELS3)
        assert [e.label for e in examples] == [0, 1, 2, 0, 1]

    def test_bad_json_names_line(self, tmp_path, vocab):
        path = write(tmp_path / "c.jsonl", ['{"premise": "a"', ""])
        with pytest.raises(CorpusError, match=":1:"):
            load_pair_corpus(path, vocab, LABELS3)

    @pytest.mark.parametrize("value", [None, ["a", "man"], 3, {"a": "man"}, False],
                             ids=["null", "list", "number", "object", "false"])
    @pytest.mark.parametrize("task, name", [("pair", "premise"), ("pair", "hypothesis"),
                                            ("sentence", "sentence")])
    def test_sentence_that_is_not_a_string_names_file_line_and_field(
            self, tmp_path, vocab, task, name, value):
        record = {"premise": "a", "hypothesis": "man", "sentence": "a man",
                  "label": "neutral"}
        path = jsonl(tmp_path / "c.jsonl", [record, {**record, name: value}])
        with pytest.raises(CorpusError) as info:
            load_corpus(task, path, vocab, LABELS3)
        assert str(info.value) == f"{path}:2: bad record: {name!r} is not a string"
        # the label is checked first
        path = jsonl(tmp_path / "c.jsonl", [{**record, name: value, "label": "maybe"}])
        with pytest.raises(CorpusError, match=":1: unknown label 'maybe'"):
            load_corpus(task, path, vocab, LABELS3)


class TestSentenceCorpus:
    @pytest.fixture
    def vocab(self, tmp_path):
        path = write(tmp_path / "emb.txt", ["great 1", "movie 2"])
        return load_embeddings(path)[0]

    def test_basic(self, tmp_path, vocab):
        path = jsonl(tmp_path / "s.jsonl", [
            {"sentence": "great movie", "label": "positive"}])
        [ex] = load_corpus("sentence", path, vocab, ("negative", "positive"))
        assert ex.label == 1 and ex.tokens == [2, 3]

    def test_empty_file_gives_empty_list(self, tmp_path, vocab):
        path = tmp_path / "s.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_corpus("sentence", path, vocab, ("negative", "positive")) == []

    def test_duplicates_kept(self, tmp_path, vocab):
        rec = {"sentence": "great movie", "label": "positive"}
        path = jsonl(tmp_path / "s.jsonl", [rec, rec])
        assert len(load_corpus("sentence", path, vocab, ("negative", "positive"))) == 2


class TestTreeCorpus:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path / "t.txt", ["( ( a b ) c )", "( a )"])
        trees = load_tree_corpus(path)
        assert [t.n for t in trees] == [3, 1]
        assert trees[0].merges == (0, 0)

    def test_binarization_counted(self, tmp_path):
        path = write(tmp_path / "t.txt", ["( a ( b ( c d ) e ) )"])
        stats = LoadStats()
        [tree] = load_tree_corpus(path, stats=stats)
        assert stats.binarized == 1
        assert tree.span_set() == {(2, 4), (1, 4), (1, 5), (0, 5)}

    def test_unbalanced_names_line(self, tmp_path):
        path = write(tmp_path / "t.txt", ["( a b )", "( a ( b )"])
        with pytest.raises(CorpusError, match=":2:"):
            load_tree_corpus(path)

    def test_roundtrip_already_binary_lines(self, tmp_path):
        lines = ["( ( a b ) ( c d ) )", "( x ( y z ) )", "( solo )"]
        path = write(tmp_path / "t.txt", lines)
        trees = load_tree_corpus(path)
        assert [export_bracketed(t) for t in trees] == lines


class TestWriteFile:
    def test_chunks_of_each_kind_and_their_digest(self, tmp_path):
        array = np.arange(3, dtype="<f4")
        expected = "é\n".encode("utf-8") + b"\x00\xff" + array.tobytes()
        digest = write_file(tmp_path / "out", ["é\n", b"\x00", memoryview(b"\xff"), array])
        assert (tmp_path / "out").read_bytes() == expected
        assert digest == hashlib.sha256(expected).hexdigest()

    def test_failure_midway_keeps_the_old_file_and_no_temporary(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old\n")

        def chunks():
            yield b"x" * (1 << 20)  # past any buffer: these bytes reach the disk
            raise RuntimeError("midway")

        with pytest.raises(RuntimeError, match="midway"):
            write_file(target, chunks())
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_file(tmp_path / "new.txt", ["x"])
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "new.txt").st_mode) == 0o666 & ~umask

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "real.txt").write_text("old")
        (tmp_path / "link.txt").symlink_to("real.txt")
        (tmp_path / "dangling.txt").symlink_to("later.txt")
        write_file(tmp_path / "link.txt", ["new"])
        write_file(tmp_path / "dangling.txt", ["made"])
        assert os.readlink(tmp_path / "link.txt") == "real.txt"
        assert os.readlink(tmp_path / "dangling.txt") == "later.txt"
        assert (tmp_path / "real.txt").read_text() == "new"
        assert (tmp_path / "later.txt").read_text() == "made"

    def test_fifo_is_written_in_place(self, tmp_path):
        # replacing the FIFO with a regular file would leave the reader
        # waiting for a writer that never comes
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        results = {}
        threads = [threading.Thread(target=lambda: results.update(read=fifo.read_bytes()),
                                    daemon=True),
                   threading.Thread(target=lambda: results.update(
                       digest=write_file(fifo, ["abc\n", b"def"])), daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {"read": b"abc\ndef",
                           "digest": hashlib.sha256(b"abc\ndef").hexdigest()}
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_directory_target_raises_naming_the_path_given(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write_file(tmp_path / "d", ["x"])
        assert info.value.filename == str(tmp_path / "d")
        assert os.listdir(tmp_path) == ["d"] and not os.listdir(tmp_path / "d")

    def test_missing_directory_raises_naming_the_path_given(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            write_file(tmp_path / "nodir" / "out", ["x"])
        assert info.value.filename == str(tmp_path / "nodir" / "out")


def _file_write(call: ast.Call):
    """What ``call`` writes to a file, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        owner, name = None, func.id
    elif isinstance(func, ast.Attribute):
        owner, name = getattr(func.value, "id", None), func.attr
    else:
        return None
    if name == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), None)
        if mode is not None and not (isinstance(mode, ast.Constant)
                                     and isinstance(mode.value, str)
                                     and not set(mode.value) & set("wax+")):
            return f"open with mode {ast.unparse(mode)}"
    elif (name in ("write_text", "write_bytes", "tofile")
          or (owner, name) == ("json", "dump")
          or (owner in ("np", "numpy") and name.startswith("save"))):
        return ast.unparse(func)
    return None


def _file_open(call: ast.Call):
    """How ``call`` opens a file, or None.  ``np.loadtxt`` is not counted:
    ``load_embeddings`` hands it text that ``read_lines`` has read."""
    func = call.func
    if isinstance(func, ast.Name):
        owner, name = None, func.id
    elif isinstance(func, ast.Attribute):
        owner, name = getattr(func.value, "id", None), func.attr
    else:
        return None
    if (name in ("open", "fdopen", "read_text", "read_bytes", "fromfile", "memmap")
            or (owner in ("np", "numpy") and name == "load")):
        return ast.unparse(func)
    return None


def _calls_outside(owners: dict, what) -> list[str]:
    """``what(call)`` of each call in the package's modules for which it is
    not None, except in the functions ``owners`` names per module file
    (``"name"`` or ``"Class.name"``)."""
    found = []
    for path in sorted(Path(data.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for func in methods:
                if (isinstance(func, ast.FunctionDef)
                        and prefix + func.name in owners.get(path.name, ())):
                    allowed.update(id(inner) for inner in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                if text := what(node):
                    found.append(f"{path.name} line {node.lineno}: {text}")
    return found


def test_every_file_write_goes_through_write_file():
    # one module owns how a file is written: outside data.write_file, no
    # library code opens a file for writing or calls a writing helper
    found = _calls_outside({"data.py": {"write_file"}}, _file_write)
    assert not found, f"file writes outside data.write_file: {found}"


# the only functions that open a file: the text reader, the writer, the
# checkpoint reader and the input digest
FILE_OPENERS = {"data.py": {"read_lines", "write_file"}, "training.py": {"Checkpoint.load"},
                "cli.py": {"_sha256"}}


def test_every_file_read_goes_through_the_known_openers():
    found = _calls_outside(FILE_OPENERS, _file_open)
    assert not found, f"files opened outside {FILE_OPENERS}: {found}"
    # each opener named is found and opens a file, so none is a stale name
    for module, names in FILE_OPENERS.items():
        for name in names:
            others = {**FILE_OPENERS, module: names - {name}}
            assert _calls_outside(others, _file_open), f"{module}: {name} opens no file"
