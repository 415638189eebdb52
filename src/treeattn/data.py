"""Word-vector files, vocabularies, corpus ingestion, and file output.

Three line-oriented formats are understood: embedding files ("word v1 ..
vD" per line), JSON-record corpora for sentence pairs and single
sentences, and bracketed-tree files (one tree per line).
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import re
import stat
from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError, Tensor
from .trees import BinaryTree, TreeFormatError, parse_bracketed

log = logging.getLogger(__name__)

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class CorpusError(ValueError):
    """Malformed corpus or embedding input; message names the line."""


class RepeatedWordError(CorpusError):
    """A vocabulary lists a word a second time, at ``index``."""

    def __init__(self, word: str, index: int):
        super().__init__(f"vocabulary repeats the word {word!r}")
        self.index = index


@dataclass
class Vocabulary:
    """Dense word <-> index mapping with reserved PAD(0) and UNK(1); a
    repeated word raises ``RepeatedWordError``."""

    index_to_word: list[str]
    word_to_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.word_to_index = {}
        for i, word in enumerate(self.index_to_word):
            if self.word_to_index.setdefault(word, i) != i:
                raise RepeatedWordError(word, i)

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        return cls([PAD_TOKEN, UNK_TOKEN, *words])

    def __len__(self) -> int:
        return len(self.index_to_word)

    def lookup(self, word: str) -> int:
        return self.word_to_index.get(word, UNK_INDEX)

    def encode(self, tokens) -> list[int]:
        return [self.lookup(t) for t in tokens]


@dataclass
class EmbeddingMatrix:
    """Word vectors as one (vocab, dim) table; row 0 (PAD) stays zero.

    A fine-tuned table is a float64 ``Tensor`` that requires a gradient.  A
    frozen one is held as a plain array: the float32 matrix that
    ``load_embeddings`` reads and a checkpoint stores, or the data of a
    frozen ``Tensor`` given here.  An array holding NaN or Inf raises
    ``NonFiniteError``.  ``tensor.take_rows`` gathers a sentence's rows
    from either as float64.
    """

    vectors: Tensor | np.ndarray

    def __post_init__(self):
        if isinstance(self.vectors, Tensor):
            if not self.vectors.requires_grad:
                self.vectors = self.vectors.data  # checked when the tensor was made
        elif not np.isfinite(self.vectors).all():
            raise NonFiniteError("embedding table holds NaN or Inf")

    @property
    def trainable(self) -> bool:
        return isinstance(self.vectors, Tensor)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class PairExample:
    premise: list[int]
    hypothesis: list[int]
    label: int


@dataclass
class SentenceExample:
    tokens: list[int]
    label: int


@dataclass
class LoadStats:
    """Counts of records that were skipped or repaired during loading."""

    skipped_empty: int = 0
    skipped_long: int = 0
    binarized: int = 0


# what undecodable bytes become under errors="surrogateescape"
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def read_lines(path):
    """Yield ``(line number, line)`` for every line of a UTF-8 text file.

    A line with bytes that are not UTF-8 raises ``CorpusError`` naming the
    file and the line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and _UNDECODABLE.search(line):
                raise CorpusError(f"{path}:{lineno}: not valid UTF-8")
            yield lineno, line


def write_file(path, chunks) -> str:
    """Write ``chunks`` (``str`` as UTF-8, or bytes-like) to ``path`` and
    return the SHA-256 hex digest of the bytes written.

    The bytes go to a new file in the target's directory, created with mode
    ``0o666`` less the umask, which then replaces the target, so a failure
    part way leaves the old file (or none) under the name, never a
    truncated one; the new file is deleted on any exception.  A symlink is
    written through to the file it names.  An existing target that is not a
    regular file (a device, a FIFO) is written in place; a directory raises
    ``IsADirectoryError`` naming ``path``.
    """
    digest = hashlib.sha256()

    def copy(fh):
        for chunk in chunks:
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8")
            digest.update(chunk)
            fh.write(chunk)

    try:
        kind = stat.S_IFMT(os.stat(path).st_mode)
    except FileNotFoundError:
        kind = stat.S_IFREG
    if kind == stat.S_IFDIR:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if kind != stat.S_IFREG:
        with open(path, "wb") as fh:
            copy(fh)
        return digest.hexdigest()
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as err:
        raise OSError(err.errno, err.strerror, str(path)) from None
    try:
        with open(fd, "wb") as fh:
            copy(fh)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise
    return digest.hexdigest()


def tokenize(text: str) -> list[str]:
    """Lowercase, then split on Unicode whitespace."""
    return text.lower().split()


def load_embeddings(path, vocab_limit: int | None = None, seed: int = 0,
                    trainable: bool = False) -> tuple[Vocabulary, EmbeddingMatrix]:
    """Read a "word v1 .. vD" file into a vocabulary and vector matrix.

    Words and values are separated by whitespace, values use Python
    ``float`` syntax, ``#`` starts no comment and blank lines are skipped;
    at most ``vocab_limit`` words are read.  Vocabulary order follows file
    order after the two reserved slots.  Each value is the float32 rounding
    of its ``float``, ``np.float32(float(field))``; one that is not finite
    there (``nan``, ``inf``, ``1e39``) raises ``CorpusError`` naming its
    line.  The PAD row is zero; the UNK row is the float32 rounding of a
    seeded uniform(-0.05, 0.05) draw so reloading the same file with the
    same seed is bit-reproducible.  A frozen table is the one float32
    matrix the file was read into; a ``trainable`` one is its float64 copy.
    """
    words, matrix, linenos = _read_vectors(path, vocab_limit)
    matrix[PAD_INDEX] = 0.0
    matrix[UNK_INDEX] = np.random.default_rng(seed).uniform(-0.05, 0.05, size=matrix.shape[1])
    try:
        vocab = Vocabulary.from_words(words)
    except RepeatedWordError as err:
        raise CorpusError(f"{path}:{linenos[err.index - 2]}: {err}") from None
    return vocab, EmbeddingMatrix(Tensor(matrix, requires_grad=True) if trainable else matrix)


def _read_vectors(path, vocab_limit):
    """The words, a float32 (V + 2, D) matrix whose rows from 2 on hold
    their values, and their line numbers; rows 0 and 1 are left for PAD and
    UNK.

    One ``np.loadtxt`` call converts all the vector text, after two rows of
    zeros that make the reserved rows, so the matrix is the array it
    returns.  Its float syntax is a subset of ``float``'s (no ``_`` and no
    non-ASCII digits), read by the same correctly rounded conversion to
    float64 and then rounded to float32, and text it accepts splits into
    the fields of ``str.split``.  When it refuses the text, returns a row
    count other than the lines read or a value that is not finite, or a
    line holds only a word or the file no word at all (``loadtxt`` would
    skip the one and warn about the other), ``_read_vectors_by_line`` reads
    the file again and returns, or raises, what it would have from the
    start.
    """
    words: list[str] = []
    linenos: list[int] = []

    def vector_texts():
        for lineno, line in read_lines(path):
            parts = line.split(maxsplit=1)
            if not parts:
                continue
            if len(parts) == 1:
                raise ValueError("no vector components")
            if not words:
                yield from ["0 " * len(parts[1].split())] * 2
            words.append(parts[0])
            linenos.append(lineno)
            yield parts[1]
            if vocab_limit is not None and len(words) >= vocab_limit:
                return
        if not words:
            raise ValueError("no words")

    try:  # also catches the CorpusError of a line that is not UTF-8
        matrix = np.loadtxt(vector_texts(), dtype=np.float32, comments=None, ndmin=2)
    except ValueError:
        matrix = None
    if matrix is None or len(matrix) != len(words) + 2 or not np.isfinite(matrix).all():
        return _read_vectors_by_line(path, vocab_limit)
    return words, matrix, linenos


def _read_vectors_by_line(path, vocab_limit):
    """``_read_vectors`` with one ``float`` call per value; a malformed line,
    or a value that is not finite in float32, raises ``CorpusError``
    naming it."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    dim = None
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        word, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise CorpusError(f"{path}:{lineno}: no vector components")
        elif len(values) != dim:
            raise CorpusError(
                f"{path}:{lineno}: expected {dim} components, got {len(values)}")
        try:
            row = [float(v) for v in values]
        except ValueError as err:
            raise CorpusError(f"{path}:{lineno}: {err}") from None
        with np.errstate(over="ignore"):
            stored = np.array(row, dtype=np.float32)
        if not np.isfinite(stored).all():
            column = int(np.argmin(np.isfinite(stored)))
            if np.isfinite(row[column]):
                raise CorpusError(f"{path}:{lineno}: vector component {values[column]} "
                                  "is outside the float32 range")
            raise CorpusError(f"{path}:{lineno}: non-finite vector component")
        rows.append(stored)
        words.append(word)
        linenos.append(lineno)
        if vocab_limit is not None and len(words) >= vocab_limit:
            break
    if not rows:
        raise CorpusError(f"{path}: empty embedding file")
    matrix = np.zeros((len(rows) + 2, dim), dtype=np.float32)
    matrix[2:] = rows
    return words, matrix, linenos


# the sentence fields of a task's records, and the example they make
_TASK_RECORDS = {"pair": (("premise", "hypothesis"), PairExample),
                 "sentence": (("sentence",), SentenceExample)}


def load_corpus(task: str, path, vocab: Vocabulary, labels, max_len: int = 120,
                stats: LoadStats | None = None) -> list[PairExample | SentenceExample]:
    """Load a ``task`` corpus, one JSON record per line, preserving file
    order: premise/hypothesis/label records for "pair", sentence/label
    records for "sentence".

    Records with a missing or empty sentence, or whose sentences hold more
    than ``max_len`` tokens together, are skipped and counted.  A sentence
    field that is not a string raises ``CorpusError``.
    """
    names, make_example = _TASK_RECORDS[task]
    stats = stats if stats is not None else LoadStats()
    labels = list(labels)
    examples = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise CorpusError(f"{path}:{lineno}: bad record: {err}") from None
        if not isinstance(record, dict):
            raise CorpusError(f"{path}:{lineno}: bad record: expected a JSON object, "
                              f"got {type(record).__name__}")
        label = record.get("label")
        if label not in labels:
            raise CorpusError(
                f"{path}:{lineno}: unknown label {label!r} (expected one of {labels})")
        sentences = []
        for name in names:
            text = record.get(name, "")
            if not isinstance(text, str):
                raise CorpusError(f"{path}:{lineno}: bad record: {name!r} is not a string")
            sentences.append(tokenize(text))
        if not all(sentences):
            stats.skipped_empty += 1
        elif sum(map(len, sentences)) > max_len:
            stats.skipped_long += 1
        else:
            examples.append(make_example(*map(vocab.encode, sentences),
                                         labels.index(label)))
    if stats.skipped_empty or stats.skipped_long:
        log.warning("%s: skipped %d empty and %d over-length records",
                    path, stats.skipped_empty, stats.skipped_long)
    return examples


def load_pair_corpus(path, vocab: Vocabulary, labels,
                     max_combined_len: int = 120,
                     stats: LoadStats | None = None) -> list[PairExample]:
    """``load_corpus`` for the "pair" task."""
    return load_corpus("pair", path, vocab, labels, max_combined_len, stats)


def load_tree_corpus(path, stats: LoadStats | None = None) -> list[BinaryTree]:
    """Load one bracketed tree per line; non-binary nodes are left-binarized."""
    stats = stats if stats is not None else LoadStats()
    trees: list[BinaryTree] = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            tree, fixups = parse_bracketed(line)
        except TreeFormatError as err:
            raise CorpusError(f"{path}:{lineno}: {err}") from None
        stats.binarized += fixups
        trees.append(tree)
    if stats.binarized:
        log.warning("%s: left-binarized %d non-binary nodes", path, stats.binarized)
    return trees
