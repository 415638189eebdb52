"""The three benchmark workloads: seeded inputs, set-up, one timed call, checks.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned.  Inputs are written to files by
``generate`` (run in a separate process, so its memory does not count
toward the workload's peak) and the library only ever sees those files.
Each workload cycles its timed calls over ``CHUNKS`` distinct input
chunks; within a chunk, sentence lengths are spread evenly over their
range and only their order depends on the seed, so every seed asks for
the same amount of work.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from treeattn import cli, data, model, tensor, toy, training, trees

WORDS = 20_000
DIM = 300
CHUNKS = 8
LABELS = toy.SUBSET_LABELS


class CheckFailed(Exception):
    """An output check failed; the message says which and why."""


def _spread(count: int, lo: int, hi: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` lengths covering lo..hi evenly, in seeded order."""
    return rng.permutation(lo + (np.arange(count) * (hi - lo + 1)) // count)


def subset_pairs(rng: np.random.Generator, count: int, premise: tuple[int, int],
                 hypothesis: tuple[int, int]) -> list[dict]:
    """Toy subset-containment records with the given token-length ranges.

    Even records are "subset" (hypothesis tokens drawn from the premise),
    odd ones "mixed" (at least one hypothesis token absent from it).
    """
    records = []
    lengths = zip(_spread(count, *premise, rng), _spread(count, *hypothesis, rng))
    for i, (p_len, h_len) in enumerate(lengths):
        p_ids = rng.integers(0, WORDS, size=p_len)
        if i % 2 == 0:
            h_ids, label = rng.choice(p_ids, size=h_len), "subset"
        else:
            h_ids, label = rng.integers(0, WORDS, size=h_len), "mixed"
            inside = set(p_ids.tolist())
            if inside.issuperset(h_ids.tolist()):
                outside = int(rng.integers(0, WORDS))
                while outside in inside:
                    outside = int(rng.integers(0, WORDS))
                h_ids[rng.integers(0, h_len)] = outside
        records.append({"premise": " ".join(toy.token_name(t) for t in p_ids),
                        "hypothesis": " ".join(toy.token_name(t) for t in h_ids),
                        "label": label})
    return records


def _chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class Workload:
    """Inputs under ``workdir`` made from ``seed``.  A subclass defines
    ``generate``, ``setup``, ``warm_up``, ``call`` and ``check``, and
    ``items``, the items one call works on."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir, self.seed = workdir, seed

    def preflight(self, state) -> int:
        """Checks run once before timing; returns how many ran."""
        return 0


# ---------------------------------------------------------------------------
# train-pair: the paper's training path (tape, backward, clipping, Adam)
# ---------------------------------------------------------------------------

class TrainPair(Workload):
    """One ``training.train`` call = one epoch over 16 examples, which is one
    optimizer step, then validation on 2 pairs and a checkpoint snapshot.

    The configuration is the ``treeattn train`` default (H=100, d_attn=128,
    d_clf=1024, batch 32, RNN leaf, dropout 0.13, frozen embeddings).  One
    short epoch with patience 1 keeps a call under two seconds, so a run
    holds enough calls for their median to be steady.
    """

    name = "train-pair"
    item = "training examples"
    batch = 16
    items = batch
    val_size = 2
    spans = ("tensor.backward", "parser.leaf_transform", "parser.induce_tree",
             "parser.compose", "parser.validity_scores", "parser.st_gumbel_select",
             "attention.attend", "classifier.featurize_pair", "classifier.classify",
             "training.clip_gradients", "training.Adam.step", "training.evaluate",
             "training.snapshot")
    setup_spans = ("data.load_embeddings", "data.load_pair_corpus")

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        self.config = training.TrainConfig(task="pair", labels=LABELS, max_epochs=1,
                                           patience=1, seed=seed)

    def generate(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))
        toy.write_embedding_file(self.workdir / "embeddings.txt", WORDS, DIM, self.seed)
        toy.write_pair_corpus(self.workdir / "train.jsonl", [
            record for _ in range(CHUNKS)
            for record in subset_pairs(rng, self.batch, (15, 25), (6, 14))])
        toy.write_pair_corpus(self.workdir / "val.jsonl",
                              subset_pairs(rng, self.val_size, (15, 25), (6, 14)))

    def setup(self):
        vocab, embedding = data.load_embeddings(self.workdir / "embeddings.txt")
        corpus = data.load_pair_corpus(self.workdir / "train.jsonl", vocab, LABELS)
        val = data.load_pair_corpus(self.workdir / "val.jsonl", vocab, LABELS)
        if len(corpus) != CHUNKS * self.batch or len(val) != self.val_size:
            raise CheckFailed("pair corpus lost records on load")
        return vocab, embedding, _chunks(corpus, self.batch), val

    def preflight(self, state) -> int:
        worst = gradient_check()
        if not worst <= 1e-4:
            raise CheckFailed(f"finite-difference check: max relative error {worst:.2e} > 1e-4")
        return 1

    def warm_up(self, state) -> None:
        vocab, embedding, chunks, val = state
        training.train(chunks[0][:2], val[:1], self.config, vocab, embedding)

    def call(self, state, index: int):
        vocab, embedding, chunks, val = state
        chunk = chunks[index % CHUNKS]
        return training.train(chunk, val, self.config, vocab, embedding)

    def check(self, state, index: int, result) -> int:
        history = result.history
        if len(history) != 1 or not math.isfinite(history[0].train_loss):
            raise CheckFailed(f"bad epoch history {history!r}")
        if not 0.0 <= history[0].train_acc <= 1.0 or not 0.0 <= history[0].val_acc <= 1.0:
            raise CheckFailed(f"accuracy outside [0, 1]: {history[0]!r}")
        for name, arr in result.checkpoint.params.items():
            if not np.isfinite(arr).all():
                raise CheckFailed(f"checkpoint parameter {name} is not finite")
        return 0


def gradient_check() -> float:
    """Worst relative error of the analytic gradient of a small RNN-leaf
    pair model against central finite differences, over every parameter.

    Runs in "soft" mode with frozen noise so the loss is smooth and
    deterministic, as acceptance test 01 does (bound 1e-4).
    """
    rng = np.random.default_rng(42)
    words = [f"w{i}" for i in range(6)]
    matrix = np.vstack([np.zeros(3), rng.uniform(-0.05, 0.05, 3),
                        rng.normal(0.0, 0.3, (len(words), 3))])
    pair_model = model.Model.build(
        rng, task="pair", num_classes=2, hidden=2, d_attn=2, d_clf=3,
        vocab=data.Vocabulary.from_words(words),
        embedding=data.EmbeddingMatrix(tensor.Tensor(matrix)), leaf_kind="rnn")
    example = data.PairExample([2, 3, 4], [5, 6, 7], 1)

    def loss(_probe):
        logits = pair_model.logits(example, mode="soft", rng=np.random.default_rng(7))
        return tensor.cross_entropy(logits, example.label)

    return max(tensor.finite_difference_check(loss, param, 1e-5)
               for param in pair_model.parameters().values())


# ---------------------------------------------------------------------------
# infer-long: forward-only encoding of long pairs, induction-bound
# ---------------------------------------------------------------------------

class InferLong(Workload):
    """One ``training.evaluate`` call over 8 long pairs (16 sentences).

    The checkpoint holds a seeded random H=100 affine-leaf model: how much
    induction work a sentence costs does not depend on the weights.
    """

    name = "infer-long"
    item = "sentences"
    batch = 8
    items = 2 * batch
    spans = ("parser.leaf_transform", "parser.induce_tree", "parser.compose",
             "parser.validity_scores", "parser.st_gumbel_select", "attention.attend",
             "classifier.featurize_pair", "classifier.classify", "training.evaluate")
    setup_spans = ("data.load_pair_corpus", "training.Checkpoint.load")

    def generate(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(2,)))
        embeddings = self.workdir / "embeddings.txt"
        toy.write_embedding_file(embeddings, WORDS, DIM, self.seed)
        vocab, embedding = data.load_embeddings(embeddings)
        config = training.TrainConfig(task="pair", labels=LABELS, leaf_kind="affine",
                                      seed=self.seed)
        random_model = model.Model.build(
            rng, task="pair", num_classes=len(LABELS), hidden=config.hidden,
            d_attn=config.d_attn, d_clf=config.d_clf, vocab=vocab, embedding=embedding,
            leaf_kind=config.leaf_kind)
        training.snapshot(random_model, config, rng.bit_generator.state, 0, 0.0).save(
            self.workdir / "model.ckpt")
        toy.write_pair_corpus(self.workdir / "pairs.jsonl", [
            record for _ in range(CHUNKS)
            for record in subset_pairs(rng, self.batch, (40, 60), (20, 30))])

    def setup(self):
        checkpoint = training.Checkpoint.load(self.workdir / "model.ckpt")
        encoder = checkpoint.build_model()
        corpus = data.load_pair_corpus(self.workdir / "pairs.jsonl", encoder.vocab,
                                       checkpoint.config.labels, checkpoint.config.max_len)
        if len(corpus) != CHUNKS * self.batch:
            raise CheckFailed("pair corpus lost records on load")
        return encoder, _chunks(corpus, self.batch)

    def warm_up(self, state) -> None:
        encoder, chunks = state
        training.evaluate(chunks[0][:2], encoder)

    def call(self, state, index: int):
        encoder, chunks = state
        chunk = chunks[index % CHUNKS]
        return training.evaluate(chunk, encoder)

    def check(self, state, index: int, result) -> int:
        """Count failed sentences (both of a failed pair): every prediction,
        plus one sampled pair re-encoded to check its trees and attention."""
        encoder, chunks = state
        chunk = chunks[index % CHUNKS]
        if len(result.predictions) != len(chunk):
            raise CheckFailed(f"{len(result.predictions)} predictions for {len(chunk)} pairs")
        bad = {i for i, p in enumerate(result.predictions)
               if not (0 <= p.predicted < encoder.num_classes and np.isfinite(p.probs).all()
                       and abs(float(np.sum(p.probs)) - 1.0) <= 1e-9)}
        sample = (index * 7) % len(chunk)
        pair = chunk[sample]
        for tokens in (pair.premise, pair.hypothesis):
            encoded = encoder.encode(tokens, mode="infer")
            n = len(tokens)
            if (encoded.tree.n != n or len(encoded.nodes) != 2 * n - 1
                    or encoded.weights.shape != (2 * n - 1,)
                    or abs(float(np.sum(encoded.weights.data)) - 1.0) > 1e-12):
                bad.add(sample)
        logits = encoder.logits(pair, mode="infer")
        if int(np.argmax(logits.data)) != result.predictions[sample].predicted:
            bad.add(sample)
        return 2 * len(bad)


# ---------------------------------------------------------------------------
# treescore: bracketed-tree scoring through the CLI, no tensor code
# ---------------------------------------------------------------------------

class TreeScore(Workload):
    """One in-process ``cli.main(["treescore", ...])`` call over 1000 random
    binary trees (10-40 leaves) against aligned random reference trees."""

    name = "treescore"
    item = "predicted trees"
    batch = 1000
    items = batch
    sample = 25
    spans = ("data.load_tree_corpus", "trees.BinaryTree.span_set",
             "metrics.score_corpus", "cli.main")
    setup_spans = ()

    def _path(self, kind: str, index: int) -> Path:
        return self.workdir / f"{kind}{index % CHUNKS}.txt"

    def generate(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(3,)))
        for index in range(CHUNKS):
            lengths = _spread(self.batch, 10, 40, rng)
            for kind in ("pred", "ref"):
                lines = []
                for n in lengths:
                    merges = [int(rng.integers(0, n - 1 - t)) for t in range(n - 1)]
                    lines.append(trees.export_bracketed(trees.BinaryTree(int(n), merges)))
                self._path(kind, index).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def setup(self):
        texts = []
        for index in range(CHUNKS):
            pred = data.load_tree_corpus(self._path("pred", index))
            ref = data.load_tree_corpus(self._path("ref", index))
            if len(pred) != self.batch or [t.n for t in pred] != [t.n for t in ref]:
                raise CheckFailed(f"tree chunk {index} is misaligned")
            texts.append((self._path("pred", index).read_text(encoding="utf-8").splitlines(),
                          self._path("ref", index).read_text(encoding="utf-8").splitlines()))
        return texts

    def _argv(self, index: int) -> list[str]:
        out = self.workdir / "out"
        return ["treescore", "--pred", str(self._path("pred", index)),
                "--ref", str(self._path("ref", index)),
                "--per-sentence", str(out) + ".tsv", "--out", str(out) + ".txt",
                "--manifest", str(out) + ".manifest.json"]

    def warm_up(self, state) -> None:
        cli.main(self._argv(0))

    def call(self, state, index: int):
        return cli.main(self._argv(index))

    def check(self, state, index: int, status) -> int:
        """Count failed trees: the exit status, then a rotating sample of
        per-sentence rows recomputed with the bracket-counting oracle."""
        if status != 0:
            raise CheckFailed(f"treescore exited with status {status}")
        rows = (self.workdir / "out.tsv").read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != self.batch:
            raise CheckFailed(f"{len(rows)} per-sentence rows for {self.batch} trees")
        pred_lines, ref_lines = state[index % CHUNKS]
        failed = 0
        for k in range(self.sample):
            i = (index * self.sample + k) % self.batch
            if not oracle_row_matches(pred_lines[i], ref_lines[i], rows[i].split("\t"), i):
                failed += 1
        return failed


def bracket_spans(line: str) -> tuple[int, set[tuple[int, int]], list[int]]:
    """(leaf count, spans of width >= 2, per-leaf bracket depth) of one
    bracketed tree, by counting parentheses in the text."""
    open_at, spans, depths = [], set(), []
    for symbol in line.split():
        if symbol == "(":
            open_at.append(len(depths))
        elif symbol == ")":
            start = open_at.pop()
            if len(depths) - start >= 2:
                spans.add((start, len(depths)))
        else:
            depths.append(len(open_at))
    return len(depths), spans, depths


def oracle_f1(pred: set, ref: set, n: int) -> float:
    if n <= 2:
        return 100.0
    overlap = len(pred & ref)
    if overlap == 0:
        return 0.0
    precision, recall = overlap / len(pred), overlap / len(ref)
    return 200.0 * precision * recall / (precision + recall)


def oracle_row_matches(pred_line: str, ref_line: str, row: list[str], index: int) -> bool:
    """Whether a per-sentence TSV row agrees with the oracle to its printed
    precision (F1 to 2 decimals, depth to 3)."""
    n, pred, depths = bracket_spans(pred_line)
    _, ref, _ = bracket_spans(ref_line)
    left = {(0, k) for k in range(2, n + 1)}
    right = {(k, n) for k in range(0, n - 1)}
    expected = (oracle_f1(pred, left, n), oracle_f1(pred, right, n), oracle_f1(pred, ref, n))
    printed = [float(row[2]), float(row[3]), float(row[4])]
    return (int(row[0]) == index and int(row[1]) == n
            and all(abs(a - b) <= 0.005 + 1e-9 for a, b in zip(expected, printed))
            and abs(sum(depths) / n - float(row[5])) <= 0.0005 + 1e-9)


WORKLOADS = {w.name: w for w in (TrainPair, InferLong, TreeScore)}


def generate(name: str, workdir: str, seed: int) -> None:
    """Write the named workload's inputs."""
    WORKLOADS[name](Path(workdir), seed).generate()


def setup_once(name: str, workdir: str, seed: int, trace: bool) -> tuple:
    """Set the named workload up once, as a freshly started program would;
    return its seconds and, when traced, the busy seconds and calls of each
    span."""
    import tracing

    workload = WORKLOADS[name](Path(workdir), seed)
    tracer = tracing.Tracer()
    started = time.perf_counter()
    with tracing.installed(tracer) if trace else nullcontext():
        workload.setup()
    return time.perf_counter() - started, dict(tracer.busy), dict(tracer.calls)


if __name__ == "__main__":
    # Child-process entry used by run.py, which reads the last stdout line:
    #   workloads.py generate NAME WORKDIR SEED
    #   workloads.py setup NAME WORKDIR SEED TRACE
    import json
    import sys

    entry, name, workdir, seed, *rest = sys.argv[1:]
    if entry == "generate":
        generate(name, workdir, int(seed))
        print(json.dumps(None))
    else:
        print(json.dumps(setup_once(name, workdir, int(seed), bool(int(rest[0])))))
