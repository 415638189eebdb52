"""The benchmark's call-site tracing still sees every traced function.

``benchmarks/tracing.py`` records a layer by replacing the name its caller
looks up (``parser.compose``, ``training.backward``, ...).  A refactor that
calls the function some other way leaves that span silent, which only a
traced benchmark run would show; these tests run each span's caller under
the tracer, on tiny inputs, instead: once over a training run, once over an
``infer``-mode evaluation and once over a training batch, pinning the calls
of their lockstep groups, and once over a single induction in every mode.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from treeattn import cli, data, parser, toy, training
from treeattn.tensor import GradientBatch, Tensor

from conftest import tiny_pair_model

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_call_site_records_calls(tmp_path):
    toy.write_embedding_file(tmp_path / "embeddings.txt", vocab_size=12, dim=4)
    records = toy.subset_pair_records(6, vocab_size=12, seed=1)
    toy.write_pair_corpus(tmp_path / "train.jsonl", records[:4])
    toy.write_pair_corpus(tmp_path / "val.jsonl", records[4:])
    (tmp_path / "pred.txt").write_text("( a ( b c ) )\n( ( a b ) ( c d ) )\n")
    config = training.TrainConfig(task="pair", labels=toy.SUBSET_LABELS, hidden=3,
                                  d_attn=3, d_clf=4, max_epochs=1, patience=1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        vocab, embedding = data.load_embeddings(tmp_path / "embeddings.txt")
        train, val = (data.load_pair_corpus(tmp_path / name, vocab, toy.SUBSET_LABELS)
                      for name in ("train.jsonl", "val.jsonl"))
        result = training.train(train, val, config, vocab, embedding)
        result.checkpoint.save(tmp_path / "model.ckpt")
        training.Checkpoint.load(tmp_path / "model.ckpt")
        assert cli.main(["treescore", "--pred", str(tmp_path / "pred.txt"),
                         "--baselines-only", "--out", str(tmp_path / "report.txt")]) == 0
    silent = [name for name, *_ in tracing.CALL_SITES if not tracer.calls[name]]
    assert not silent, f"spans that recorded no call: {silent}"


def test_infer_evaluation_records_every_induction_span():
    # evaluate induces each group of EVAL_GROUP examples in one induce_tree
    # call: every sentence of n >= 2 words makes one compose call for its
    # first layer, then each later layer one compose call for the new pairs
    # of all sentences still being induced, so a group of longest sentence
    # m makes m - 2 of those.  Selection stays per sentence: one
    # validity_scores call over each layer's n - 1 - t candidates and one
    # st_gumbel_select call per merge
    model = tiny_pair_model()
    rng = np.random.default_rng(3)
    lengths = [(1, 4), (6, 2), (9, 3), *(tuple(int(n) for n in rng.integers(1, 8, size=2))
                                         for _ in range(training.EVAL_GROUP))]
    examples = [data.PairExample([int(i) for i in rng.integers(2, 12, size=p)],
                                 [int(i) for i in rng.integers(2, 12, size=h)], label % 3)
                for label, (p, h) in enumerate(lengths)]
    groups = [[n for pair in lengths[i:i + training.EVAL_GROUP] for n in pair]
              for i in range(0, len(lengths), training.EVAL_GROUP)]
    sentences = [n for group in groups for n in group]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        training.evaluate(examples, model)
    merges = sum(n - 1 for n in sentences)
    assert len(groups) == 2
    assert tracer.calls["training.evaluate"] == 1
    assert tracer.calls["parser.induce_tree"] == len(groups)
    assert tracer.calls["parser.compose"] == sum(
        sum(n > 1 for n in group) + max(max(group) - 2, 0) for group in groups)
    assert tracer.calls["parser.validity_scores"] == merges
    assert tracer.counts["candidates"] == sum(n * (n - 1) // 2 for n in sentences)
    assert tracer.calls["parser.st_gumbel_select"] == merges


def test_a_training_batch_records_every_span_per_group():
    # a training batch runs in groups of TRAIN_GROUP examples: per group one
    # leaf_transform and one induce_tree call for all its sentences, then
    # one backward call per example and one for the group; the compose,
    # selection and candidate counts are those of an evaluation group
    model = tiny_pair_model(leaf_kind="rnn")
    rng = np.random.default_rng(5)
    lengths = [(1, 4), (6, 2), *(tuple(int(n) for n in rng.integers(1, 8, size=2))
                                 for _ in range(training.TRAIN_GROUP))]
    examples = [data.PairExample([int(i) for i in rng.integers(2, 12, size=p)],
                                 [int(i) for i in rng.integers(2, 12, size=h)], label % 3)
                for label, (p, h) in enumerate(lengths)]
    groups = [[n for pair in lengths[i:i + training.TRAIN_GROUP] for n in pair]
              for i in range(0, len(lengths), training.TRAIN_GROUP)]
    sentences = [n for group in groups for n in group]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        training.batch_gradients(model, examples,
                                 [np.random.default_rng(i) for i in range(len(examples))],
                                 0.9, GradientBatch())
    merges = sum(n - 1 for n in sentences)
    assert len(groups) == 2
    assert tracer.calls["parser.leaf_transform"] == len(groups)
    assert tracer.calls["parser.induce_tree"] == len(groups)
    assert tracer.calls["parser.compose"] == sum(
        sum(n > 1 for n in group) + max(max(group) - 2, 0) for group in groups)
    assert tracer.calls["parser.validity_scores"] == merges
    assert tracer.counts["candidates"] == sum(n * (n - 1) // 2 for n in sentences)
    assert tracer.calls["parser.st_gumbel_select"] == merges
    assert tracer.calls["attention.attend"] == len(sentences)
    assert tracer.calls["tensor.backward"] == len(examples) + len(groups)
    # per group: two GRU records, a leaf_states record per sentence and the
    # induction; per example: two poolings, the pair features and head, the loss
    assert sum(tracer.counts.values()) - tracer.counts["candidates"] - tracer.counts[
        "nodes"] == sum(3 + len(group) for group in groups) + 14 * len(examples)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("mode", parser.MODES)
def test_one_induction_records_its_calls_in_every_mode(mode, n):
    # a sentence alone is one induce_tree span, so a path that re-enters
    # induce_tree by name would count two; its n - 1 merges make one compose
    # call for the first layer and one for each later layer, and one
    # validity_scores and st_gumbel_select call each, over n(n - 1)/2
    # candidates in all (a one-word sentence composes nothing)
    rng = np.random.default_rng(n)
    hidden = 3
    leaves = [parser.NodeState(Tensor(rng.normal(size=hidden)), Tensor(rng.normal(size=hidden)))
              for _ in range(n)]
    params, query = parser.init_composition_params(rng, hidden), parser.init_query(rng, hidden)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        parser.induce_tree(leaves, params, query, parser.GumbelConfig(mode=mode),
                           np.random.default_rng(0))
    assert tracer.calls["parser.induce_tree"] == 1
    for span in ("parser.compose", "parser.validity_scores", "parser.st_gumbel_select"):
        assert tracer.calls[span] == n - 1, span
    assert tracer.counts["candidates"] == n * (n - 1) // 2
