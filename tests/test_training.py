"""Optimizer, evaluation metrics, training loop, checkpoints."""

import hashlib
import io
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeattn.data import EmbeddingMatrix, PairExample, load_embeddings, load_pair_corpus
from treeattn.tensor import (GradientBatch, Tape, Tensor, backward, cross_entropy,
                             finite_difference_check)
from treeattn.training import (Adam, Checkpoint, TrainConfig,
                               TrainingDiverged, adam_step, clip_gradients, evaluate,
                               macro_f1, snapshot, train)
from treeattn import parser, toy, training

from conftest import tiny_pair_model

FIXTURES = Path(__file__).parent / "fixtures"
LOCKSTEP_MODEL = tiny_pair_model(seed=17)
# fine-tuned tables, so that every kind of gradient occurs
LOCKSTEP_TRAIN_MODELS = {kind: tiny_pair_model(seed=19, leaf_kind=kind, finetune=True)
                         for kind in ("rnn", "affine")}


def toy_setup(tmp_path, n_train=24, n_val=12, emb_seed=1):
    emb = tmp_path / "emb.txt"
    toy.write_embedding_file(emb, vocab_size=20, dim=6, seed=emb_seed)
    train_path = tmp_path / "train.jsonl"
    val_path = tmp_path / "val.jsonl"
    toy.write_pair_corpus(train_path, toy.subset_pair_records(
        n_train, vocab_size=20, min_len=3, max_len=5, seed=31))
    toy.write_pair_corpus(val_path, toy.subset_pair_records(
        n_val, vocab_size=20, min_len=3, max_len=5, seed=32))
    vocab, embedding = load_embeddings(emb, seed=0)
    return (load_pair_corpus(train_path, vocab, toy.SUBSET_LABELS),
            load_pair_corpus(val_path, vocab, toy.SUBSET_LABELS),
            vocab, embedding)


def small_config(**overrides):
    base = dict(task="pair", labels=toy.SUBSET_LABELS, hidden=8, d_attn=6,
                d_clf=12, batch_size=8, max_epochs=3, patience=10, seed=5,
                dropout_keep=0.9, leaf_kind="affine")
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_from_fresh_state_is_a_no_op(self):
        value = np.array([1.5, -2.0])
        m, v = np.zeros(2), np.zeros(2)
        adam_step(value, np.zeros(2), m, v, 1, 0.1, 0.9, 0.999, 1e-8, np.empty((2, 2)))
        assert value.tolist() == [1.5, -2.0]
        assert not m.any() and not v.any()

    def test_first_step_magnitude(self):
        value = np.array([0.0])
        m, v = np.zeros(1), np.zeros(1)
        adam_step(value, np.ones(1), m, v, 1, 0.1, 0.9, 0.999, 1e-8, np.empty((2, 1)))
        assert value[0] == pytest.approx(-0.09999999900000002, abs=1e-12)

    def test_identical_gradients_identical_updates(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a.grad = np.array([0.3, -0.4])
        b.grad = np.array([0.3, -0.4])
        opt = Adam({"a": a, "b": b}, lr=0.05)
        opt.step()
        assert (a.data == b.data).all()

    def test_moments_decay_toward_zero(self):
        value = np.array([0.0])
        m, v = np.array([1.0]), np.array([1.0])
        for t in range(2, 30):
            adam_step(value, np.zeros(1), m, v, t, 0.0, 0.9, 0.999, 1e-8, np.empty((2, 1)))
        assert m[0] < 0.1 and v[0] < 1.0

    def test_in_place_step_matches_the_allocating_formula_bit_for_bit(self):
        # the association (1 - b1) g, ((1 - b2) g) g, (lr m_hat) / (sqrt(v_hat) + eps),
        # with scratch arrays that are views into larger buffers, as Adam.step passes
        rng = np.random.default_rng(8)
        shape = (3, 5)
        value, m, v = rng.normal(size=shape), np.zeros(shape), np.zeros(shape)
        want, want_m, want_v = value.copy(), m.copy(), v.copy()
        scratch = [buffer[:15].reshape(shape) for buffer in np.empty((2, 40))]
        for t in range(1, 6):
            grad = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3)
            adam_step(value, grad, m, v, t, 0.01, 0.9, 0.999, 1e-8, scratch)
            want_m = want_m * 0.9 + (1.0 - 0.9) * grad
            want_v = want_v * 0.999 + (1.0 - 0.999) * grad * grad
            m_hat, v_hat = want_m / (1.0 - 0.9 ** t), want_v / (1.0 - 0.999 ** t)
            want = want - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for got, expected in ((value, want), (m, want_m), (v, want_v)):
                assert got.tobytes() == expected.tobytes()

    def test_step_shares_two_scratch_buffers_across_parameters(self):
        # a step allocates nothing of a parameter's size: the largest
        # parameter is 80 kB, and the step's peak stays far below it
        rng = np.random.default_rng(1)
        params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                  for name, shape in (("w", (100, 100)), ("b", (100,)), ("q", (7, 3)))}
        for p in params.values():
            p.grad = rng.normal(size=p.data.shape)
        opt = Adam(params, lr=0.01)
        assert opt._scratch.shape == (2, 10000)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8000, peak

    def test_clip_gradients_scales_global_norm(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        a.grad = np.full(3, 10.0)
        b.grad = np.full(4, 10.0)
        params = {"a": a, "b": b}
        norm = clip_gradients(params, 5.0)
        assert norm == pytest.approx(np.sqrt(700.0))
        total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params.values()))
        assert total == pytest.approx(5.0)
        # below the bound nothing changes
        a.grad = np.full(3, 0.1)
        b.grad.fill(0.0)
        clip_gradients(params, 5.0)
        assert (a.grad == 0.1).all()


class TestMacroF1:
    def test_all_correct(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_single_class_predictor_on_balanced_binary(self):
        gold = [0, 0, 1, 1]
        pred = [1, 1, 1, 1]
        assert macro_f1(gold, pred, 2) == pytest.approx(1 / 3)


class TestEvaluate:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate([], tiny_pair_model())

    def test_label_outside_model_rejected(self):
        model = tiny_pair_model(num_classes=2)
        with pytest.raises(ValueError, match="label"):
            evaluate([PairExample([2], [3], 5)], model)

    def test_single_example_accuracy_is_zero_or_one(self):
        model = tiny_pair_model()
        result = evaluate([PairExample([2, 3], [4], 1)], model)
        assert result.accuracy in (0.0, 1.0)

    def test_perfect_predictions_metrics(self):
        model = tiny_pair_model(num_classes=2)
        probe = evaluate([PairExample([2, 3], [4], 0)], model)
        gold = probe.predictions[0].predicted
        result = evaluate([PairExample([2, 3], [4], gold)], model)
        assert result.accuracy == 1.0 and result.macro_f1 == 1.0

    def test_model_rebuilt_from_a_checkpoint_predicts_the_same(self):
        model = tiny_pair_model(num_classes=2)
        cfg = TrainConfig(task="pair", labels=("no", "yes"), hidden=8, d_attn=6,
                          d_clf=16, leaf_kind="affine")
        ckpt = snapshot(model, cfg, {}, epoch=1, best_val_acc=0.0)
        examples = [PairExample([2, 3], [4], 0)]
        direct = evaluate(examples, model)
        via_ckpt = evaluate(examples, ckpt.build_model())
        assert direct.predictions[0].predicted == via_ckpt.predictions[0].predicted

    def test_matches_per_example_inference(self):
        # no batching effects: evaluate equals one-by-one scoring
        model = tiny_pair_model()
        examples = [PairExample([2, 3, 4], [5, 6], i % 3) for i in range(6)]
        result = evaluate(examples, model)
        for pred, ex in zip(result.predictions, examples):
            logits = model.logits(ex, mode="infer")
            assert pred.predicted == int(np.argmax(logits.data))

    @pytest.mark.parametrize("leaf_kind", ["affine", "rnn"])
    def test_an_example_is_bit_identical_alone_and_between_others(self, leaf_kind):
        # the kernels batch rows of one sentence, never of several examples,
        # so the examples around one cannot move a bit of its results
        model = tiny_pair_model(leaf_kind=leaf_kind)
        example = PairExample([2, 5, 3, 7, 4, 9], [4, 2, 6], 1)
        before = PairExample([8, 3, 3, 2], [9, 5, 6, 7, 2], 0)
        after = PairExample([6, 4, 2, 7, 5, 3, 8, 9], [3], 2)
        alone = evaluate([example], model).predictions[0].probs
        between = evaluate([before, example, after], model).predictions[1].probs
        np.testing.assert_array_equal(between, alone)

        def train_step(ex, mode, seed):
            with Tape(GradientBatch()) as tape:
                loss, logits = model.example_loss(ex, mode, np.random.default_rng(seed), 0.9)
                backward(tape, loss)
            return loss.data, logits.data

        for mode in ("train", "soft"):
            alone = train_step(example, mode, 7)
            train_step(before, mode, 8)
            between = train_step(example, mode, 7)
            train_step(after, mode, 9)
            for got, want in zip(between, alone):
                np.testing.assert_array_equal(got, want)

    @given(st.data())
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_probabilities_do_not_depend_on_the_groups(self, data):
        # each example alone, all in one group, and shuffled into groups of
        # another size give the same probabilities to the bit; sentences of
        # one or two tokens of few distinct words force exact and near ties
        model = LOCKSTEP_MODEL
        sentence = st.one_of(
            st.lists(st.integers(2, 11), min_size=1, max_size=60),
            st.lists(st.sampled_from([2, 3]), min_size=1, max_size=60),
            st.integers(1, 2).flatmap(lambda n: st.lists(st.integers(2, 11),
                                                         min_size=n, max_size=n)))
        examples = data.draw(st.lists(st.builds(PairExample, sentence, sentence,
                                                st.integers(0, 2)), min_size=1, max_size=10))
        alone = [evaluate([ex], model).predictions[0].probs for ex in examples]
        with mock.patch.object(training, "EVAL_GROUP", len(examples)):
            together = evaluate(examples, model).predictions
        order = data.draw(st.permutations(range(len(examples))))
        with mock.patch.object(training, "EVAL_GROUP", data.draw(st.integers(1, 4))):
            shuffled = evaluate([examples[i] for i in order], model).predictions
        for i, probs in enumerate(alone):
            assert together[i].probs.tobytes() == probs.tobytes()
            assert shuffled[order.index(i)].probs.tobytes() == probs.tobytes()

    def test_peak_memory_is_that_of_one_group(self):
        # a group's arrays are freed before the next group is encoded, so
        # four groups peak within 10% of one
        model = tiny_pair_model(hidden=32, d_attn=16, d_clf=16)
        rng = np.random.default_rng(5)
        examples = [PairExample([int(i) for i in rng.integers(2, 12, size=rng.integers(40, 61))],
                                [int(i) for i in rng.integers(2, 12, size=rng.integers(20, 31))],
                                i % 3) for i in range(4 * training.EVAL_GROUP)]
        evaluate(examples[:2], model)  # caches and lazily built tables
        peaks = []
        for count in (1, 4):
            tracemalloc.start()
            try:
                evaluate(examples[:count * training.EVAL_GROUP], model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestTrainLoop:
    def test_epoch_one_loss_is_reproducible_to_all_digits(self, tmp_path):
        tr, va, vocab, embedding = toy_setup(tmp_path)
        cfg = small_config(max_epochs=1)
        line1 = train(tr, va, cfg, vocab, embedding, clock=lambda: 0.0).log_lines[-1]
        line2 = train(tr, va, cfg, vocab, embedding, clock=lambda: 0.0).log_lines[-1]
        assert line1 == line2

    def test_patience_zero_stops_on_first_flat_epoch(self, tmp_path):
        tr, va, vocab, embedding = toy_setup(tmp_path)
        cfg = small_config(max_epochs=30, patience=0, learning_rate=1e-6)
        result = train(tr, va, cfg, vocab, embedding, clock=lambda: 0.0)
        flat = [i for i in range(1, len(result.history))
                if result.history[i].val_acc <= max(m.val_acc for m in result.history[:i])]
        assert flat and len(result.history) == flat[0] + 1
        assert any("early stop" in line for line in result.log_lines)

    def test_stop_condition_hook(self, tmp_path):
        tr, va, vocab, embedding = toy_setup(tmp_path)
        cfg = small_config(max_epochs=20)
        result = train(tr, va, cfg, vocab, embedding, clock=lambda: 0.0,
                       stop_condition=lambda m: m.epoch == 2)
        assert len(result.history) == 2

    def test_divergence_reports_batch_examples(self, tmp_path):
        # a fine-tuned float64 table can hold values float32 cannot
        tr, va, vocab, embedding = toy_setup(tmp_path)
        embedding = EmbeddingMatrix(Tensor(embedding.vectors, requires_grad=True))
        embedding.vectors.data[2:] *= 1e160  # forces overflow inside compose
        cfg = small_config(max_epochs=1, finetune_embeddings=True)
        with pytest.raises(TrainingDiverged) as info, np.errstate(over="ignore"):
            train(tr, va, cfg, vocab, embedding, clock=lambda: 0.0)
        assert info.value.epoch == 1
        assert info.value.example_ids

    def test_empty_corpora_rejected(self, tmp_path):
        tr, va, vocab, embedding = toy_setup(tmp_path)
        with pytest.raises(ValueError):
            train([], va, small_config(), vocab, embedding)
        with pytest.raises(ValueError):
            train(tr, [], small_config(), vocab, embedding)

    def test_finetuned_pad_row_stays_zero(self, tmp_path):
        tr, va, vocab, embedding = toy_setup(tmp_path)
        embedding = EmbeddingMatrix(Tensor(embedding.vectors, requires_grad=True))
        cfg = small_config(max_epochs=2, finetune_embeddings=True)
        train(tr, va, cfg, vocab, embedding, clock=lambda: 0.0)
        assert not embedding.vectors.data[0].any()


# sha256 of the checkpoint and of the metrics TSV from zero-clock toy
# ``train`` runs: 19 examples in batches of 8, 8 and 3 (the last one ragged),
# sentences of 1 to 7 words, two epochs.  Recorded on numpy's OpenBLAS
# build; a change that moves a bit of training moves these.
TRAINING_BYTES = {
    "rnn-frozen": ("ae9ebc24335d54b8b39a537704684dc9b6a87e7995ada06e8fc21c9ce3ebc6df",
                   "5eab6bee33594bc31b259e43859f4aa426b45104dd17e1423ec7f76163daff3c"),
    "rnn-finetuned": ("1a24284d1a7d9e39e5f2cd67375da401f03abb188a36459293729aa6b54c1e23",
                      "b8c1226e786bbc148b719cef1421e0cc05467085b0cbdfc7a2022c0c763b117e"),
    "affine-noise-per-sentence": (
        "14d08958c0bcece01f6107252c311839f4e8a30fbc93add84c8455c6a6b58be9",
        "65355cb3acb367619e413758b54aca05e24baf299f5b8704a2af8c0421ef5353"),
}


@pytest.mark.parametrize("case, overrides", [
    ("rnn-frozen", dict(leaf_kind="rnn")),
    ("rnn-finetuned", dict(leaf_kind="rnn", finetune_embeddings=True)),
    ("affine-noise-per-sentence", dict(leaf_kind="affine", noise_per_layer=False)),
])
def test_training_bytes_are_pinned(case, overrides, tmp_path):
    toy.write_embedding_file(tmp_path / "emb.txt", vocab_size=20, dim=6, seed=3)
    vocab, embedding = load_embeddings(tmp_path / "emb.txt", seed=0)
    corpora = []
    for name, count, seed in (("train", 19, 41), ("val", 7, 42)):
        toy.write_pair_corpus(tmp_path / name, toy.subset_pair_records(
            count, vocab_size=20, min_len=1, max_len=7, seed=seed))
        corpora.append(load_pair_corpus(tmp_path / name, vocab, toy.SUBSET_LABELS))
    config = small_config(max_epochs=2, seed=7, learning_rate=0.03, **overrides)
    if config.finetune_embeddings:
        embedding = EmbeddingMatrix(Tensor(embedding.vectors, requires_grad=True))
    result = train(*corpora, config, vocab, embedding, clock=lambda: 0.0)
    assert (result.checkpoint.save(tmp_path / "model.ckpt"),
            hashlib.sha256(result.log_text.encode()).hexdigest()) == TRAINING_BYTES[case]


def grad_bytes(tensor):
    return b"none" if tensor.grad is None else tensor.grad.tobytes()


class TestBatchGradients:
    @given(st.data())
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_an_example_trains_alike_alone_in_a_batch_and_shuffled(self, data):
        # each sentence's merges, node bytes and leaf-gradient bytes are the
        # same whether its example trains alone, in a batch or in a shuffled
        # batch, whatever the group size; batches of one under one
        # GradientBatch give every parameter the bytes of one batch
        model = LOCKSTEP_TRAIN_MODELS[data.draw(st.sampled_from(sorted(LOCKSTEP_TRAIN_MODELS)))]
        sentence = st.lists(st.integers(2, 11), min_size=1, max_size=9)
        examples = data.draw(st.lists(st.builds(PairExample, sentence, sentence,
                                                st.integers(0, 2)), min_size=1, max_size=6))
        order = data.draw(st.permutations(range(len(examples))))
        group = data.draw(st.integers(1, 4))
        params = model.parameters()

        def trained(batches):
            for p in params.values():
                p.grad = None
            weight_grads, seen, calls = GradientBatch(), {}, []

            def spy(*args, real=parser.induce_tree, **kwargs):
                calls.append(real(*args, **kwargs))
                return calls[-1]

            with mock.patch.object(parser, "induce_tree", spy), \
                    mock.patch.object(training, "TRAIN_GROUP", group):
                for batch in batches:
                    calls.clear()
                    training.batch_gradients(model, [examples[i] for i in batch],
                                             [np.random.default_rng([3, i]) for i in batch],
                                             0.9, weight_grads)
                    # a group's sentences are its examples' last to first,
                    # each example's premise, then its hypothesis
                    for k, induced in enumerate(calls):
                        members = batch[k * group:(k + 1) * group]
                        for j, (tree, nodes) in enumerate(induced):
                            leaves = nodes[:tree.n]
                            seen[members[len(members) - 1 - j // 2], j % 2] = (
                                tree.merges,
                                b"".join(n.h.data.tobytes() + n.c.data.tobytes() for n in nodes),
                                b"".join(grad_bytes(n.h) + grad_bytes(n.c) for n in leaves))
            weight_grads.flush()
            return seen, {name: None if p.grad is None else p.grad.tobytes()
                          for name, p in params.items()}

        alone, alone_grads = trained([[i] for i in range(len(examples))])
        together, together_grads = trained([list(range(len(examples)))])
        shuffled, _ = trained([list(order)])
        assert len(alone) == 2 * len(examples)
        assert together == alone and shuffled == alone
        assert together_grads == alone_grads


class TestGradientBatch:
    def test_batch_sums_equal_per_example_sums_and_plain_tapes_still_check(self):
        # a fine-tuned RNN-leaf model, so that every kind of gradient occurs
        model = tiny_pair_model(leaf_kind="rnn", finetune=True)
        params = model.parameters()
        examples = [PairExample([2, 3, 4, 2], [5, 6], 0), PairExample([7, 3, 8], [9, 2, 2], 1),
                    PairExample([4], [3, 5, 6, 11], 2)]

        def gradients(batch):
            for p in params.values():
                p.grad = None
            for i, example in enumerate(examples):
                with Tape(batch) as tape:
                    loss, _ = model.example_loss(example, "train", np.random.default_rng(i))
                    backward(tape, loss)
            return params

        batch = GradientBatch()
        gradients(batch)
        # the weight matrices wait for the flush, biases and embedding rows do not
        for name in ("head.out_weight", "composition.weight", "leaf.fwd.update_in"):
            assert params[name].grad is None, name
        for name in ("head.out_bias", "leaf.fwd.update_bias", "embedding"):
            assert params[name].grad is not None, name
        batch.flush()
        held = {name: p.grad.copy() for name, p in params.items()}
        batch.flush()  # a second flush adds nothing
        assert all((p.grad == held[name]).all() for name, p in params.items())
        flushed = {name: p.grad.copy() for name, p in gradients(None).items()}
        assert held.keys() == flushed.keys()
        for name, want in flushed.items():
            assert np.abs(held[name] - want).max() <= 1e-12 * np.abs(want).max(), name

        # finite_difference_check opens a plain Tape, which forms every gradient itself
        example = examples[0]

        def loss(_x):
            logits = model.logits(example, mode="soft", rng=np.random.default_rng(7))
            return cross_entropy(logits, example.label)

        for name in ("head.out_weight", "leaf.proj_weight", "embedding"):
            assert finite_difference_check(loss, params[name], 1e-5) < 1e-6, name


class TestCheckpoint:
    def test_roundtrip_preserves_fields_and_values(self, tmp_path):
        model = tiny_pair_model(seed=3)
        cfg = small_config()
        ckpt = snapshot(model, cfg, {"note": 1}, epoch=4, best_val_acc=0.75)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.config == cfg
        assert loaded.epoch == 4 and loaded.best_val_acc == 0.75
        assert loaded.vocab_words == ckpt.vocab_words
        for name, arr in ckpt.params.items():
            assert (loaded.params[name] == arr).all()
            assert loaded.params[name].dtype == np.float32

    def test_rebuilt_model_matches_within_float32_rounding(self, tmp_path):
        model = tiny_pair_model(seed=8, num_classes=2)
        cfg = TrainConfig(task="pair", labels=("no", "yes"), hidden=8, d_attn=6,
                          d_clf=16, leaf_kind="affine", seed=0)
        ckpt = snapshot(model, cfg, {}, epoch=1, best_val_acc=0.5)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        rebuilt = Checkpoint.load(path).build_model()
        example = PairExample([2, 3, 4], [5, 6], 1)
        original = model.logits(example, mode="infer").data
        recovered = rebuilt.logits(example, mode="infer").data
        np.testing.assert_allclose(recovered, original, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("name", ["rnn_finetune.ckpt", "affine.ckpt"])
    def test_committed_checkpoint_resaves_byte_identically(self, name, tmp_path):
        # fixtures written by an earlier release: parameter names, order,
        # shapes and values must survive a rebuild unchanged
        source = FIXTURES / name
        ckpt = Checkpoint.load(source)
        out = tmp_path / name
        snapshot(ckpt.build_model(), ckpt.config, ckpt.rng_state, ckpt.epoch,
                 ckpt.best_val_acc).save(out)
        assert out.read_bytes() == source.read_bytes()

    @pytest.mark.parametrize("name", ["affine.ckpt", "rnn_finetune.ckpt"])
    def test_model_adopts_a_frozen_stored_table_and_snapshot_shares_it(self, name):
        ckpt = Checkpoint.load(FIXTURES / name)
        model = ckpt.build_model()
        stored = ckpt.params["embedding"]
        frozen = not ckpt.config.finetune_embeddings
        assert model.embedding.trainable != frozen
        assert (model.embedding.vectors is stored) == frozen
        if not frozen:
            assert not np.shares_memory(model.embedding.vectors.data, stored)
        again = snapshot(model, ckpt.config, ckpt.rng_state, ckpt.epoch, ckpt.best_val_acc)
        assert (again.params["embedding"] is stored) == frozen

    def test_corrupt_file_rejected(self, tmp_path):
        # longer than two read buffers, and ending in a marker cut short
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n" + b"x" * (2 * io.DEFAULT_BUFFER_SIZE) + b"blob")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a checkpoint "
                                             r"\(missing blob marker\)$"):
            Checkpoint.load(path)

    def test_blob_marker_must_be_a_line_of_its_own(self, tmp_path):
        # a header line that only ends in "blob" does not end the header
        path = tmp_path / "bad.ckpt"
        data = (FIXTURES / "affine.ckpt").read_bytes()
        path.write_bytes(data.replace(b"\nblob\n", b"\nxblob\n", 1))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a checkpoint "
                                             r"\(missing blob marker\)$"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("line, replacement, message", [
        (0, b"treeattn-checkpoint", "unsupported checkpoint format"),
        (2, b'{"epoch": 1}', "metadata is missing key 'best_val_acc', 'rng_state'"),
        (2, b"[1, 2]", "bad metadata line: not a JSON dict"),
        (3, b'{"a": 1}', "bad vocabulary line: not a JSON list"),
        (3, b"[unquoted]", "bad vocabulary line: Expecting value"),
        (4, b"params", "bad parameter count line: expected 'params <n>'"),
        (4, b"params 99", "truncated header: no parameter shape line"),
        (5, b"embedding x 6", "bad parameter shape line 'embedding x 6'"),
    ])
    def test_malformed_header_line_is_named(self, tmp_path, line, replacement, message):
        ckpt = snapshot(tiny_pair_model(seed=3), small_config(), {}, epoch=1,
                        best_val_acc=0.5)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        header, blob = path.read_bytes().split(b"blob\n", 1)
        lines = header.split(b"\n")
        lines[line] = replacement
        path.write_bytes(b"\n".join(lines) + b"blob\n" + blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             f"{re.escape(message)}"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("extra", [b"not a shape line at all", b"", b"head.out_bias 3"])
    def test_a_header_line_after_the_parameter_shapes_is_named(self, tmp_path, extra):
        path = tmp_path / "bad.ckpt"
        path.write_bytes((FIXTURES / "affine.ckpt").read_bytes().replace(
            b"\nblob\n", b"\n" + extra + b"\nblob\n", 1))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unexpected header "
                                             f"line {re.escape(repr(extra.decode()))} "
                                             f"after the 12 parameter shape lines$"):
            Checkpoint.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data[:-1], "truncated blob at parameter 'embedding'"),
        (lambda data: data + b"\0\0\0", "3 trailing bytes in blob"),
        # 2**32 * 2**32 elements wrap to 0 in int64; the blob holds far fewer
        (lambda data: data.replace(b"\nleaf.weight 4 2\n",
                                   b"\nleaf.weight 4294967296 4294967296\n"),
         "truncated blob at parameter 'leaf.weight'"),
    ])
    def test_blob_that_does_not_match_the_shapes_is_named(self, tmp_path, edit, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(edit((FIXTURES / "affine.ckpt").read_bytes()))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            Checkpoint.load(path)

    def test_save_writes_any_array_layout_as_little_endian_float32(self, tmp_path):
        values = np.arange(12, dtype=np.float64).reshape(3, 4)
        params = {"transposed": values.T, "big_endian": values.astype(">f4")}
        path = tmp_path / "layouts.ckpt"
        Checkpoint(small_config(), ["<pad>", "<unk>"], params, {}, 1, 0.5).save(path)
        assert path.read_bytes().split(b"blob\n", 1)[1] == (
            values.T.astype("<f4").tobytes() + values.astype("<f4").tobytes())
        loaded = Checkpoint.load(path).params
        np.testing.assert_array_equal(loaded["transposed"], values.T)
        np.testing.assert_array_equal(loaded["big_endian"], values)
        assert all(arr.flags.writeable and arr.flags.aligned for arr in loaded.values())

    def test_load_peak_memory_is_at_most_one_and_a_quarter_file_sizes(self, tmp_path):
        # the blob is almost all of the file and almost all embedding, as
        # with a real vocabulary
        vectors = np.random.default_rng(0).standard_normal((2000, 300)).astype(np.float32)
        params = {"head.out_bias": np.ones(3, np.float32), "embedding": vectors}
        path = tmp_path / "big.ckpt"
        Checkpoint(small_config(), ["<pad>", "<unk>"], params, {}, 1, 0.5).save(path)
        size = path.stat().st_size
        assert vectors.nbytes >= 0.9 * size
        tracemalloc.start()
        try:
            loaded = Checkpoint.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.params["embedding"], vectors)
        assert peak <= 1.25 * size, f"peak {peak / size:.2f}x the file size"

    @pytest.mark.parametrize("at", [fill * io.DEFAULT_BUFFER_SIZE + shift
                                    for fill in (1, 2) for shift in range(-6, 7)])
    def test_blob_marker_at_any_offset_near_a_read_buffer_boundary_loads(self, tmp_path, at):
        # each character of the long word moves the marker one byte
        params = {"head.out_bias": np.arange(3, dtype=np.float32),
                  "leaf.weight": np.arange(12, dtype=np.float32).reshape(4, 3)}
        path = tmp_path / "model.ckpt"
        Checkpoint(small_config(), ["<pad>", "<unk>", ""], params, {}, 1, 0.5).save(path)
        words = ["<pad>", "<unk>", "w" * (at - path.read_bytes().find(b"blob\n"))]
        Checkpoint(small_config(), words, params, {}, 1, 0.5).save(path)
        assert path.read_bytes().find(b"blob\n") == at
        loaded = Checkpoint.load(path)
        assert loaded.vocab_words == words
        assert loaded.params.keys() == params.keys()
        for name, values in params.items():
            np.testing.assert_array_equal(loaded.params[name], values)

    @pytest.mark.parametrize("name", ["affine.ckpt", "rnn_finetune.ckpt"])
    def test_build_model_copies_stored_values_into_the_arrays_it_built(self, name,
                                                                       monkeypatch):
        built = {}
        build = training._build_model

        def record(*args):
            model = build(*args)
            built.update((key, t.data) for key, t in model.parameters().items())
            return model

        monkeypatch.setattr(training, "_build_model", record)
        ckpt = Checkpoint.load(FIXTURES / name)
        params = ckpt.build_model().parameters()
        params.pop("embedding", None)
        assert params.keys() == ckpt.params.keys() - {"embedding"}
        for key, tensor in params.items():
            assert tensor.data is built[key], key
            assert tensor.data.dtype == np.float64
            np.testing.assert_array_equal(tensor.data, ckpt.params[key].astype(np.float64))
            assert not np.shares_memory(tensor.data, ckpt.params[key]), key

    @pytest.mark.parametrize("finetune", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loaded_parameters_never_alias_the_given_arrays(self, dtype, finetune):
        model = tiny_pair_model(seed=3, finetune=finetune)
        cfg = TrainConfig(task="pair", labels=("a", "b", "c"), hidden=8, d_attn=6, d_clf=16,
                          leaf_kind="affine", finetune_embeddings=finetune)
        arrays = {name: np.full(t.shape, 0.25, dtype)
                  for name, t in model.parameters().items()}
        arrays.setdefault("embedding", np.full(model.embedding.vectors.shape, 0.25, dtype))
        rebuilt = Checkpoint(cfg, list(model.vocab.index_to_word), arrays, {}, 1,
                             0.5).build_model()
        params = rebuilt.parameters()
        assert params.keys() == model.parameters().keys()
        for name, tensor in params.items():
            assert tensor.data.dtype == np.float64, name
            assert (tensor.data == 0.25).all(), name
            assert not np.shares_memory(tensor.data, arrays[name]), name


class TestConfigValidation:
    @pytest.mark.parametrize("override, message", [
        ({"task": "tagging"}, "task must be 'pair' or 'sentence', got 'tagging'"),
        ({"hidden": 0}, "hidden must be positive, got 0"),
        ({"max_epochs": 0}, "max_epochs must be positive, got 0"),
        ({"temperature": float("nan")}, "temperature must be positive and finite, got nan"),
        ({"beta1": 1.0}, "beta1 must lie in (0, 1), got 1.0"),
        ({"beta2": 0.0}, "beta2 must lie in (0, 1), got 0.0"),
        ({"dropout_keep": 0.0}, "dropout_keep must lie in (0, 1], got 0.0"),
        ({"dropout_keep": 1.5}, "dropout_keep must lie in (0, 1], got 1.5"),
        ({"labels": ("one",)}, "need at least two labels"),
        ({"patience": -1}, "patience must be nonnegative, got -1"),
    ])
    def test_rejects_bad_values(self, override, message):
        # a range message names the field and the value given, since the
        # train command reports it to the user as it is
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**override)

    def test_unknown_json_key_is_named(self):
        text = small_config().to_json()[:-1] + ', "frobnicate": 1}'
        with pytest.raises(ValueError, match="unknown config key 'frobnicate'"):
            TrainConfig.from_json(text)

    @pytest.mark.parametrize("text, message", [
        ('["pair"]', "config is not a JSON object"),
        ('{"task": "pair", "labels": ["a", "b"], "hidden": "8"}',
         "hidden must be of type int, got '8'"),
    ])
    def test_malformed_json_raises_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig.from_json(text)

    def test_missing_json_key_is_named(self):
        values = json.loads(small_config().to_json())
        del values["task"]
        with pytest.raises(ValueError, match="missing config key 'task'"):
            TrainConfig.from_json(json.dumps(values))

    def test_int_fills_a_float_field_and_numpy_int_an_int_field(self):
        values = json.loads(small_config().to_json())
        values["learning_rate"] = 1
        assert TrainConfig.from_json(json.dumps(values)).learning_rate == 1.0
        assert small_config(hidden=np.int64(4)).hidden == 4

    def test_json_roundtrip(self):
        cfg = small_config(seed=99)
        assert TrainConfig.from_json(cfg.to_json()) == cfg
