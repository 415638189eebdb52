"""Optimizer, evaluation metrics, training loop, checkpoints."""

from pathlib import Path

import numpy as np
import pytest

from treeattn.data import EmbeddingMatrix, PairExample, load_embeddings, load_pair_corpus
from treeattn.tensor import Tensor
from treeattn.training import (Adam, Checkpoint, TrainConfig, TrainingDiverged,
                               adam_step, clip_gradients, evaluate, macro_f1,
                               snapshot, train)
from treeattn import toy

from conftest import tiny_pair_model

FIXTURES = Path(__file__).parent / "fixtures"


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
        adam_step(value, np.zeros(2), m, v, 1, 0.1, 0.9, 0.999, 1e-8)
        assert value.tolist() == [1.5, -2.0]
        assert not m.any() and not v.any()

    def test_first_step_magnitude(self):
        value = np.array([0.0])
        m, v = np.zeros(1), np.zeros(1)
        adam_step(value, np.ones(1), m, v, 1, 0.1, 0.9, 0.999, 1e-8)
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
            adam_step(value, np.zeros(1), m, v, t, 0.0, 0.9, 0.999, 1e-8)
        assert m[0] < 0.1 and v[0] < 1.0

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

    def test_threading_preserves_results(self):
        model = tiny_pair_model()
        examples = [PairExample([2, 3, 4], [5, 6], i % 3) for i in range(9)]
        serial = evaluate(examples, model, threads=1)
        threaded = evaluate(examples, model, threads=4)
        assert [p.predicted for p in serial.predictions] == \
               [p.predicted for p in threaded.predictions]

    def test_accepts_checkpoint_directly(self):
        model = tiny_pair_model(num_classes=2)
        cfg = TrainConfig(task="pair", labels=("no", "yes"), hidden=8, d_attn=6,
                          d_clf=16, leaf_kind="affine")
        ckpt = snapshot(model, cfg, {}, epoch=1, best_val_acc=0.0)
        examples = [PairExample([2, 3], [4], 0)]
        direct = evaluate(examples, model)
        via_ckpt = evaluate(examples, ckpt)
        assert direct.predictions[0].predicted == via_ckpt.predictions[0].predicted

    def test_matches_per_example_inference(self):
        # no batching effects: evaluate equals one-by-one scoring
        model = tiny_pair_model()
        examples = [PairExample([2, 3, 4], [5, 6], i % 3) for i in range(6)]
        result = evaluate(examples, model)
        for pred, ex in zip(result.predictions, examples):
            logits = model.logits(ex, mode="infer")
            assert pred.predicted == int(np.argmax(logits.data))


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
        tr, va, vocab, embedding = toy_setup(tmp_path)
        embedding.vectors.data[2:] *= 1e160  # forces overflow inside compose
        cfg = small_config(max_epochs=1)
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
        embedding = EmbeddingMatrix(Tensor(embedding.vectors.data.copy(),
                                           requires_grad=True), trainable=True)
        cfg = small_config(max_epochs=2, finetune_embeddings=True)
        train(tr, va, cfg, vocab, embedding, clock=lambda: 0.0)
        assert not embedding.vectors.data[0].any()


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

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError):
            Checkpoint.load(path)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_config(task="tagging")
        with pytest.raises(ValueError):
            small_config(hidden=0)
        with pytest.raises(ValueError):
            small_config(beta1=1.0)
        with pytest.raises(ValueError):
            small_config(dropout_keep=0.0)
        with pytest.raises(ValueError):
            small_config(labels=("one",))
        with pytest.raises(ValueError):
            small_config(patience=-1)

    def test_json_roundtrip(self):
        cfg = small_config(seed=99)
        assert TrainConfig.from_json(cfg.to_json()) == cfg
