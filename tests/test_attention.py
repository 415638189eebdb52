"""Attention pooling over tree nodes."""

import math

import numpy as np
import pytest

from treeattn.attention import AttentionParams, attend, init_attention_params
from treeattn.tensor import Tape, Tensor, backward, dot, finite_difference_check


def random_nodes(rng, count, hidden, requires_grad=False):
    return [Tensor(rng.normal(size=hidden), requires_grad=requires_grad)
            for _ in range(count)]


class TestAttend:
    def test_single_node_passthrough(self):
        params = init_attention_params(np.random.default_rng(0), 3, 2)
        h = Tensor([0.7, -1.1])
        out = attend([h], params)
        assert out.weights.data.tolist() == [1.0]
        assert (out.sentence.data == h.data).all()

    def test_zero_score_weight_gives_mean(self):
        rng = np.random.default_rng(1)
        nodes = random_nodes(rng, 5, 3)
        params = AttentionParams(init_attention_params(rng, 4, 3).embed_weight,
                                 Tensor(np.zeros((1, 4)), requires_grad=True))
        out = attend(nodes, params)
        np.testing.assert_allclose(out.weights.data, np.full(5, 0.2), atol=1e-15)
        np.testing.assert_allclose(out.sentence.data,
                                   np.mean([n.data for n in nodes], axis=0),
                                   atol=1e-15)

    def test_hand_computed_odds(self):
        # post-relu embeddings [1] and [0], score weight ln 3 -> weights 3:1
        params = AttentionParams(Tensor([[1.0]]), Tensor([[math.log(3.0)]]))
        out = attend([Tensor([1.0]), Tensor([-5.0])], params)
        np.testing.assert_allclose(out.weights.data, [0.75, 0.25], atol=1e-15)

    def test_weights_normalized_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            count = int(rng.integers(1, 12))
            hidden = int(rng.integers(1, 6))
            params = init_attention_params(rng, int(rng.integers(1, 6)), hidden)
            out = attend(random_nodes(rng, count, hidden), params)
            assert abs(out.weights.data.sum() - 1.0) <= 1e-12
            assert (out.weights.data >= 0).all()

    def test_sentence_vector_is_weighted_sum(self):
        rng = np.random.default_rng(3)
        nodes = random_nodes(rng, 7, 4)
        params = init_attention_params(rng, 5, 4)
        out = attend(nodes, params)
        expected = sum(w * n.data for w, n in zip(out.weights.data, nodes))
        np.testing.assert_allclose(out.sentence.data, expected, atol=1e-15)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(4)
        nodes = random_nodes(rng, 6, 3)
        params = init_attention_params(rng, 4, 3)
        base = attend(nodes, params)
        perm = rng.permutation(6)
        shuffled = attend([nodes[i] for i in perm], params)
        np.testing.assert_allclose(shuffled.weights.data,
                                   base.weights.data[perm], atol=1e-15)
        np.testing.assert_allclose(shuffled.sentence.data, base.sentence.data,
                                   atol=1e-12)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(5)
        nodes = random_nodes(rng, 5, 3)
        params = init_attention_params(rng, 4, 3)
        out = attend(nodes, params)
        logits = np.array([(params.score_weight.data
                            @ np.maximum(params.embed_weight.data @ n.data, 0.0)).item()
                           for n in nodes])
        for shift in (0.0, 5.0, -17.0):
            e = np.exp(logits + shift - (logits + shift).max())
            np.testing.assert_allclose(out.weights.data, e / e.sum(), atol=1e-12)

    def test_empty_node_list_rejected(self):
        params = init_attention_params(np.random.default_rng(0), 3, 2)
        with pytest.raises(Exception, match="attention_pool"):
            attend([], params)


class TestGradients:
    def test_finite_differences_on_all_inputs(self):
        rng = np.random.default_rng(6)
        hidden = 3
        nodes = random_nodes(rng, 4, hidden, requires_grad=True)
        params = init_attention_params(rng, 5, hidden)
        r = Tensor(rng.normal(size=hidden))

        def loss(_x):
            return dot(attend(nodes, params).sentence, r)

        for name, tensor in {"embed": params.embed_weight,
                             "score": params.score_weight,
                             **{f"h{i}": n for i, n in enumerate(nodes)}}.items():
            err = finite_difference_check(loss, tensor, 1e-5)
            assert err < 1e-6, f"{name}: {err}"

    def test_one_tape_record_per_sentence(self):
        rng = np.random.default_rng(8)
        params = init_attention_params(rng, 4, 3)
        for count in (1, 2, 9):
            with Tape() as tape:
                attend(random_nodes(rng, count, 3, requires_grad=True), params)
            assert [rec.name for rec in tape._records] == ["attention_pool"]

    def test_every_leaf_receives_gradient(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            hidden = int(rng.integers(2, 5))
            count = int(rng.integers(2, 9))
            nodes = random_nodes(rng, count, hidden, requires_grad=True)
            params = init_attention_params(rng, 4, hidden)
            with Tape() as tape:
                out = attend(nodes, params)
                backward(tape, dot(out.sentence, Tensor(rng.normal(size=hidden))))
            for i, node in enumerate(nodes):
                assert node.grad is not None
                assert np.abs(node.grad).max() > 0.0, f"trial {trial}, leaf {i}"
