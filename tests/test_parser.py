"""Tree induction: composition cell, validity scores, Gumbel selection."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeattn import parser
from treeattn.parser import (MODES, CompositionParams, GumbelConfig, LeafAffineParams,
                             NodeState, compose, gumbel_noise, induce_tree,
                             init_composition_params, init_leaf_affine,
                             init_leaf_rnn, init_query, leaf_transform,
                             softmax_argmax, st_gumbel_select, validity_scores)
from treeattn.tensor import (GradientBatch, NonFiniteError, ShapeError, Tape, Tensor, _Outer,
                             add, backward, concat, dot, softmax, stable_softmax)
from treeattn.trees import export_bracketed, parse_bracketed

from conftest import assert_last_bits


def zero_composition(hidden):
    return CompositionParams(Tensor(np.zeros((5 * hidden, 2 * hidden)), requires_grad=True),
                             Tensor(np.zeros(5 * hidden), requires_grad=True))


def state(h, c):
    return NodeState(Tensor(np.asarray(h, float)), Tensor(np.asarray(c, float)))


def random_states(rng, n, hidden):
    return [state(rng.normal(size=hidden), rng.normal(size=hidden)) for _ in range(n)]


class FixedUniform:
    """rng stand-in returning a preset uniform draw."""

    def __init__(self, values):
        self.values = np.asarray(values, float)

    def uniform(self, size=None):
        return self.values[:size]


def compose_pairs(pairs, query, params):
    """``compose`` over k (left, right) pairs of NodeStates, into new arrays."""
    kids = [np.array([np.concatenate((getattr(left, part).data, getattr(right, part).data))
                      for left, right in pairs]) for part in ("h", "c")]
    k, hidden = len(pairs), query.shape[0]
    return compose(*kids, query, params, (np.empty((k, hidden)), np.empty((k, hidden)),
                                          np.empty(k)))


class TestCompose:
    def test_all_zero_parameters_and_memories(self):
        cells = compose_pairs([(state([0.0], [0.0]), state([0.0], [0.0]))],
                              Tensor([1.0]), zero_composition(1))
        assert cells.c[0, 0] == 0.0 and cells.h[0, 0] == 0.0 and cells.logits[0] == 0.0

    def test_zero_weights_unit_memories(self):
        # gates sit at 0.5, so c = 0.5 + 0.5 and h = tanh(1)/2
        cells = compose_pairs([(state([0.0], [1.0]), state([0.0], [1.0]))],
                              Tensor([2.0]), zero_composition(1))
        assert cells.c[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert cells.h[0, 0] == pytest.approx(0.3807970779778824, abs=1e-12)
        assert cells.logits[0] == 2.0 * cells.h[0, 0]

    @pytest.mark.parametrize("k", [2, 7], ids=["merge-window", "first-layer"])
    def test_batch_gives_each_pair_its_values_alone(self, k):
        # k = 2 is the two pairs a merge leaves, which share its node, and
        # k = 7 a first layer over a row of 8 nodes.  One call composes the
        # whole batch and records nothing itself; the same call again gives
        # the same bits, and each parent has the values it has when composed
        # alone to the last bits, which may depend on k (one matrix product
        # takes the whole batch)
        rng = np.random.default_rng(k)
        hidden = 8
        params = CompositionParams(Tensor(rng.normal(size=(5 * hidden, 2 * hidden))),
                                   Tensor(rng.normal(size=5 * hidden)))
        query = Tensor(rng.normal(size=hidden))
        row = random_states(rng, k + 1, hidden)
        pairs = list(zip(row, row[1:]))
        with Tape() as tape:
            cells = compose_pairs(pairs, query, params)
        assert len(tape) == 0
        again = compose_pairs(pairs, query, params)
        for name in ("h", "c", "logits"):
            np.testing.assert_array_equal(getattr(again, name), getattr(cells, name))
        for j, pair in enumerate(pairs):
            alone = compose_pairs([pair], query, params)
            for name in ("h", "c", "logits"):
                assert_last_bits(getattr(cells, name)[j], getattr(alone, name)[0])
            assert_last_bits(cells.logits[j], np.dot(query.data, cells.h[j]))

    def test_gates_saturate_exactly_without_floating_point_errors(self):
        # pre-activations of +-800 and +-1e300 give gates of exactly 0 or 1
        # and raise no overflow, underflow or invalid-value error, in the
        # cell and in a GRU direction
        extremes = np.array([800.0, -800.0, 1e300, -1e300])
        bounds = (extremes > 0).astype(float)
        hidden = len(extremes)
        with np.errstate(over="raise", under="raise", invalid="raise"):
            bias = np.tile(extremes, 5)
            params = CompositionParams(Tensor(np.zeros((5 * hidden, 2 * hidden))),
                                       Tensor(bias))
            cells = compose_pairs([(state(np.ones(hidden), np.ones(hidden)),
                                    state(np.ones(hidden), np.ones(hidden)))],
                                  Tensor(np.ones(hidden)), params)
            np.testing.assert_array_equal(cells.blocks[0, 1:], np.tile(bounds, (4, 1)))
            # c = candidate * input + c_left * forget_left + c_right * forget_right
            np.testing.assert_array_equal(cells.c[0], [3.0, 0.0, 3.0, 0.0])
            np.testing.assert_array_equal(parser._logistic(extremes), bounds)
            # an update gate of exactly 1 keeps the zero start state, and one
            # of exactly 0 takes the candidate, tanh(800) = tanh(1e300) = 1
            gru = parser.GruParams(*(Tensor(np.zeros(shape)) for shape in
                                     [(hidden, 3), (hidden, hidden), (hidden,)] * 3))
            gru.update_bias.data[:] = gru.reset_bias.data[:] = extremes
            gru.cand_bias.data[:] = -extremes
            states = parser.gru_sequence(gru, Tensor(np.ones((2, 3))))
        np.testing.assert_array_equal(states.data, [[0.0, 1.0, 0.0, 1.0]] * 2)

    def test_gradients_match_finite_differences(self):
        # the composition's gradients as the induction records them: two
        # leaves make one candidate, which the only merge copies
        from treeattn.tensor import finite_difference_check
        rng = np.random.default_rng(5)
        hidden = 3
        params = init_composition_params(rng, hidden)
        left, right = random_states(rng, 2, hidden)
        for t in (left.h, left.c, right.h, right.c):
            t.requires_grad = True
        r_h, r_c = Tensor(rng.normal(size=hidden)), Tensor(rng.normal(size=hidden))
        query = init_query(rng, hidden)

        def loss(_x):
            _, nodes = induce_tree([left, right], params, query, GumbelConfig(),
                                   np.random.default_rng(0))
            return add(dot(nodes[2].h, r_h), dot(nodes[2].c, r_c))

        probes = {"weight": params.weight, "bias": params.bias, "h_left": left.h,
                  "h_right": right.h, "c_left": left.c, "c_right": right.c}
        for name, tensor in probes.items():
            err = finite_difference_check(loss, tensor, 1e-5)
            assert err < 1e-6, f"{name}: {err}"


class TestLeafTransforms:
    def test_affine_zero_map(self):
        params = LeafAffineParams(Tensor(np.zeros((2, 3)), requires_grad=True),
                                  Tensor(np.zeros(2), requires_grad=True))
        states = leaf_transform(Tensor([[1.0, 2.0, 3.0]]), params)
        assert len(states) == 1
        assert states[0].h.data.tolist() == [0.0] and states[0].c.data.tolist() == [0.0]

    def test_affine_hand_value(self):
        # identity-like rows map x=[1] to (h, c) = ([1], [1])
        params = LeafAffineParams(Tensor([[1.0], [1.0]]), Tensor([0.0, 0.0]))
        [s] = leaf_transform(Tensor([[1.0]]), params)
        assert s.h.data.tolist() == [1.0] and s.c.data.tolist() == [1.0]

    def test_rnn_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        params = init_leaf_rnn(rng, 4, 3)
        words = Tensor([np.random.default_rng(i).normal(size=4) for i in range(5)])
        a = leaf_transform(words, params)
        b = leaf_transform(words, params)
        assert len(a) == 5
        for sa, sb in zip(a, b):
            assert sa.h.shape == (3,) and sa.c.shape == (3,)
            assert (sa.h.data == sb.h.data).all()

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_rnn_tape_cost_is_three_per_sentence(self, n):
        # one record per GRU direction, then one leaf_states record for the
        # projection of every position and its cut into (h, c)
        params = init_leaf_rnn(np.random.default_rng(1), 4, 3)
        words = Tensor([np.random.default_rng(i).normal(size=4) for i in range(n)])
        with Tape() as tape:
            states = leaf_transform(words, params)
            records = len(tape)
            backward(tape, dot(states[0].h, states[-1].c))
        names = [rec.name for rec in tape._records[:records]]
        assert names == ["gru_sequence", "gru_sequence", "leaf_states"]
        assert tape._records[2].outputs == (*(s.h for s in states), *(s.c for s in states))
        for direction in (params.fwd, params.bwd):
            assert all(getattr(direction, f.name).grad is not None for f in fields(direction))
        assert params.proj_weight.grad is not None and params.proj_bias.grad is not None

    @pytest.mark.parametrize("n", [1, 5])
    def test_affine_tape_cost_is_one_per_sentence(self, n):
        # one leaf_states record maps every position and cuts it into (h, c)
        params = init_leaf_affine(np.random.default_rng(2), 4, 3)
        words = Tensor([np.random.default_rng(i).normal(size=4) for i in range(n)])
        with Tape() as tape:
            states = leaf_transform(words, params)
            backward(tape, dot(states[0].h, states[-1].c))
        assert [rec.name for rec in tape._records] == ["leaf_states", "dot"]  # and the loss
        assert params.weight.grad is not None and params.bias.grad is not None

    def test_unknown_kind_and_empty_sentence(self):
        # the type of the parameters is the kind
        params = init_leaf_affine(np.random.default_rng(0), 4, 3)
        with pytest.raises(TypeError, match="leaf_transform.*CompositionParams"):
            leaf_transform(Tensor(np.zeros((1, 4))), zero_composition(2))
        with pytest.raises(ShapeError, match="empty sentence"):
            leaf_transform(Tensor(np.zeros((0, 4))), params)
        with pytest.raises(ShapeError, match="leaf_transform"):
            leaf_transform(Tensor(np.zeros(4)), params)


class TestGruGroup:
    @pytest.mark.parametrize("hidden", [3, 8, 100, 300])
    def test_stacked_matrix_vector_products_give_the_bits_of_separate_ones(self, hidden):
        # the GRU step's stacked np.matmul calls over S states: numpy runs one
        # matrix-vector product per state, bit for bit the plain product, for
        # a map, its transpose and two maps stacked, into a slice of a larger
        # array, whatever S
        rng = np.random.default_rng(hidden)
        maps = rng.normal(size=(2, hidden, hidden))
        stacked = maps[:, None]
        for count in (1, 2, 3, 16, 32):
            states = rng.normal(size=(count + 3, hidden))[:count]
            out = np.empty((2, count + 5, hidden))
            np.matmul(stacked, states[:, :, None], out=out[:, 2:count + 2, :, None])
            for k, w in enumerate(maps):
                want = np.array([w @ x for x in states])
                assert np.matmul(w, states[:, :, None])[:, :, 0].tobytes() == want.tobytes()
                assert out[k, 2:count + 2].tobytes() == want.tobytes()
                want_t = np.array([w.T @ x for x in states])
                got_t = np.matmul(stacked.transpose(0, 1, 3, 2), states[:, :, None])[k, :, :, 0]
                assert np.matmul(w.T, states[:, :, None])[:, :, 0].tobytes() == want_t.tobytes()
                assert got_t.tobytes() == want_t.tobytes()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_a_group_gives_each_sentence_its_bits_alone_at_paper_size(self, reverse):
        # H = 100 and D = 300: each sentence's states, and each gradient the
        # record hands back for it, are those of the sentence alone
        rng = np.random.default_rng(7)
        params = parser._init_gru(rng, 300, 100)
        group = [Tensor(rng.normal(size=(n, 300)), requires_grad=True)
                 for n in (1, 7, 25, 12, 3, 25)]
        probes = [rng.normal(size=(len(words.data), 100)) for words in group]

        def record(sentences):
            with Tape() as tape:
                states = parser.gru_sequence(params, sentences, reverse)
            rec = tape._records[0]
            grads = rec.grad_fn(tuple(probes[i] for i in members(sentences)))
            return [out.data.tobytes() for out in states], [
                b"".join(g.left.tobytes() + g.right.tobytes() if isinstance(g, _Outer)
                         else g.tobytes() for g in grads[10 * j:10 * j + 10])
                for j in range(len(sentences))][::-1]

        def members(sentences):
            return [next(i for i, words in enumerate(group) if words is s) for s in sentences]

        together = record(group)
        for i, words in enumerate(group):
            alone = record([words])
            assert together[0][i] == alone[0][0]
            assert together[1][i] == alone[1][0]


class TestValidityScores:
    def test_identical_candidates_uniform(self):
        scores = validity_scores(np.full(4, 0.7), GumbelConfig())
        np.testing.assert_allclose(scores, np.full(4, 0.25), atol=1e-15)

    def test_single_candidate(self):
        assert validity_scores(np.array([5.0]), GumbelConfig()).tolist() == [1.0]

    def test_log_ratio_hand_value(self):
        scores = validity_scores(np.array([math.log(2.0), 0.0]), GumbelConfig())
        np.testing.assert_allclose(scores, [2 / 3, 1 / 3], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            scores = validity_scores(rng.normal(scale=3.0, size=k), GumbelConfig())
            assert abs(scores.sum() - 1.0) <= 1e-12
            assert (scores >= 0).all()

    def test_cached_logits_are_reused_and_fresh_ones_filled(self, monkeypatch):
        # every layer scores the previous layer's logits for the pairs the
        # merge left alone, and the fresh pairs' logits from the newest compose
        rng = np.random.default_rng(6)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        calls = []
        for name in ("compose", "validity_scores"):
            def spy(*args, real=getattr(parser, name), name=name, **kwargs):
                out = real(*args, **kwargs)
                calls.append((name, out.logits.copy() if name == "compose" else args[0].copy()))
                return out
            monkeypatch.setattr(parser, name, spy)
        tree, _ = induce_tree(random_states(rng, 7, 4), params, query, GumbelConfig(),
                              np.random.default_rng(1))
        assert [name for name, _ in calls] == ["compose", "validity_scores"] * 6
        fresh = [values for name, values in calls if name == "compose"]
        layers = [values for name, values in calls if name == "validity_scores"]
        np.testing.assert_array_equal(layers[0], fresh[0])
        for index, previous, logits, new in zip(tree.merges, layers, layers[1:], fresh[1:]):
            expected = [*previous[:max(index - 1, 0)], *new, *previous[index + 2:]]
            assert len(logits) == len(expected) == len(previous) - 1
            np.testing.assert_array_equal(logits, expected)


def near_tie_logits():
    """Logit vectors whose largest entries tie or nearly tie: exact ties,
    one-ulp gaps on either side of the max, gaps just under, at and just
    over 1e-14, at magnitudes from 1e-300 to 1e300, with the larger of each
    near-tied pair first and last."""
    vectors = [np.array(v) for v in ([1.0, 1.0], [0.5, 2.0, 2.0, -1.0], [3.0] * 4,
                                     [0.0, -0.0], [-7.0, -7.0, -9.0])]
    gaps = (np.nextafter(1e-14, 0.0), 1e-14, np.nextafter(1e-14, 1.0))
    for scale in 10.0 ** np.arange(-300, 301, 25):
        for top in (scale, -scale, 0.3 * scale):
            low = top - 1.0 - abs(top)  # clearly below the near tie
            for other in (top, np.nextafter(top, np.inf), np.nextafter(top, -np.inf),
                          *(top - gap for gap in gaps), *(top + gap for gap in gaps)):
                vectors += [np.array([top, other]), np.array([other, top]),
                            np.array([low, other, low, top]), np.array([low, top, other])]
    return vectors


class TestInferPick:
    """``infer`` mode picks the validity softmax's argmax from the logits."""

    def test_matches_the_softmax_argmax_at_near_ties(self):
        infer = GumbelConfig(mode="infer")
        vectors = near_tie_logits()
        rounded = 0  # vectors whose softmax argmax is not their own argmax
        for logits in vectors:
            want = int(stable_softmax(logits).argmax())
            assert softmax_argmax(logits) == want, logits
            # the path induce_tree takes: validity_scores, then st_gumbel_select
            assert st_gumbel_select(validity_scores(logits, infer), infer) == (want, None)
            rounded += int(logits.argmax()) != want
        assert rounded > 100  # the softmax's rounding decides many of them

    def test_validity_scores_in_infer_mode_are_the_logits(self):
        logits = np.array([0.3, -1.0, 2.5])
        assert validity_scores(logits, GumbelConfig(mode="infer")) is logits
        with pytest.raises(ShapeError, match="no candidates"):
            validity_scores(np.array([]), GumbelConfig(mode="infer"))


class TestGumbelNoise:
    def test_median_draw_value(self):
        eps = gumbel_noise(1, FixedUniform([0.5]))
        assert eps[0] == pytest.approx(0.36651292058166435, abs=1e-14)

    def test_clamping_keeps_extremes_finite(self):
        eps = gumbel_noise(2, FixedUniform([0.0, 1.0]))
        assert np.isfinite(eps).all()
        assert eps[1] > 20.0  # u -> 1 pushes toward +inf before clamping
        assert eps[0] < eps[1]

    def test_seeded_determinism(self):
        a = gumbel_noise(8, np.random.default_rng(4))
        b = gumbel_noise(8, np.random.default_rng(4))
        assert (a == b).all()


class TestStGumbelSelect:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            GumbelConfig(temperature=0.0)
        with pytest.raises(ValueError, match="temperature"):
            GumbelConfig(temperature=-1.0)
        with pytest.raises(ValueError, match="mode"):
            GumbelConfig(mode="eval")

    def test_frozen_zero_noise_reduces_to_argmax(self):
        scores = softmax(Tensor([0.1, 2.0, 0.3]))
        idx, onehot = st_gumbel_select(scores, GumbelConfig(), noise=np.zeros(3))
        assert idx == 1
        assert onehot.data.tolist() == [0.0, 1.0, 0.0]

    def test_tie_breaks_to_lowest_index(self):
        scores = Tensor([0.25, 0.25, 0.25, 0.25])
        idx, onehot = st_gumbel_select(scores, GumbelConfig(), noise=np.zeros(4))
        assert idx == 0 and onehot.data.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_infer_mode_is_noiseless_argmax(self):
        scores = Tensor([0.2, 0.5, 0.3])
        idx, onehot = st_gumbel_select(scores, GumbelConfig(mode="infer"))
        assert idx == 1 and onehot.data.tolist() == [0.0, 1.0, 0.0]
        assert not onehot.requires_grad

    def test_soft_mode_returns_relaxation(self):
        scores = softmax(Tensor([0.4, 0.1]))
        idx, weights = st_gumbel_select(scores, GumbelConfig(mode="soft"),
                                        noise=np.zeros(2))
        assert idx == 0
        assert weights.data.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < weights.data[1] < weights.data[0] < 1.0

    def test_rejects_non_probability_scores(self):
        with pytest.raises(ValueError, match="probability"):
            st_gumbel_select(Tensor([0.9, 0.9]), GumbelConfig(), noise=np.zeros(2))

    @pytest.mark.parametrize("mode", ["train", "soft"])
    @pytest.mark.parametrize("scores", [Tensor([0.2, 0.5, 0.3]), np.array([0.2, 0.5, 0.3])])
    def test_noisy_mode_without_noise_raises_naming_the_function(self, mode, scores):
        with pytest.raises(ValueError, match=f"^st_gumbel_select: {mode} mode needs noise$"):
            st_gumbel_select(scores, GumbelConfig(mode=mode))

    def test_perturb_probs_flag_changes_operand(self):
        scores = Tensor([0.6, 0.4])
        noise = np.array([0.0, 0.3])
        idx_log, _ = st_gumbel_select(scores, GumbelConfig(), noise=noise)
        idx_lit, _ = st_gumbel_select(scores, GumbelConfig(perturb_probs=True),
                                      noise=noise)
        assert idx_log == 0 and idx_lit == 1

    def test_one_record_in_train_and_soft_none_in_infer(self):
        scores = Tensor([0.5, 0.3, 0.2], requires_grad=True)
        for mode, records in (("train", 1), ("soft", 1), ("infer", 0)):
            with Tape() as tape:
                st_gumbel_select(scores, GumbelConfig(mode=mode), noise=np.zeros(3))
            assert [rec.name for rec in tape._records] == ["gumbel_softmax"] * records

    def test_zero_score_raises_when_noisy_not_in_infer(self):
        # a softmax can underflow to an exact 0, whose log is -inf
        scores = Tensor([0.0, 0.6, 0.4])
        for mode in ("train", "soft"):
            with pytest.raises(NonFiniteError):
                st_gumbel_select(scores, GumbelConfig(mode=mode), noise=np.zeros(3))
        index, _ = st_gumbel_select(scores, GumbelConfig(mode="infer"))
        assert index == 1

    def test_straight_through_gradient_matches_relaxation(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            w = rng.normal(size=k)
            eps = gumbel_noise(k, rng)
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            r = rng.normal(size=k)
            cfg = GumbelConfig(temperature=tau)

            wt = Tensor(w.copy(), requires_grad=True)
            with Tape() as tape:
                scores = softmax(wt)
                _, onehot = st_gumbel_select(scores, cfg, noise=eps)
                backward(tape, dot(onehot, Tensor(r)))
            analytic = wt.grad.copy()

            def relaxed(vec):
                e = np.exp(vec - vec.max())
                v = e / e.sum()
                t = (np.log(v) + eps) / tau
                et = np.exp(t - t.max())
                return float(np.dot(et / et.sum(), r))

            h = 1e-6
            for i in range(k):
                up, down = w.copy(), w.copy()
                up[i] += h
                down[i] -= h
                numeric = (relaxed(up) - relaxed(down)) / (2 * h)
                assert abs(analytic[i] - numeric) / max(1.0, abs(analytic[i])) < 1e-6


class TestInduceTree:
    def test_node_count_is_2n_minus_1(self):
        rng = np.random.default_rng(1)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        tree, nodes = induce_tree(random_states(rng, 5, 4), params, query,
                                  GumbelConfig(), np.random.default_rng(0))
        assert len(nodes) == 9
        assert len(tree.merges) == 4

    def test_single_word_sentence(self):
        rng = np.random.default_rng(1)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        leaves = random_states(rng, 1, 4)
        tree, nodes = induce_tree(leaves, params, query, GumbelConfig(mode="infer"))
        assert tree.n == 1 and tree.merges == ()
        assert nodes == leaves

    def test_infer_mode_is_deterministic(self):
        rng = np.random.default_rng(3)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        leaves = random_states(rng, 7, 4)
        t1, _ = induce_tree(leaves, params, query, GumbelConfig(mode="infer"))
        t2, _ = induce_tree(leaves, params, query, GumbelConfig(mode="infer"))
        assert t1.merges == t2.merges

    def test_train_mode_forward_equals_selected_candidate(self):
        # hard one-hot weights must reproduce one candidate bit-for-bit
        rng = np.random.default_rng(9)
        params = init_composition_params(rng, 3)
        query = init_query(rng, 3)
        leaves = random_states(rng, 2, 3)
        _, nodes = induce_tree(leaves, params, query, GumbelConfig(),
                               np.random.default_rng(0))
        direct = compose_pairs([leaves], query, params)
        assert (nodes[-1].h.data == direct.h[0]).all()
        assert (nodes[-1].c.data == direct.c[0]).all()

    def test_one_validity_logit_per_composed_candidate(self, monkeypatch):
        # one compose call for the first layer's 8 pairs, then one per merge
        # but the last for the at most 2 fresh pairs; recomputing every
        # candidate at every layer would compose 8 + 7 + ... + 1 = 36
        rng = np.random.default_rng(5)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        sizes = []

        def spy(*args, real=parser.compose, **kwargs):
            sizes.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(parser, "compose", spy)
        with Tape() as tape:
            induce_tree(random_states(rng, 9, 4), params, query, GumbelConfig(),
                        np.random.default_rng(0))
        assert [rec.name for rec in tape._records] == ["tree_induction"]
        assert sizes[0] == 8 and len(sizes) == 8
        assert all(size in (1, 2) for size in sizes[1:])
        assert sum(sizes) < 36

    def test_train_mode_tape_cost_per_layer(self):
        # the whole induction is one record in train and soft mode, so a
        # layer adds none; one leaf and infer mode record nothing
        rng = np.random.default_rng(15)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        for n in (1, 2, 3, 9):
            leaves = random_states(rng, n, 4)
            for leaf in leaves:
                leaf.h.requires_grad = True
            for mode, records in (("train", 1), ("soft", 1), ("infer", 0)):
                with Tape() as tape:
                    _, nodes = induce_tree(leaves, params, query, GumbelConfig(mode=mode),
                                           np.random.default_rng(n))
                names = [rec.name for rec in tape._records]
                assert names == ["tree_induction"] * (records if n > 1 else 0), (n, mode)
                if names:
                    assert tape._records[0].outputs == (*(node.h for node in nodes[n:]),
                                                        *(node.c for node in nodes[n:]))

    def test_non_finite_pre_activation_raises_in_every_mode(self):
        # tanh and sigmoid saturate, so only the pre-activation shows the overflow
        rng = np.random.default_rng(17)
        params = init_composition_params(rng, 2)
        params.weight.data[:] = 1e308
        leaves = random_states(rng, 4, 2)
        leaves[2].h.data[:] = 10.0
        for mode in MODES:
            with pytest.raises(NonFiniteError, match="tree_induction"), \
                    np.errstate(over="ignore", invalid="ignore"):
                induce_tree(leaves, params, init_query(rng, 2), GumbelConfig(mode=mode),
                            np.random.default_rng(0))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", ["pre-activation", "c", "logit"])
    def test_non_finite_value_at_a_later_merge_raises_in_its_compose(self, monkeypatch,
                                                                     case, mode):
        # three leaves whose two first-layer pairs are finite, while the one
        # pair of the merged node and the remaining leaf is not, whichever
        # pair the first merge takes; every check runs at every merge
        if case == "pre-activation":
            # h_left + h_right per gate row: 1.5 - 1 on the first layer, then
            # tanh(1) + 1.5 times 1e308 once a merged node is a child
            weight, bias, query = np.full((5, 2), 1e308), np.zeros(5), [1.0]
            leaf_h, leaf_c = [[1.5], [-1.0], [1.5]], [[0.0]] * 3
            message = "pre-activation has non-finite values"
        else:
            # zero weights and a bias of 800 saturate every gate and the
            # candidate to exactly 1: a parent's c is 1 + (c_left + c_right)
            weight, bias = np.zeros((5, 2)), np.full(5, 800.0)
            if case == "c":
                # 0.9e308 on the first layer, then 1 + 2 * 0.9e308
                query, leaf_h, leaf_c = [1.0], [[0.0]] * 3, [[0.9e308], [0.0], [0.9e308]]
            else:
                # h = tanh(c): [tanh(11), tanh(-4)] on the first layer, whose
                # logit is 1e308 * (1.0 - 0.9993), then about [1, 1], whose
                # logit is 2e308
                weight, bias = np.zeros((10, 4)), np.full(10, 800.0)
                query, leaf_h = [1e308, 1e308], [[0.0, 0.0]] * 3
                leaf_c = [[5.0, 15.0], [5.0, -20.0], [5.0, 15.0]]
            message = "tree_induction: produced non-finite values"
        params = CompositionParams(Tensor(weight), Tensor(bias))
        leaves = [state(h, c) for h, c in zip(leaf_h, leaf_c)]
        started, returned = [], []

        def spy(*args, real=parser.compose, **kwargs):
            started.append(len(args[0]))
            out = real(*args, **kwargs)
            returned.append(len(args[0]))
            return out

        monkeypatch.setattr(parser, "compose", spy)
        with pytest.raises(NonFiniteError, match=message), \
                np.errstate(over="ignore", invalid="ignore"):
            induce_tree(leaves, params, Tensor(query), GumbelConfig(mode=mode),
                        np.random.default_rng(0))
        assert started == [2, 1] and returned == [2]

    def test_infer_near_tie_at_a_later_merge_takes_the_softmax_argmax(self, monkeypatch):
        # Zero weights and a bias of 800 saturate every gate and the candidate
        # to exactly 1, so a parent's c is 1 + (c_left + c_right) and its h
        # tanh(c).  Leaf c values -1, 0.5, 0.5, -1 + a few ulps make (w2 w3)
        # the clear first merge; the second scores (w1 x) against (x w4),
        # whose logits differ in their last bits, the larger last, and whose
        # softmax rounds them to one value: the pick is the first, as the
        # softmax's argmax has it, not the logits' argmax
        params = CompositionParams(Tensor(np.zeros((5, 2))), Tensor(np.full(5, 800.0)))
        layers = []

        def spy(logits, config, real=parser.validity_scores):
            layers.append(logits.copy())
            return real(logits, config)

        monkeypatch.setattr(parser, "validity_scores", spy)
        last = -1.0
        for _ in range(64):
            last = np.nextafter(last, 0.0)
            layers.clear()
            leaves = [state([0.0], [c]) for c in (-1.0, 0.5, 0.5, last)]
            tree, _ = induce_tree(leaves, params, Tensor([0.1]), GumbelConfig(mode="infer"))
            second = layers[1]
            if second[1] > second[0]:
                break
        else:
            pytest.fail("no leaf value put the larger near-tied logit last")
        assert int(layers[0].argmax()) == 1 and layers[0].max() - np.sort(layers[0])[-2] > 1e-3
        assert int(stable_softmax(second).argmax()) == 0
        assert tree.merges == (1, 0, 0)

    def test_structural_validity_over_seeds_and_lengths(self):
        rng = np.random.default_rng(7)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        for n in range(1, 10):
            for seed in range(10):
                tokens = tuple(f"t{i}" for i in range(n))
                leaves = random_states(rng, n, 4)
                tree, nodes = induce_tree(leaves, params, query, GumbelConfig(),
                                          np.random.default_rng(seed), tokens=tokens)
                assert len(nodes) == 2 * n - 1
                reparsed, _ = parse_bracketed(export_bracketed(tree))
                assert reparsed == tree
                assert reparsed.tokens == tokens

    def test_brute_forced_query_controls_first_merge(self):
        # find a query that makes the (w1, w2) candidate win at every layer
        rng = np.random.default_rng(13)
        params = init_composition_params(rng, 2)
        leaves = random_states(rng, 3, 2)
        target = "( ( w1 w2 ) w3 )"
        for _ in range(200):
            query = Tensor(rng.normal(size=2) * 3.0)
            tree, _ = induce_tree(leaves, params, query, GumbelConfig(mode="infer"))
            if export_bracketed(tree) == target:
                break
        else:
            pytest.fail("no query among 200 candidates produced the target tree")

    def test_per_sentence_noise_flag(self):
        rng = np.random.default_rng(21)
        params = init_composition_params(rng, 4)
        query = init_query(rng, 4)
        leaves = random_states(rng, 6, 4)
        per_layer, _ = induce_tree(leaves, params, query,
                                   GumbelConfig(noise_per_layer=True),
                                   np.random.default_rng(5))
        per_sentence, _ = induce_tree(leaves, params, query,
                                      GumbelConfig(noise_per_layer=False),
                                      np.random.default_rng(5))
        assert len(per_layer.merges) == len(per_sentence.merges) == 5


def near_tied_leaves(rng, n, hidden, palette):
    """n leaves drawn from ``palette`` states, each moved by 0-3 units in
    the last place, so that many candidates tie exactly or nearly."""
    leaves = []
    for _ in range(n):
        h, c = palette[rng.integers(len(palette))]
        for _ in range(int(rng.integers(4))):
            h = np.nextafter(h, np.inf)
        leaves.append(state(h, c))
    return leaves


def node_bytes(nodes):
    return b"".join(node.h.data.tobytes() + node.c.data.tobytes() for node in nodes)


def parser_concat(nodes):
    """Every node's h, then every node's c, as one vector."""
    return concat([*(node.h for node in nodes), *(node.c for node in nodes)])


@st.composite
def lockstep_groups(draw):
    """Sentences of 1, 2 or up to 60 leaves, random or near-tied, and a
    shuffled partition of them into groups."""
    seed = draw(st.integers(0, 2**32 - 1))
    lengths = draw(st.lists(st.one_of(st.sampled_from([1, 2]), st.integers(1, 60)),
                            min_size=1, max_size=6))
    tied = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    order = draw(st.permutations(range(len(lengths))))
    cuts = sorted(draw(st.sets(st.integers(1, len(lengths)), max_size=3)) | {len(lengths)})
    return seed, lengths, tied, order, cuts


class TestLockstepInduction:
    @given(lockstep_groups())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_a_group_induces_each_sentence_as_alone(self, drawn):
        # merges and node bytes match inducing each sentence alone, in one
        # group and in shuffled groups, because every matrix product stays
        # per sentence and everything else is elementwise
        seed, lengths, tied, order, cuts = drawn
        rng = np.random.default_rng(seed)
        hidden = 3
        params, query = init_composition_params(rng, hidden), init_query(rng, hidden)
        palette = [(rng.normal(size=hidden), rng.normal(size=hidden)) for _ in range(2)]
        sentences = [near_tied_leaves(rng, n, hidden, palette) if tie
                     else random_states(rng, n, hidden) for n, tie in zip(lengths, tied)]
        config = GumbelConfig(mode="infer")
        alone = [induce_tree(leaves, params, query, config) for leaves in sentences]
        together = induce_tree(sentences, params, query, config)
        shuffled = [None] * len(sentences)
        start = 0
        for stop in cuts:
            members = order[start:stop]
            induced = induce_tree([sentences[i] for i in members], params, query, config)
            for i, result in zip(members, induced):
                shuffled[i] = result
            start = stop
        for i, (tree, nodes) in enumerate(alone):
            assert len(nodes) == 2 * lengths[i] - 1 and nodes[:lengths[i]] == sentences[i]
            for other_tree, other_nodes in (together[i], shuffled[i]):
                assert other_tree == tree
                assert node_bytes(other_nodes) == node_bytes(nodes)

    def test_ties_in_a_group_take_the_softmax_argmax(self, monkeypatch):
        # the near tie of test_infer_near_tie_at_a_later_merge_takes_the_softmax_argmax,
        # between two sentences of other lengths
        params = CompositionParams(Tensor(np.zeros((5, 2))), Tensor(np.full(5, 800.0)))
        last = -1.0
        for _ in range(64):
            last = np.nextafter(last, 0.0)
            tied = [state([0.0], [c]) for c in (-1.0, 0.5, 0.5, last)]
            if induce_tree(tied, params, Tensor([0.1]), GumbelConfig(mode="infer"))[0].merges \
                    == (1, 0, 0):
                break
        rng = np.random.default_rng(4)
        group = [random_states(rng, 6, 1), tied, random_states(rng, 2, 1)]
        spied = []

        def spy(scores, config, real=parser.st_gumbel_select, **kwargs):
            spied.append(len(scores))
            return real(scores, config, **kwargs)

        monkeypatch.setattr(parser, "st_gumbel_select", spy)
        trees = [tree for tree, _ in induce_tree(group, params, Tensor([0.1]),
                                                 GumbelConfig(mode="infer"))]
        assert trees[1].merges == (1, 0, 0)
        # layer by layer, one selection per sentence still being induced
        assert spied == [5, 3, 1, 4, 2, 3, 1, 2, 1]

    def test_group_of_one_word_sentences_composes_nothing(self, monkeypatch):
        rng = np.random.default_rng(2)
        calls = []
        monkeypatch.setattr(parser, "compose", lambda *args, **kwargs: calls.append(args))
        sentences = [random_states(rng, 1, 4) for _ in range(3)]
        induced = induce_tree(sentences, init_composition_params(rng, 4), init_query(rng, 4),
                              GumbelConfig(mode="infer"), tokens=[("a",), ("b",), ("c",)])
        assert [(tree.n, tree.merges, tree.tokens) for tree, _ in induced] == [
            (1, (), ("a",)), (1, (), ("b",)), (1, (), ("c",))]
        assert [nodes for _, nodes in induced] == sentences and not calls

    @pytest.mark.parametrize("n", [2, 3, 9, 40])
    def test_train_under_constant_noise_gives_the_infer_merges_and_node_bytes(self,
                                                                            monkeypatch, n):
        # noise from uniform draws of 0.5 adds one constant to every
        # log-probability, so away from near ties train mode picks infer's
        # argmax and copies the same candidate bytes: train and infer share
        # one loop, alone and with the sentence one member of an infer group
        rng = np.random.default_rng(n)
        hidden = 4
        params, query = init_composition_params(rng, hidden), init_query(rng, hidden)
        sentence = random_states(rng, n, hidden)
        group = [random_states(rng, 6, hidden), sentence, random_states(rng, 3, hidden)]
        gaps = []

        def spy(logits, config, real=parser.validity_scores):
            if len(logits) > 1:
                top = np.sort(logits)
                gaps.append(top[-1] - top[-2])
            return real(logits, config)

        monkeypatch.setattr(parser, "validity_scores", spy)
        alone = induce_tree(sentence, params, query, GumbelConfig(mode="infer"))
        assert min(gaps, default=1.0) > 1e-6  # no near tie
        tree, nodes = induce_tree(sentence, params, query, GumbelConfig(mode="train"),
                                  FixedUniform(np.full(n * (n - 1) // 2, 0.5)))
        grouped = induce_tree(group, params, query, GumbelConfig(mode="infer"))[1]
        for infer_tree, infer_nodes in (alone, grouped):
            assert tree == infer_tree
            assert node_bytes(nodes) == node_bytes(infer_nodes)

    @given(lockstep_groups(), st.sampled_from(["train", "soft"]), st.booleans())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_a_noisy_group_gives_each_sentence_its_merges_nodes_and_gradients_alone(
            self, drawn, mode, noise_per_layer):
        # each sentence draws from its own generator, so alone and in any
        # group it makes the same merges and node bytes, and its leaves get
        # the same gradient bytes; under one GradientBatch each parameter
        # gets the bytes of the sentences' own records replayed last to first
        seed, lengths, tied, order, _ = drawn
        rng = np.random.default_rng(seed)
        hidden = 3
        params, query = init_composition_params(rng, hidden), init_query(rng, hidden)
        palette = [(rng.normal(size=hidden), rng.normal(size=hidden)) for _ in range(2)]
        sentences = [near_tied_leaves(rng, n, hidden, palette) if tie
                     else random_states(rng, n, hidden) for n, tie in zip(lengths, tied)]
        probes = [rng.normal(size=2 * (2 * n - 1) * hidden) for n in lengths]
        config = GumbelConfig(temperature=0.7, mode=mode, noise_per_layer=noise_per_layer)

        def run(members):
            """Merges, node bytes, leaf gradients and parameter gradients of
            the sentences ``members``, alone when it is one int."""
            group = [members] if isinstance(members, int) else members
            leaves = [[NodeState(Tensor(leaf.h.data, requires_grad=True),
                                 Tensor(leaf.c.data, requires_grad=True))
                       for leaf in sentences[i]] for i in group]
            rngs = [np.random.default_rng([seed, i]) for i in group]
            with Tape(batch) as tape:
                if isinstance(members, int):
                    induced = [induce_tree(leaves[0], params, query, config, rngs[0])]
                else:
                    induced = induce_tree(leaves, params, query, config, rngs)
                loss = None
                for i, (_, nodes) in zip(group, induced):
                    term = dot(Tensor(probes[i]), parser_concat(nodes))
                    loss = term if loss is None else add(loss, term)
                backward(tape, loss)
            return {i: (tree.merges, node_bytes(nodes),
                        b"".join(leaf.h.grad.tobytes() + leaf.c.grad.tobytes()
                                 for leaf in sentence_leaves) if len(nodes) > 1 else b"")
                    for i, (tree, nodes), sentence_leaves in zip(group, induced, leaves)}

        def parameter_bytes(runs):
            for p in (params.weight, params.bias, query):
                p.grad = None
            results = {}
            for members in runs:
                results.update(run(members))
            batch.flush()
            return results, [p.grad.tobytes() if p.grad is not None else None
                             for p in (params.weight, params.bias, query)]

        batch = GradientBatch()
        alone, alone_grads = parameter_bytes(reversed(range(len(lengths))))
        together, together_grads = parameter_bytes([list(range(len(lengths)))])
        shuffled, _ = parameter_bytes([order[:1], *([list(order[1:])] if order[1:] else [])])
        assert together == alone and shuffled == alone
        assert together_grads == alone_grads

    @pytest.mark.parametrize("mode", ["train", "soft"])
    def test_a_noisy_group_gives_each_sentence_its_bits_alone_at_paper_size(self, mode):
        # H = 100: each sentence's merges and node bytes, and each gradient
        # the record hands back for it, are those of the sentence alone
        rng = np.random.default_rng(11)
        hidden = 100
        params, query = init_composition_params(rng, hidden), init_query(rng, hidden)
        group = [random_states(rng, n, hidden) for n in (2, 9, 25, 1, 14, 25)]
        config = GumbelConfig(mode=mode)

        def record(sentences, first):
            with Tape() as tape:
                induced = induce_tree(sentences, params, query, config,
                                      [np.random.default_rng([3, first + i])
                                       for i in range(len(sentences))])
            grads = ()
            if tape._records:
                rec = tape._records[0]
                # a function of each output's own values, wherever it sits
                grads = rec.grad_fn(tuple(np.cos(o.data) for o in rec.outputs))
            results, at = [], 0
            for tree, nodes in reversed(induced):  # the record's last sentence first
                width = 3 + 2 * tree.n if tree.n > 1 else 0
                part = grads[at:at + width]
                at += width
                results.append((tree.merges, node_bytes(nodes), b"".join(
                    g.left.tobytes() + g.right.tobytes() if isinstance(g, _Outer)
                    else g.tobytes() for g in part)))
            return results[::-1]

        together = record(group, 0)
        for i, leaves in enumerate(group):
            assert together[i] == record([leaves], i)[0]

    @pytest.mark.parametrize("mode", ["train", "soft"])
    def test_a_noisy_mode_names_a_missing_generator_alone_and_in_a_group(self, mode):
        rng = np.random.default_rng(2)
        params, query = init_composition_params(rng, 2), init_query(rng, 2)
        sentence = random_states(rng, 3, 2)
        config = GumbelConfig(mode=mode)
        missing = f"induce_tree: {mode} mode .* needs a generator \\(rng\\) for sentence"
        with pytest.raises(ValueError, match=f"{missing} 0"):
            induce_tree(sentence, params, query, config)
        # the check covers every sentence before any draws; a one-word
        # sentence draws nothing and needs none
        given = np.random.default_rng(5)
        before = given.bit_generator.state
        group = [random_states(rng, 4, 2), random_states(rng, 1, 2), sentence]
        with pytest.raises(ValueError, match=f"{missing} 2"):
            induce_tree(group, params, query, config, [given, None, None])
        assert given.bit_generator.state == before
        induced = induce_tree(group, params, query, config, [given, None, given])
        assert [tree.n for tree, _ in induced] == [4, 1, 3]
        for wrong in (given, [given, given]):
            with pytest.raises(ValueError, match="a group of 3 sentences takes one generator "
                                                 "per sentence"):
                induce_tree(group, params, query, config, wrong)

    def test_an_empty_sentence_in_a_group_raises(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeError, match="induce_tree: empty sentence"):
            induce_tree([random_states(rng, 3, 2), []], init_composition_params(rng, 2),
                        init_query(rng, 2), GumbelConfig(mode="infer"))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("case", ["pre-activation", "c"])
    def test_a_non_finite_value_in_any_sentence_raises(self, bad, case):
        # three sentences of 3, 4 and 2 leaves; one of them overflows at its
        # first layer, whichever it is
        weight = np.full((5, 2), 1.0)
        params = CompositionParams(Tensor(weight), Tensor(np.zeros(5)))
        rng = np.random.default_rng(6)
        group = [[state(rng.normal(size=1), rng.normal(size=1)) for _ in range(n)]
                 for n in (3, 4, 2)]
        if case == "pre-activation":
            group[bad][0] = state([1e308], [0.0])
            group[bad][1] = state([1e308], [0.0])
            message = "pre-activation has non-finite values"
        else:
            group[bad][0] = state([0.0], [1e308])
            group[bad][1] = state([0.0], [1e308])
            params.bias.data[:] = 800.0  # every gate saturates to exactly 1
            message = "tree_induction: produced non-finite values"
        with pytest.raises(NonFiniteError, match=message), \
                np.errstate(over="ignore", invalid="ignore"):
            induce_tree(group, params, Tensor([1.0]), GumbelConfig(mode="infer"))

    @pytest.mark.parametrize("bad", [0, 1])
    def test_an_overflow_at_a_later_layer_in_any_sentence_raises(self, bad):
        # every gate is exactly 1, so a parent's c is c_left + c_right + 1:
        # the end leaves of sentence ``bad`` hold 0.9e308 each, which
        # overflows only once a lockstep layer composes a pair holding both
        params = CompositionParams(Tensor(np.full((5, 2), 1.0)), Tensor(np.full(5, 800.0)))
        group = [[state([0.0], [0.0]) for _ in range(n)] for n in (3, 4, 2)]
        group[bad][0] = group[bad][-1] = state([0.0], [0.9e308])
        config = GumbelConfig(mode="infer")
        induce_tree(group[:bad] + group[bad + 1:], params, Tensor([1.0]), config)
        with pytest.raises(NonFiniteError, match="tree_induction: produced non-finite values"), \
                np.errstate(over="ignore", invalid="ignore"):
            induce_tree(group, params, Tensor([1.0]), config)
