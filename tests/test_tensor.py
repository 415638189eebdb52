"""Engine tests, and the fused ops of ``parser`` and ``attention`` against the
elementary-op chains they replace: forward values, backward rules, error
contracts."""

import numpy as np
import pytest

import ast
import inspect
from pathlib import Path

from treeattn import tensor
from treeattn.attention import AttentionParams, attend
from treeattn.tensor import (NonFiniteError, ShapeError, Tape, Tensor, absolute,
                             add, backward, concat, cross_entropy,
                             dot, finite_difference_check, matmul, mul, relu,
                             softmax, sub, take_rows)
from treeattn.parser import (CompositionParams, GruParams, GumbelConfig, NodeState, compose,
                             gru_sequence, induce_tree, leaf_states)

import elementary
from elementary import exp, log, mean, sigmoid, split, take_row, tanh, weighted_sum
from conftest import (GRU_WEIGHTS, assert_last_bits, gru_values, gumbel_softmax,
                      max_op_gradient_error, op_gradient_cases, unfused_induce_tree)


class TestForward:
    def test_sigmoid_midpoint(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_softmax_equal_logits(self):
        out = softmax(Tensor([1.7, 1.7, 1.7]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_relu_definition(self):
        out = relu(Tensor([-2.5, 3.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 3.0, 0.0])

    def test_abs(self):
        np.testing.assert_array_equal(absolute(Tensor([-1.5, 2.0])).data, [1.5, 2.0])

    def test_matmul_vector_and_matrix(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(m, Tensor([1.0, 1.0])).data, [3.0, 7.0])
        np.testing.assert_array_equal(
            matmul(m, Tensor([[1.0, 0.0], [0.0, 1.0]])).data, m.data)

    def test_concat_vectors_and_scalars(self):
        out = concat([Tensor([1.0, 2.0]), Tensor(3.0), Tensor([4.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0, 4.0])

    def test_weighted_sum(self):
        out = weighted_sum([Tensor([1.0, 0.0]), Tensor([0.0, 1.0])],
                           Tensor([2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_mean_and_dot(self):
        assert mean(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 2.5
        assert dot(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).item() == 11.0

    def test_cross_entropy_uniform_logits(self):
        for k in (2, 3, 7):
            loss = cross_entropy(Tensor(np.full(k, 0.3)), 0)
            assert loss.item() == pytest.approx(np.log(k), abs=1e-12)

    def test_split_and_take_row(self):
        pieces = split(Tensor([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), 3)
        assert [p.data.tolist() for p in pieces] == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        np.testing.assert_array_equal(
            take_row(Tensor([[1.0, 2.0], [3.0, 4.0]]), 1).data, [3.0, 4.0])


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            loss = mul(x, x)
            backward(tape, loss)
        assert x.grad == pytest.approx(6.0)

    def test_product_rule_through_dot(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            backward(tape, dot(a, b))
        np.testing.assert_array_equal(a.grad, [3.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 2.0])

    def test_softmax_cross_entropy_gradient(self):
        logits = Tensor([0.0, 0.0], requires_grad=True)
        with Tape() as tape:
            backward(tape, cross_entropy(logits, 0))
        np.testing.assert_allclose(logits.grad, [-0.5, 0.5], atol=1e-15)

    def test_accumulation_over_multiple_uses(self):
        # y = x*x + x so dy/dx = 2x + 1, three uses of the same tensor
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = mean(add(mul(x, x), x))
            backward(tape, loss)
        assert x.grad[0] == pytest.approx(5.0)

    def test_accumulation_is_sum_of_single_uses(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=4)
        r1, r2 = rng.normal(size=4), rng.normal(size=4)
        x = Tensor(v, requires_grad=True)
        with Tape() as tape:
            backward(tape, add(dot(x, Tensor(r1)), dot(x, Tensor(r2))))
        np.testing.assert_allclose(x.grad, r1 + r2, atol=1e-15)

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = add(x, x)
            with pytest.raises(ShapeError, match="scalar"):
                backward(tape, y)

    def test_backward_requires_loss_on_tape(self):
        x = Tensor(1.0, requires_grad=True)
        with Tape() as tape:
            mul(x, x)
            with pytest.raises(ValueError, match="not produced on this tape"):
                backward(tape, Tensor(5.0))

    def test_no_tracking_without_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = mul(x, x)
        assert not y.requires_grad

    def test_concat_keeps_its_own_copy_of_the_parts(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        parts = [a, b]
        with Tape() as tape:
            out = concat(parts)
            parts.pop()
            backward(tape, dot(out, Tensor([4.0, 5.0])))
        np.testing.assert_array_equal(a.grad, [4.0])
        np.testing.assert_array_equal(b.grad, [5.0])

    def test_relu_and_abs_subgradient_zero_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            backward(tape, mean(relu(x)))
        assert x.grad[0] == 0.0
        x = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            backward(tape, mean(absolute(x)))
        assert x.grad[0] == 0.0


class TestDeferredWeightGradients:
    def test_matvec_weight_accumulates_sum_of_outer_products(self):
        rng = np.random.default_rng(5)
        start = rng.normal(size=(4, 3))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w.grad = start.copy()
        m = Tensor(rng.normal(size=(3, 2)))
        expected = start.copy()
        for uses in (3, 2):  # two backward calls on fresh tapes
            xs = [rng.normal(size=3) for _ in range(uses)]
            rs = [rng.normal(size=4) for _ in range(uses)]
            r_mat = rng.normal(size=(4, 2))
            with Tape() as tape:
                terms = [dot(matmul(w, Tensor(x)), Tensor(r)) for x, r in zip(xs, rs)]
                # a 2-D product of the same weight takes the dense path
                terms.append(mean(mul(matmul(w, m), Tensor(r_mat))))
                loss = terms[0]
                for term in terms[1:]:
                    loss = add(loss, term)
                backward(tape, loss)
            expected += sum(np.outer(r, x) for x, r in zip(xs, rs))
            expected += (r_mat / r_mat.size) @ m.data.T
            np.testing.assert_allclose(w.grad, expected, rtol=0, atol=1e-12)

    def test_matrix_made_on_the_tape_gets_its_gradient_before_replay(self):
        rng = np.random.default_rng(6)
        b = Tensor(rng.normal(size=(3, 4)))
        xs = [Tensor(rng.normal(size=4)) for _ in range(3)]
        r = Tensor(rng.normal(size=3))

        def f(a):
            made = matmul(a, b)  # a matrix produced on the tape
            loss = dot(tanh(matmul(made, xs[0])), r)
            for x in xs[1:]:
                loss = add(loss, dot(tanh(matmul(made, x)), r))
            return loss

        assert finite_difference_check(f, Tensor(rng.normal(size=(3, 3)))) < 1e-8

    def test_repeated_token_row_gets_sum_of_both_lookups(self):
        rng = np.random.default_rng(7)
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        sentence = [4, 1, 4, 2]
        w = Tensor(rng.normal(size=(3, 3)))
        with Tape() as tape:
            rows = [take_row(table, i) for i in sentence]
            state = tanh(rows[0])
            for row in rows[1:]:
                state = tanh(add(matmul(w, state), row))
            backward(tape, dot(state, Tensor(rng.normal(size=3))))
        assert table.grad.shape == table.shape
        np.testing.assert_array_equal(table.grad[4], rows[0].grad + rows[2].grad)
        np.testing.assert_array_equal(table.grad[1], rows[1].grad)
        np.testing.assert_array_equal(table.grad[2], rows[3].grad)
        assert not table.grad[[0, 3, 5]].any()


    def test_matmul_hands_back_none_for_a_constant_operand(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x, m = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=(4, 2)))
        left = Tensor(rng.normal(size=(2, 3)))
        r_vec, r_mat = rng.normal(size=3), rng.normal(size=(3, 2))
        with Tape() as tape:
            loss = add(dot(matmul(w, x), Tensor(r_vec)),
                       mean(mul(matmul(w, m), Tensor(r_mat))))
            loss = add(loss, mean(matmul(left, w)))
            by_shape = {(rec.inputs[0].shape, rec.inputs[1].shape): rec
                        for rec in tape._records if rec.name == "matmul"}
            backward(tape, loss)
        matvec, right_const, left_const = (by_shape[((3, 4), (4,))],
                                           by_shape[((3, 4), (4, 2))],
                                           by_shape[((2, 3), (3, 4))])
        assert matvec.grad_fn(np.ones(3))[1] is None
        assert right_const.grad_fn(np.ones((3, 2)))[1] is None
        assert left_const.grad_fn(np.ones((2, 4)))[0] is None
        expected = (np.outer(r_vec, x.data) + (r_mat / r_mat.size) @ m.data.T
                    + left.data.T @ np.full((2, 4), 1.0 / 8))
        np.testing.assert_allclose(w.grad, expected, rtol=0, atol=1e-12)


class TestErrors:
    def test_shape_error_names_operation_and_shapes(self):
        with pytest.raises(ShapeError, match=r"add.*\(2,\).*\(3,\)"):
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError, match="softmax"):
            softmax(Tensor([[1.0]]))
        with pytest.raises(ShapeError, match="cross_entropy"):
            cross_entropy(Tensor([0.0, 0.0]), 2)
        with pytest.raises(ShapeError, match="split"):
            split(Tensor([1.0, 2.0, 3.0]), 2)
        with pytest.raises(ShapeError, match="weighted_sum"):
            weighted_sum([Tensor([1.0])], Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError, match="concat"):
            concat([])

    def test_non_finite_is_hard_error(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])
        with pytest.raises(NonFiniteError, match="exp"):
            exp(Tensor([1000.0]))
        with pytest.raises(NonFiniteError, match="log"):
            log(Tensor([0.0]))
        with pytest.raises(NonFiniteError, match="log"):
            log(Tensor([-1.0]))


class TestDeterminism:
    def test_bit_identical_outputs_and_gradients(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            v = Tensor(rng.normal(size=5), requires_grad=True)
            with Tape() as tape:
                out = mean(tanh(matmul(x, v)))
                backward(tape, out)
            return out.item(), x.grad.copy(), v.grad.copy()

        o1, gx1, gv1 = run()
        o2, gx2, gv2 = run()
        assert o1 == o2
        assert (gx1 == gx2).all() and (gv1 == gv2).all()


class TestFiniteDifference:
    def test_quadratic_is_exact_to_rounding(self):
        err = finite_difference_check(lambda x: mul(x, x), Tensor(3.0), 1e-5)
        assert err < 1e-7

    def test_abs_away_from_zero(self):
        err = finite_difference_check(lambda x: mean(absolute(x)), Tensor([1.0]), 1e-5)
        assert err < 1e-7

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda x: mul(x, x), Tensor(1.0), 0.0)

    def test_every_cataloged_op_below_1e6(self):
        errors = max_op_gradient_error(seed=3)
        for name, err in errors.items():
            assert err < 1e-6, f"{name}: {err}"


class TestMultiOutputRecords:
    def test_one_record_and_one_gradient_per_output(self):
        x = Tensor([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], requires_grad=True)
        with Tape() as tape:
            first, second, third = split(x, 3)
            loss = add(dot(first, Tensor([1.0, 2.0])), dot(third, Tensor([3.0, 4.0])))
            [record] = [rec for rec in tape._records if rec.name == "split"]
            seen = []
            replay = record.grad_fn
            record.grad_fn = lambda grads: seen.append(grads) or replay(grads)
            backward(tape, loss)
        assert record.outputs == (first, second, third)
        [(g_first, g_second, g_third)] = seen
        assert g_second is None
        assert g_first.tolist() == [1.0, 2.0] and g_third.tolist() == [3.0, 4.0]
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 0.0, 0.0, 3.0, 4.0])

    def test_record_with_no_used_output_is_skipped(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            split(x, 2)
            tape._records[0].grad_fn = None  # replaying it would raise
            backward(tape, dot(x, Tensor([3.0, 4.0])))
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])

    def test_every_output_gets_its_deferred_gradient_before_replay(self):
        # no op in the catalog makes several matrices, so the test makes one
        def scaled_copies(x):
            return tensor._emit("scaled_copies", (x,), (2.0 * x.data, 3.0 * x.data),
                                lambda grads: (3.0 * grads[1],))

        x = Tensor(np.eye(2), requires_grad=True)
        v, r = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        with Tape() as tape:
            _, tripled = scaled_copies(x)
            backward(tape, dot(matmul(tripled, Tensor(v)), Tensor(r)))
        np.testing.assert_array_equal(x.grad, 3.0 * np.outer(r, v))

    def test_loss_may_be_any_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            _, last = split(x, 2)
            backward(tape, mean(last))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def unfused_gru_step(x, state, weights):
    """One GRU step written with elementary ops; ``weights`` in GRU_WEIGHTS order."""
    u_in, u_state, u_bias, r_in, r_state, r_bias, c_in, c_state, c_bias = weights
    update = sigmoid(add(add(matmul(u_in, x), matmul(u_state, state)), u_bias))
    reset = sigmoid(add(add(matmul(r_in, x), matmul(r_state, state)), r_bias))
    fresh = tanh(add(add(matmul(c_in, x), matmul(c_state, mul(reset, state))), c_bias))
    ones = Tensor(np.ones(state.shape[0]))
    return add(mul(sub(ones, update), fresh), mul(update, state))


def unfused_gru_sequence(weights, inputs, reverse=False):
    """The per-position state tensors, in input order."""
    state = Tensor(np.zeros(weights[2].shape[0]))
    states = [None] * len(inputs)
    order = range(len(inputs) - 1, -1, -1) if reverse else range(len(inputs))
    for t in order:
        state = unfused_gru_step(inputs[t], state, weights)
        states[t] = state
    return states


class TestGruSequence:
    def make_case(self, seed, n, hidden=4, d_in=5, vocab=6):
        """Weights that require gradients and a fine-tuned embedding table;
        the sentence repeats a token when it is long enough."""
        rng = np.random.default_rng(seed)
        values, _ = gru_values(rng, hidden, d_in, 0, scale=0.8)
        weights = [Tensor(values[name], requires_grad=True) for name in GRU_WEIGHTS]
        table = Tensor(rng.normal(size=(vocab, d_in)), requires_grad=True)
        tokens = [int(i) for i in rng.integers(0, vocab, size=n)]
        if n > 2:
            tokens[-1] = tokens[0]
        probe = rng.normal(size=(n, hidden))
        return weights, table, tokens, probe

    def gradients(self, fused, weights, table, tokens, probe, reverse):
        for t in (*weights, table):
            t.grad = None
        with Tape() as tape:
            if fused:
                out = gru_sequence(GruParams(*weights), take_rows(table, tokens), reverse)
                rows = [take_row(out, t) for t in range(len(tokens))]
            else:
                xs = [take_row(table, i) for i in tokens]
                rows = unfused_gru_sequence(weights, xs, reverse)
            loss = dot(rows[0], Tensor(probe[0]))
            for row, r in zip(rows[1:], probe[1:]):
                loss = add(loss, dot(row, Tensor(r)))
            backward(tape, loss)
        values = np.stack([row.data for row in rows])
        return values, [t.grad.copy() for t in (*weights, table)]

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_unfused_oracle(self, n, reverse):
        # forward values to the last bits, bit-identical on a repeated call
        for seed in range(3):
            case = self.make_case(seed, n)
            fused, fused_grads = self.gradients(True, *case, reverse)
            again, again_grads = self.gradients(True, *case, reverse)
            oracle, oracle_grads = self.gradients(False, *case, reverse)
            np.testing.assert_array_equal(again, fused)
            assert_last_bits(fused, oracle)
            for name, got, repeat, want in zip((*GRU_WEIGHTS, "embedding"),
                                               fused_grads, again_grads, oracle_grads):
                np.testing.assert_array_equal(repeat, got)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                           err_msg=name)

    def test_one_tape_record_per_direction(self):
        weights, table, tokens, _ = self.make_case(0, 5)
        xs = Tensor(table.data[tokens])
        with Tape() as tape:
            gru_sequence(GruParams(*weights), xs)
            gru_sequence(GruParams(*weights), xs, reverse=True)
        assert [rec.name for rec in tape._records] == ["gru_sequence"] * 2

    def test_no_input_gradients_for_frozen_inputs(self):
        weights, table, tokens, _ = self.make_case(1, 4)
        xs = Tensor(table.data[tokens])
        with Tape() as tape:
            gru_sequence(GruParams(*weights), xs)
        grads = tape._records[0].grad_fn(np.ones((4, 4)))
        assert len(grads) == 9 + 1
        assert all(g is not None for g in grads[:9])
        assert grads[9] is None

    def test_pre_activation_overflow_raises(self):
        # the gates saturate, so only the pre-activation shows the overflow;
        # the first step is finite, the second overflows
        weights, _, _, _ = self.make_case(2, 2, hidden=2, d_in=3)
        weights[GRU_WEIGHTS.index("cand_in")].data[:] = 1e308
        xs = Tensor([np.zeros(3), np.full(3, 10.0)])
        for reverse in (False, True):
            with pytest.raises(NonFiniteError, match="gru_sequence"), \
                    np.errstate(over="ignore", invalid="ignore"):
                gru_sequence(GruParams(*weights), xs, reverse)

    def test_shape_errors_name_op(self):
        weights, table, tokens, _ = self.make_case(3, 3)
        xs = Tensor(table.data[tokens])
        params = GruParams(*weights)
        with pytest.raises(ShapeError, match="gru_sequence"):
            gru_sequence(params, Tensor(np.zeros((0, 5))))
        with pytest.raises(ShapeError, match="gru_sequence"):
            gru_sequence(params, Tensor(xs.data[0]))
        with pytest.raises(ShapeError, match="gru_sequence"):
            gru_sequence(params, Tensor(np.zeros((3, 4))))
        swapped = list(weights)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        with pytest.raises(ShapeError, match="gru_sequence"):
            gru_sequence(GruParams(*swapped), xs)


def gradients_of(leaves, run):
    """``run()``'s outputs and each leaf's gradient of a loss that reads
    every output through a fixed random probe."""
    rng = np.random.default_rng(99)
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        outs = run()
        loss = None
        for out in outs:
            term = dot(concat([out]), Tensor(rng.normal(size=out.data.size)))
            loss = term if loss is None else add(loss, term)
        backward(tape, loss)
    return [out.data for out in outs], [t.grad for t in leaves]


def unfused_gumbel_softmax(probs, noise, temperature, perturb_probs):
    """The relaxed selection written with elementary ops: the index and the
    soft weights."""
    base = probs if perturb_probs else log(probs)
    logits = mul(add(base, Tensor(noise)), Tensor(np.full(noise.size, 1.0 / temperature)))
    return int(np.argmax(logits.data)), softmax(logits)


class TestGumbelSoftmax:
    def inputs(self, seed, k=5):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k))
        return Tensor(probs, requires_grad=True), rng.gumbel(size=k), float(
            rng.choice([0.5, 1.0, 2.0]))

    def test_soft_matches_unfused_oracle(self):
        for seed in range(6):
            probs, noise, tau = self.inputs(seed)
            for perturb in (False, True):
                index, oracle = unfused_gumbel_softmax(probs, noise, tau, perturb)
                fused, fused_grads = gradients_of([probs], lambda: [gumbel_softmax(
                    probs, noise, tau, hard=False, perturb_probs=perturb)[1]])
                _, oracle_grads = gradients_of([probs], lambda: [unfused_gumbel_softmax(
                    probs, noise, tau, perturb)[1]])
                assert gumbel_softmax(probs, noise, tau, False, perturb)[0] == index
                np.testing.assert_array_equal(fused[0], oracle.data)
                np.testing.assert_array_equal(fused_grads[0], oracle_grads[0])

    def test_hard_forward_exact_backward_relaxed(self):
        for seed in range(6):
            probs, noise, tau = self.inputs(10 + seed)
            for perturb in (False, True):
                index, _ = unfused_gumbel_softmax(probs, noise, tau, perturb)
                hard, hard_grads = gradients_of([probs], lambda: [gumbel_softmax(
                    probs, noise, tau, hard=True, perturb_probs=perturb)[1]])
                _, soft_grads = gradients_of([probs], lambda: [gumbel_softmax(
                    probs, noise, tau, hard=False, perturb_probs=perturb)[1]])
                np.testing.assert_array_equal(hard[0], np.eye(probs.shape[0])[index])
                np.testing.assert_array_equal(hard_grads[0], soft_grads[0])

    def test_ties_go_to_the_lowest_index(self):
        index, out = gumbel_softmax(Tensor(np.full(4, 0.25)), np.zeros(4), 1.0, hard=True)
        assert index == 0 and out.data.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_one_tape_record(self):
        probs, noise, tau = self.inputs(0)
        for hard in (True, False):
            with Tape() as tape:
                gumbel_softmax(probs, noise, tau, hard)
            assert [rec.name for rec in tape._records] == ["gumbel_softmax"]

    def test_non_finite_logits_raise_where_the_elementary_ops_do(self):
        zero = Tensor([0.0, 0.6, 0.4])
        with pytest.raises(NonFiniteError, match="log"):
            unfused_gumbel_softmax(zero, np.zeros(3), 1.0, False)
        with pytest.raises(NonFiniteError, match="gumbel_softmax"):
            gumbel_softmax(zero, np.zeros(3), 1.0, hard=True)
        assert gumbel_softmax(zero, np.zeros(3), 1.0, True, perturb_probs=True)[0] == 1
        # a tiny temperature overflows the scaled logits
        half = Tensor([0.5, 0.5])
        with pytest.raises(NonFiniteError, match="mul"), np.errstate(over="ignore"):
            unfused_gumbel_softmax(half, np.array([3.0, 1.0]), 1e-308, False)
        with pytest.raises(NonFiniteError, match="gumbel_softmax"):
            gumbel_softmax(half, np.array([3.0, 1.0]), 1e-308, hard=False)

    def test_shape_errors_name_op(self):
        with pytest.raises(ShapeError, match="gumbel_softmax"):
            gumbel_softmax(Tensor([0.5, 0.5]), np.zeros(3), 1.0, hard=True)
        with pytest.raises(ShapeError, match="gumbel_softmax"):
            gumbel_softmax(Tensor([[1.0]]), np.zeros(1), 1.0, hard=True)


def unfused_attention_pool(embed_weight, score_weight, nodes):
    """Attention pooling written with elementary ops, one node at a time."""
    logits = concat([matmul(score_weight, relu(matmul(embed_weight, h))) for h in nodes])
    weights = softmax(logits)
    return weighted_sum(nodes, weights), weights


def attention_pool(embed_weight, score_weight, nodes):
    """``attend``'s one record: the pooled vector and the attention weights."""
    out = attend(nodes, AttentionParams(embed_weight, score_weight))
    return out.sentence, out.weights


class TestAttentionPool:
    def inputs(self, seed, m, hidden=4, d_attn=6, scale=1.0):
        rng = np.random.default_rng(seed)
        weights = [Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)
                   for shape in [(d_attn, hidden), (1, d_attn)]]
        nodes = [Tensor(rng.normal(scale=scale, size=hidden), requires_grad=True)
                 for _ in range(m)]
        return weights, nodes

    def test_matches_unfused_oracle(self):
        for seed, m in enumerate([1, 2, 5, 9]):
            (embed, score), nodes = self.inputs(seed, m, scale=1.5)
            leaves = [embed, score, *nodes]
            for pick in (slice(None), slice(0, 1)):  # both outputs read, or the vector only
                fused, fused_grads = gradients_of(
                    leaves, lambda: attention_pool(embed, score, nodes)[pick])
                again, again_grads = gradients_of(
                    leaves, lambda: attention_pool(embed, score, nodes)[pick])
                oracle, oracle_grads = gradients_of(
                    leaves, lambda: unfused_attention_pool(embed, score, nodes)[pick])
                for got, repeat, want in zip(fused, again, oracle):
                    np.testing.assert_array_equal(repeat, got)
                    assert_last_bits(got, want, err_msg=f"seed {seed}")
                for i, (got, repeat, want) in enumerate(zip(fused_grads, again_grads,
                                                            oracle_grads)):
                    np.testing.assert_array_equal(repeat, got)
                    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14,
                                               err_msg=f"seed {seed}, input {i}")

    def test_one_record_with_two_outputs(self):
        (embed, score), nodes = self.inputs(0, 5)
        with Tape() as tape:
            outs = attention_pool(embed, score, nodes)
        [record] = tape._records
        assert record.name == "attention_pool" and record.outputs == outs
        assert [out.shape for out in outs] == [(4,), (5,)]

    def test_pre_activation_overflow_raises(self):
        # relu would turn an overflow to -inf into an exact 0
        (embed, score), nodes = self.inputs(1, 3, hidden=2)
        embed.data[:] = -1e308
        nodes[1].data[:] = 10.0
        with pytest.raises(NonFiniteError, match="attention_pool"), \
                np.errstate(over="ignore"):
            attention_pool(embed, score, nodes)

    def test_shape_errors_name_op(self):
        (embed, score), nodes = self.inputs(2, 3)
        for args in [(embed, score, []), (embed, score, [*nodes, Tensor(np.zeros(3))]),
                     (Tensor(np.zeros((6, 3))), score, nodes),
                     (embed, Tensor(np.zeros((1, 5))), nodes),
                     (embed, Tensor(np.zeros(6)), nodes)]:
            with pytest.raises(ShapeError, match="attention_pool"):
                attention_pool(*args)


def unfused_leaf_states(weight, bias, table, tokens, others):
    """``leaf_states`` on ``[take_rows(table, tokens), *others]`` written
    with elementary ops: per position the rows, their concat, the matmul,
    the bias add and a split into (h, c).  Returns every h, then every c."""
    hs, cs = [], []
    for i, token in enumerate(tokens):
        row = concat([take_row(table, token), *(take_row(part, i) for part in others)])
        h, c = split(add(matmul(weight, row), bias), 2)
        hs.append(h)
        cs.append(c)
    return (*hs, *cs)


class TestLeafStates:
    """The fused leaf record against the elementary op chain it replaces,
    with one part (the affine leaf, on a fine-tuned embedding lookup with a
    repeated word) and with two (the RNN leaf's two directions)."""

    def inputs(self, seed, n, widths, hidden=3):
        rng = np.random.default_rng(seed)
        weight = Tensor(rng.normal(size=(2 * hidden, sum(widths))), requires_grad=True)
        bias = Tensor(rng.normal(size=2 * hidden), requires_grad=True)
        table = Tensor(rng.normal(size=(5, widths[0])), requires_grad=True)
        tokens = [int(i) for i in rng.integers(0, 5, size=n)]
        if n > 2:
            tokens[-1] = tokens[0]
        others = [Tensor(rng.normal(size=(n, w)), requires_grad=True) for w in widths[1:]]
        return weight, bias, table, tokens, others

    @pytest.mark.parametrize("widths", [(4,), (4, 3)])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_unfused_oracle(self, n, widths):
        for seed in range(3):
            weight, bias, table, tokens, others = self.inputs(seed, n, widths)
            leaves = [weight, bias, table, *others]

            def fused():
                states = leaf_states(weight, bias, [take_rows(table, tokens), *others])
                return (*(s.h for s in states), *(s.c for s in states))

            values, grads = gradients_of(leaves, fused)
            again, again_grads = gradients_of(leaves, fused)
            oracle_values, oracle_grads = gradients_of(
                leaves, lambda: unfused_leaf_states(weight, bias, table, tokens, others))
            for got, repeat, want in zip(values, again, oracle_values):
                np.testing.assert_array_equal(repeat, got)
                assert_last_bits(got, want, err_msg=f"seed {seed}")
            for i, (got, repeat, want) in enumerate(zip(grads, again_grads, oracle_grads)):
                np.testing.assert_array_equal(repeat, got)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                           err_msg=f"seed {seed}, input {i}")

    def test_one_record_of_views_into_one_array(self):
        weight, bias, table, tokens, others = self.inputs(1, 4, (4, 3))
        with Tape() as tape:
            states = leaf_states(weight, bias, [Tensor(table.data[tokens]), *others])
        outs = (*(s.h for s in states), *(s.c for s in states))
        [record] = tape._records
        assert record.name == "leaf_states" and record.outputs == outs
        assert all(t.shape == (3,) for t in outs)
        packed = outs[0].data.base
        assert packed.shape == (4, 6) and all(t.data.base is packed for t in outs)

    def test_overflow_raises(self):
        weight, bias, *_ = self.inputs(2, 3, (4,))
        weight.data[:] = 1e308
        with pytest.raises(NonFiniteError, match="leaf_states"), \
                np.errstate(over="ignore", invalid="ignore"):
            leaf_states(weight, bias, [Tensor(np.full((3, 4), 10.0))])

    def test_shape_errors_name_op(self):
        weight, bias, _, _, (part,) = self.inputs(3, 4, (4, 3))
        words = Tensor(np.zeros((4, 4)))
        for args in [(weight, bias, []), (weight, bias, [words]),
                     (weight, bias, [words, Tensor(np.zeros((3, 3)))]),
                     (weight, bias, [Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 3)))]),
                     (weight, bias, [words, Tensor(np.zeros(3))]),
                     (weight, Tensor(np.zeros(5)), [words, part]),
                     (Tensor(np.zeros((5, 7))), Tensor(np.zeros(5)), [words, part])]:
            with pytest.raises(ShapeError, match="leaf_states"):
                leaf_states(*args)


class TestTakeRows:
    def test_rows_and_repeated_row_gradient(self):
        rng = np.random.default_rng(7)
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        probe = rng.normal(size=(4, 3))
        with Tape() as tape:
            rows = take_rows(table, [4, 1, 4, 2])
            backward(tape, mean(mul(rows, Tensor(probe))))
        np.testing.assert_array_equal(rows.data, table.data[[4, 1, 4, 2]])
        g_rows = probe * (1.0 / probe.size)  # what mean and mul hand back
        np.testing.assert_array_equal(table.grad[4], g_rows[0] + g_rows[2])
        np.testing.assert_array_equal(table.grad[[1, 2]], g_rows[[1, 3]])
        assert not table.grad[[0, 3, 5]].any()

    def test_frozen_table_records_nothing(self):
        with Tape() as tape:
            rows = take_rows(Tensor(np.ones((3, 2))), [0, 2])
        assert len(tape) == 0 and not rows.requires_grad

    def test_frozen_float32_table_gives_exact_float64_rows_and_records_nothing(self):
        table = np.random.default_rng(3).normal(size=(5, 4)).astype(np.float32)
        with Tape() as tape:
            rows = take_rows(table, [4, 0, 4])
        assert len(tape) == 0 and not rows.requires_grad
        assert rows.data.dtype == np.float64 and rows.data.flags.writeable
        assert rows.data.tobytes() == table[[4, 0, 4]].astype(np.float64).tobytes()
        assert (rows.data.astype(np.float32) == table[[4, 0, 4]]).all()

    def test_index_outside_the_table_raises(self):
        for ids in ([3], [-1]):
            for table in (Tensor(np.ones((3, 2))), np.ones((3, 2), np.float32)):
                with pytest.raises(ShapeError, match="take_rows"):
                    take_rows(table, ids)


def fused_induce_tree(leaves, params, query, config, rng):
    tree, nodes = induce_tree(leaves, params, query, config, rng)
    return list(tree.merges), nodes


class TestTreeInduction:
    """The fused induction against ``unfused_induce_tree``, the same
    induction written with the standalone ops."""

    def inputs(self, seed, n, hidden=4, scale=1.0):
        rng = np.random.default_rng(seed)
        params = CompositionParams(
            Tensor(rng.normal(scale=0.5 * scale, size=(5 * hidden, 2 * hidden)),
                   requires_grad=True),
            Tensor(rng.normal(scale=scale, size=5 * hidden), requires_grad=True))
        query = Tensor(rng.normal(scale=scale, size=hidden), requires_grad=True)
        leaves = [NodeState(Tensor(rng.normal(scale=scale, size=hidden), requires_grad=True),
                            Tensor(rng.normal(scale=scale, size=hidden), requires_grad=True))
                  for _ in range(n)]
        return leaves, params, query

    def run(self, induce, leaves, params, query, config, seed):
        # the loss reads every node's h, and the c of the leaves and of every
        # other composed node
        n = len(leaves)
        tensors = [params.weight, params.bias, query,
                   *(t for leaf in leaves for t in (leaf.h, leaf.c))]
        for t in tensors:
            t.grad = None
        with Tape() as tape:
            merges, nodes = induce(leaves, params, query, config, np.random.default_rng(seed))
            parts = [*(node.h for node in nodes), *(node.c for node in nodes[:n]),
                     *(node.c for node in nodes[n::2])]
            probe = np.random.default_rng(seed + 1).normal(size=sum(p.shape[0] for p in parts))
            backward(tape, dot(concat(parts), Tensor(probe)))
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
        return merges, [(node.h.data, node.c.data) for node in nodes], grads

    @pytest.mark.parametrize("mode", ["train", "soft", "infer"])
    def test_matches_unfused_oracle(self, mode):
        for seed, n in enumerate([2, 3, 6, 9]):
            for perturb_probs, noise_per_layer in ((False, True), (True, True), (False, False)):
                config = GumbelConfig(temperature=0.7, mode=mode, perturb_probs=perturb_probs,
                                      noise_per_layer=noise_per_layer)
                inputs = self.inputs(seed, n, scale=1.5)
                fused = self.run(fused_induce_tree, *inputs, config, 40 + seed)
                again = self.run(fused_induce_tree, *inputs, config, 40 + seed)
                oracle = self.run(lambda *args: unfused_induce_tree(*args)[:2],
                                  *inputs, config, 40 + seed)
                assert fused[0] == again[0] == oracle[0]
                for got, repeat, want in zip(fused[1], again[1], oracle[1]):
                    for part in range(2):  # h, then c
                        np.testing.assert_array_equal(repeat[part], got[part])
                        assert_last_bits(got[part], want[part], err_msg=f"n {n}, {config}")
                if mode == "infer":
                    continue  # the fused op leaves the composed nodes constant
                for i, (got, repeat, want) in enumerate(zip(fused[2], again[2], oracle[2])):
                    np.testing.assert_array_equal(repeat, got)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13,
                                               err_msg=f"n {n}, input {i}, {config}")

    def test_train_node_is_a_copy_of_the_chosen_candidate(self):
        leaves, params, query = self.inputs(5, 2)
        _, nodes = induce_tree(leaves, params, query, GumbelConfig(), np.random.default_rng(0))
        pairs, mems = (np.concatenate([getattr(leaf, part).data for leaf in leaves])[None]
                       for part in ("h", "c"))
        hidden = query.shape[0]
        cells = compose(pairs, mems, query, params,
                        (np.empty((1, hidden)), np.empty((1, hidden)), np.empty(1)))
        np.testing.assert_array_equal(nodes[2].h.data, cells.h[0])
        np.testing.assert_array_equal(nodes[2].c.data, cells.c[0])

    def test_shape_errors_name_op(self):
        leaves, params, query = self.inputs(2, 3)
        bad_leaf = NodeState(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        for args in [([*leaves, bad_leaf], params, query),
                     (leaves, CompositionParams(Tensor(np.zeros((20, 6))), params.bias), query),
                     (leaves, params, Tensor(np.zeros(3)))]:
            with pytest.raises(ShapeError, match="tree_induction"):
                induce_tree(*args, GumbelConfig(mode="infer"))


def test_every_emitted_op_has_a_gradient_case():
    # every library module and the test-only ops, so that an op needs a case
    # whichever module emits it
    emitted = set()
    for path in [*Path(tensor.__file__).parent.glob("*.py"), Path(elementary.__file__)]:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_emit"):
                first = node.args[0]
                assert isinstance(first, ast.Constant) and isinstance(first.value, str), (
                    f"{path.name} line {node.lineno}: _emit needs a literal op name")
                emitted.add(first.value)
    assert {"add", "tree_induction", "gru_sequence", "split", "gumbel_softmax",
            "attention_pool"} <= emitted
    cases = [name for name, _ in op_gradient_cases()]
    missing = sorted(op for op in emitted
                     if not any(c == op or c.startswith(op + "_") for c in cases))
    assert not missing, f"ops without an op_gradient_cases entry: {missing}"


def test_tensor_defines_no_test_only_public_name():
    # an op that only the tests call belongs in elementary.py; the library
    # and the acceptance suite name what they use in a from-import
    defined = {node.name for node in ast.parse(inspect.getsource(tensor)).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    library = Path(tensor.__file__).parent
    sources = [p for p in library.glob("*.py") if p.name != "tensor.py"]
    used = set()
    for path in [*sources, Path(__file__).with_name("test_acceptance.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "treeattn.tensor"):
                used.update(alias.name for alias in node.names)
    assert not defined - used, f"used only by the tests: {sorted(defined - used)}"
