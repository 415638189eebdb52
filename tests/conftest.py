"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import zlib
from dataclasses import fields

import numpy as np

from treeattn.attention import AttentionParams, attend
from treeattn.data import EmbeddingMatrix, Vocabulary
from treeattn.model import Model
from treeattn.parser import (CompositionParams, GruParams, GumbelConfig, NodeState,
                             gru_sequence, gumbel_noise, induce_tree, leaf_states,
                             st_gumbel_select)
from treeattn.tensor import Tensor, dot, finite_difference_check
from treeattn.trees import BinaryTree, export_bracketed
from treeattn import tensor as T

import elementary as E


def random_tree(rng: np.random.Generator, n: int, tokens=None) -> BinaryTree:
    """Uniformly random merge sequence over n leaves."""
    merges = tuple(int(rng.integers(0, n - 1 - t)) for t in range(n - 1))
    return BinaryTree(n, merges, tokens)


def oracle_spans(tree: BinaryTree, exclude_root: bool = False) -> list[tuple[int, int]]:
    """Span extraction through an independent path: bracket counting over
    the exported string, without the full-sentence span if
    ``exclude_root``."""
    stack, spans, position = [], [], 0
    for symbol in export_bracketed(tree).split():
        if symbol == "(":
            stack.append(position)
        elif symbol == ")":
            start = stack.pop()
            span = (start, position)
            if position - start >= 2 and not (exclude_root and span == (0, tree.n)):
                spans.append(span)
        else:
            position += 1
    return spans


def oracle_depths(tree: BinaryTree) -> list[int]:
    """Per-leaf depth by bracket counting over the exported string: the
    brackets open at each leaf, less the one pair that wraps a one-leaf
    tree."""
    depths, open_count = [], 0
    for symbol in export_bracketed(tree).split():
        if symbol == "(":
            open_count += 1
        elif symbol == ")":
            open_count -= 1
        else:
            depths.append(open_count)
    return depths if tree.n > 1 else [0]


def oracle_f1(pred_tree: BinaryTree, ref_tree: BinaryTree,
              exclude_root: bool = False) -> float:
    """Naive intersection count over the oracle span lists."""
    pred = oracle_spans(pred_tree, exclude_root)
    ref = oracle_spans(ref_tree, exclude_root)
    if pred_tree.n <= 2:
        return 100.0
    matches = sum(1 for s in pred if s in ref)
    if not pred or not ref or matches == 0:
        return 0.0
    p, r = matches / len(pred), matches / len(ref)
    return 200.0 * p * r / (p + r)


def tiny_pair_model(seed: int = 42, hidden: int = 8, d_attn: int = 6,
                    d_clf: int = 16, num_classes: int = 3, vocab_size: int = 10,
                    d_word: int = 5, leaf_kind: str = "affine",
                    task: str = "pair", finetune: bool = False) -> Model:
    """Small randomly initialized model over a synthetic vocabulary; its
    embedding is a float64 table, fine-tuned when ``finetune`` is set."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab_size)]
    vocab = Vocabulary.from_words(words)
    matrix = np.vstack([np.zeros(d_word),
                        rng.uniform(-0.05, 0.05, d_word),
                        rng.normal(0.0, 0.3, (vocab_size, d_word))])
    embedding = EmbeddingMatrix(Tensor(matrix, requires_grad=finetune))
    return Model.build(rng, task=task, num_classes=num_classes, hidden=hidden,
                       d_attn=d_attn, d_clf=d_clf, vocab=vocab,
                       embedding=embedding, leaf_kind=leaf_kind)


# How far a fused kernel's forward value may sit from the elementary ops',
# as a share of the array's largest entry: the kernels take one matrix
# product per call where the elementary ops take one matrix-vector product
# per row, so the two agree to the last bits, not bit for bit.
LAST_BITS = 1e-13


def assert_last_bits(got, want, err_msg: str = "") -> None:
    """``got`` is ``want`` up to ``LAST_BITS`` of ``want``'s largest entry."""
    want = np.asarray(want)
    bound = LAST_BITS * np.abs(want).max(initial=0.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=bound, err_msg=err_msg)


# the nine weights of one GRU direction, in GruParams field order
GRU_WEIGHTS = tuple(f.name for f in fields(GruParams))


def gru_values(rng: np.random.Generator, hidden: int, d_in: int, n: int,
               scale: float = 0.5) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
    """Random GRU weights by name and n random input vectors."""
    shapes = {"in": (hidden, d_in), "state": (hidden, hidden), "bias": (hidden,)}
    weights = {name: rng.normal(scale=scale, size=shapes[name.split("_")[1]])
               for name in GRU_WEIGHTS}
    return weights, [rng.normal(size=d_in) for _ in range(n)]


def gumbel_softmax(probs, noise, temperature, hard, perturb_probs=False):
    """The one ``gumbel_softmax`` record of ``st_gumbel_select`` on a tensor
    of probabilities: the index and the hard (``train`` mode) or relaxed
    (``soft`` mode) weights."""
    config = GumbelConfig(temperature, "train" if hard else "soft", perturb_probs)
    return st_gumbel_select(probs, config, noise=noise)


def unfused_tree_lstm_cell(params, query, pairs):
    """The binary Tree-LSTM cell written with elementary ops, one
    (left, right) pair of node states at a time, gate blocks [candidate;
    input; forget-left; forget-right; output].  Returns the parents' states
    and their validity logits ``query . h``."""
    parents, logits = [], []
    for left, right in pairs:
        pre = T.add(T.matmul(params.weight, T.concat([left.h, right.h])), params.bias)
        cand_pre, *gate_pres = E.split(pre, 5)
        candidate = E.tanh(cand_pre)
        gate_in, forget_l, forget_r, gate_out = (E.sigmoid(p) for p in gate_pres)
        c = T.add(T.mul(candidate, gate_in),
                  T.add(T.mul(left.c, forget_l), T.mul(right.c, forget_r)))
        h = T.mul(E.tanh(c), gate_out)
        parents.append(NodeState(h, c))
        logits.append(dot(query, h))
    return parents, logits


def unfused_induce_tree(leaves, params, query, config, rng, anchor=None):
    """``induce_tree`` written with the standalone ops: per layer
    ``unfused_tree_lstm_cell`` over the new pairs, ``softmax(concat(logits))``,
    ``gumbel_softmax`` and a ``weighted_sum`` merge (exact at one-hot
    weights).  Its cell shares no kernel with ``TreeLstmCells`` and takes
    one matrix-vector product per pair, so its values match the fused
    induction's to the last bits.  Returns the merge indices, all 2n - 1
    node states and, per merge, the index and the relaxed weights (``None``
    in ``infer``).

    With ``anchor``, the layers of a ``train`` run at another input, each
    merge keeps the anchor's index and weighs the candidates by the
    relaxation plus the anchor's (one-hot - relaxation): a smooth function
    of the input whose derivative at the anchor's input is the
    straight-through gradient of the ``train`` run there.
    """
    n = len(leaves)
    nodes, all_nodes, layers = list(leaves), list(leaves), []
    presampled = None
    if config.mode != "infer" and not config.noise_per_layer and n > 1:
        presampled = gumbel_noise(n - 1, rng)
    candidates, logits = ([], []) if n < 2 else unfused_tree_lstm_cell(
        params, query, zip(nodes, nodes[1:]))
    while len(nodes) > 1:
        scores = T.softmax(T.concat(logits))
        k = len(candidates)
        if config.mode == "infer":
            index, relaxed = int(np.argmax(scores.data)), None
            weights = Tensor(np.eye(k)[index])
        else:
            noise = presampled[:k] if presampled is not None else gumbel_noise(k, rng)
            index, soft = gumbel_softmax(scores, noise, config.temperature, hard=False,
                                         perturb_probs=config.perturb_probs)
            relaxed = soft.data
            if anchor is not None:
                index, anchor_relaxed = anchor[len(layers)]
                weights = T.add(soft, Tensor(np.eye(k)[index] - anchor_relaxed))
            elif config.mode == "train":
                weights = gumbel_softmax(scores, noise, config.temperature, hard=True,
                                         perturb_probs=config.perturb_probs)[1]
            else:
                weights = soft
        layers.append((index, relaxed))
        merged = NodeState(E.weighted_sum([cand.h for cand in candidates], weights),
                           E.weighted_sum([cand.c for cand in candidates], weights))
        nodes[index:index + 2] = [merged]
        all_nodes.append(merged)
        if len(nodes) > 1:
            pairs = []
            if index > 0:
                pairs.append((nodes[index - 1], merged))
            if index < len(nodes) - 1:
                pairs.append((merged, nodes[index + 1]))
            window = slice(max(index - 1, 0), index + 2)
            candidates[window], logits[window] = unfused_tree_lstm_cell(params, query, pairs)
    return [index for index, _ in layers], all_nodes, layers


def op_gradient_cases(seed: int = 0):
    """(name, build) pairs where build(rng) returns (f, x): a scalar-valued
    function of one tensor plus the input to probe, with inputs kept away
    from the kinks of relu/abs and the domain edge of log."""
    def away_from_zero(rng, size):
        return rng.uniform(0.5, 1.5, size) * rng.choice([-1.0, 1.0], size)

    def via_dot(rng, size, op):
        r = rng.normal(size=size)
        return lambda x: dot(op(x), Tensor(r))

    cases = []

    def case(name):
        def wrap(fn):
            cases.append((name, fn))
            return fn
        return wrap

    @case("add")
    def _(rng):
        b = Tensor(rng.normal(size=6))
        return via_dot(rng, 6, lambda x: T.add(x, b)), Tensor(rng.normal(size=6))

    @case("sub")
    def _(rng):
        b = Tensor(rng.normal(size=6))
        return via_dot(rng, 6, lambda x: T.sub(x, b)), Tensor(rng.normal(size=6))

    @case("mul")
    def _(rng):
        b = Tensor(rng.normal(size=6))
        return via_dot(rng, 6, lambda x: T.mul(x, b)), Tensor(rng.normal(size=6))

    @case("abs")
    def _(rng):
        return via_dot(rng, 6, T.absolute), Tensor(away_from_zero(rng, 6))

    @case("matmul_vec")
    def _(rng):
        m = Tensor(rng.normal(size=(4, 6)))
        return via_dot(rng, 4, lambda x: T.matmul(m, x)), Tensor(rng.normal(size=6))

    @case("matmul_mat_left")
    def _(rng):
        b = Tensor(rng.normal(size=(5, 3)))
        r = Tensor(rng.normal(size=3))
        return (lambda x: E.mean(T.matmul(T.matmul(x, b), r)),
                Tensor(rng.normal(size=(4, 5))))

    @case("relu")
    def _(rng):
        return via_dot(rng, 6, T.relu), Tensor(away_from_zero(rng, 6))

    @case("softmax")
    def _(rng):
        return via_dot(rng, 6, T.softmax), Tensor(rng.normal(size=6))

    def gumbel_softmax_case(hard, perturb_probs):
        # the op reads a probability vector, so the probe is the logits of
        # one.  The hard weights' backward pass is the soft weights'
        # gradient, so this is the soft op everywhere and the hard op runs
        # at the probe point
        def build(rng):
            logits = rng.normal(size=4)
            noise = rng.normal(size=4)

            def draw(x):
                at_probe = hard and np.array_equal(x.data, logits)
                return gumbel_softmax(T.softmax(x), noise, 0.7, hard=at_probe,
                                      perturb_probs=perturb_probs)[1]
            return via_dot(rng, 4, draw), Tensor(logits.copy())
        return build

    for mode in ("hard", "soft"):
        case(f"gumbel_softmax_{mode}")(gumbel_softmax_case(mode == "hard", False))
        case(f"gumbel_softmax_{mode}_perturb_probs")(gumbel_softmax_case(mode == "hard", True))

    def attention_pool_case(probe, read_weights):
        # four nodes, the probed one (the third) among them; the loss reads
        # the pooled vector and, if read_weights, the attention weights
        def build(rng):
            hidden, d_attn = 3, 5
            values = {"embed_weight": rng.normal(size=(d_attn, hidden)),
                      "score_weight": rng.normal(size=(1, d_attn)),
                      "node": rng.normal(size=hidden)}
            others = [Tensor(rng.normal(size=hidden)) for _ in range(3)]
            r_sentence, r_weights = Tensor(rng.normal(size=hidden)), Tensor(rng.normal(size=4))

            def pool(x):
                embed, score = (x if probe == name else Tensor(values[name])
                                for name in ("embed_weight", "score_weight"))
                node = x if probe == "node" else Tensor(values["node"])
                out = attend([*others[:2], node, others[2]], AttentionParams(embed, score))
                loss = T.dot(out.sentence, r_sentence)
                return T.add(loss, T.dot(out.weights, r_weights)) if read_weights else loss

            return pool, Tensor(values[probe])
        return build

    for probe in ("embed_weight", "score_weight", "node"):
        case(f"attention_pool_{probe}")(attention_pool_case(probe, read_weights=True))
    case("attention_pool_unused_weights_node")(attention_pool_case("node", read_weights=False))

    @case("concat")
    def _(rng):
        b = Tensor(rng.normal(size=3))
        return via_dot(rng, 9, lambda x: T.concat([x, b])), Tensor(rng.normal(size=6))

    def tree_induction_case(mode, probe, n, perturb_probs=False, noise_per_layer=True):
        # probe is a composition parameter, "query", or "leaf_h" / "leaf_c" of
        # the middle leaf.  The loss reads the h of every node and the c of
        # every other composed node.  In train mode the fused op runs at the
        # probe point and the straight-through surrogate of
        # unfused_induce_tree elsewhere, as the hard gumbel_softmax cases do
        config = GumbelConfig(temperature=0.8, mode=mode, perturb_probs=perturb_probs,
                              noise_per_layer=noise_per_layer)

        def build(rng):
            hidden = 3
            values = {"weight": rng.normal(scale=0.5, size=(5 * hidden, 2 * hidden)),
                      "bias": rng.normal(size=5 * hidden), "query": rng.normal(size=hidden),
                      "leaf_h": rng.normal(size=(n, hidden)),
                      "leaf_c": rng.normal(size=(n, hidden))}
            draws = int(rng.integers(1 << 30))
            r = Tensor(rng.normal(size=(2 * n - 1 + n // 2) * hidden))
            middle = n // 2

            def inputs(x):
                def value(name):
                    return x if probe == name else Tensor(values[name])
                hs, cs = ([Tensor(row) for row in values[name]] for name in ("leaf_h", "leaf_c"))
                if probe.startswith("leaf_"):
                    (hs if probe == "leaf_h" else cs)[middle] = x
                params = CompositionParams(value("weight"), value("bias"))
                return [NodeState(h, c) for h, c in zip(hs, cs)], params, value("query")

            def loss(nodes):
                return T.dot(T.concat([*(node.h for node in nodes),
                                       *(node.c for node in nodes[n::2])]), r)

            probe_value = values[probe][middle] if probe.startswith("leaf_") else values[probe]
            anchor = None
            if mode == "train":
                anchor = unfused_induce_tree(*inputs(Tensor(probe_value)), config,
                                             np.random.default_rng(draws))[2]

            def f(x):
                leaves, params, query = inputs(x)
                rng_draws = np.random.default_rng(draws)
                if anchor is None or np.array_equal(x.data, probe_value):
                    return loss(induce_tree(leaves, params, query, config, rng_draws)[1])
                return loss(unfused_induce_tree(leaves, params, query, config, rng_draws,
                                                anchor)[1])

            return f, Tensor(probe_value.copy())
        return build

    for mode in ("train", "soft"):
        for probe in ("weight", "bias", "query", "leaf_h", "leaf_c"):
            case(f"tree_induction_{mode}_{probe}")(tree_induction_case(mode, probe, n=7))
        for probe in ("query", "leaf_h"):
            case(f"tree_induction_{mode}_perturb_probs_{probe}")(
                tree_induction_case(mode, probe, n=6, perturb_probs=True))
        case(f"tree_induction_{mode}_noise_per_sentence_leaf_h")(
            tree_induction_case(mode, "leaf_h", n=6, noise_per_layer=False))
        case(f"tree_induction_{mode}_n1_leaf_h")(tree_induction_case(mode, "leaf_h", n=1))
        for n in (2, 3):
            for probe in ("query", "leaf_h", "leaf_c"):
                case(f"tree_induction_{mode}_n{n}_{probe}")(tree_induction_case(mode, probe, n))

    def tree_induction_group_case(mode, probe, lengths=(4, 1, 3)):
        # a group of sentences; probe is a composition parameter, "query", or
        # "leaf_h" / "leaf_c" of the first sentence's second leaf.  The loss
        # reads, per sentence, the h of every node and the c of every other
        # composed node.  In train mode the fused op runs at the probe point
        # and each sentence's straight-through surrogate elsewhere, as in
        # tree_induction_case
        config = GumbelConfig(temperature=0.8, mode=mode)

        def build(rng):
            hidden = 3
            values = {"weight": rng.normal(scale=0.5, size=(5 * hidden, 2 * hidden)),
                      "bias": rng.normal(size=5 * hidden), "query": rng.normal(size=hidden)}
            leaf_values = [(rng.normal(size=(n, hidden)), rng.normal(size=(n, hidden)))
                           for n in lengths]
            values["leaf_h"], values["leaf_c"] = (part[1] for part in leaf_values[0])
            draws = int(rng.integers(1 << 30))
            probes = [Tensor(rng.normal(size=(2 * n - 1 + n // 2) * hidden)) for n in lengths]

            def inputs(x):
                def value(name):
                    return x if probe == name else Tensor(values[name])
                group = []
                for i, (hs, cs) in enumerate(leaf_values):
                    hs, cs = [Tensor(row) for row in hs], [Tensor(row) for row in cs]
                    if i == 0 and probe.startswith("leaf_"):
                        (hs if probe == "leaf_h" else cs)[1] = x
                    group.append([NodeState(h, c) for h, c in zip(hs, cs)])
                return group, CompositionParams(value("weight"), value("bias")), value("query")

            def loss(induced):
                total = None
                for nodes, r, n in zip(induced, probes, lengths):
                    term = T.dot(T.concat([*(node.h for node in nodes),
                                           *(node.c for node in nodes[n::2])]), r)
                    total = term if total is None else T.add(total, term)
                return total

            def rngs():
                return [np.random.default_rng([draws, i]) for i in range(len(lengths))]

            probe_value = values[probe]
            anchors = None
            if mode == "train":
                group, params, query = inputs(Tensor(probe_value))
                anchors = [unfused_induce_tree(leaves, params, query, config, rng)[2]
                           for leaves, rng in zip(group, rngs())]

            def f(x):
                group, params, query = inputs(x)
                if anchors is None or np.array_equal(x.data, probe_value):
                    induced = induce_tree(group, params, query, config, rngs())
                    return loss([nodes for _, nodes in induced])
                return loss([unfused_induce_tree(leaves, params, query, config, rng, anchor)[1]
                             for leaves, rng, anchor in zip(group, rngs(), anchors)])

            return f, Tensor(probe_value.copy())
        return build

    for mode in ("train", "soft"):
        for probe in ("weight", "bias", "query", "leaf_h", "leaf_c"):
            case(f"tree_induction_group_{mode}_{probe}")(tree_induction_group_case(mode, probe))

    def gru_sequence_case(probe, reverse):
        # probe is a weight name or "inputs", the (3, 4) matrix of the three
        # input vectors, which both directions read with and without a
        # carried state
        def build(rng):
            weights, words = gru_values(rng, hidden=3, d_in=4, n=3)
            r = Tensor(rng.normal(size=(3, 3)))

            def run(x):
                params = GruParams(*(x if name == probe else Tensor(v)
                                     for name, v in weights.items()))
                inputs = x if probe == "inputs" else Tensor(np.array(words))
                return E.mean(T.mul(gru_sequence(params, inputs, reverse), r))

            return run, Tensor(np.array(words) if probe == "inputs" else weights[probe])
        return build

    for probe in (*GRU_WEIGHTS, "inputs"):
        case(f"gru_sequence_{probe}")(gru_sequence_case(probe, reverse=False))
        case(f"gru_sequence_reverse_{probe}")(gru_sequence_case(probe, reverse=True))

    def gru_sequence_group_case(probe, reverse, lengths=(2, 3, 1)):
        # a group of sentences stepped together; probe is a weight name or
        # "inputs", the first sentence's, which is not the longest
        def build(rng):
            weights, _ = gru_values(rng, hidden=3, d_in=4, n=0)
            words = [rng.normal(size=(n, 4)) for n in lengths]
            probes = [Tensor(rng.normal(size=(n, 3))) for n in lengths]

            def run(x):
                params = GruParams(*(x if name == probe else Tensor(v)
                                     for name, v in weights.items()))
                group = [x if probe == "inputs" and i == 0 else Tensor(w)
                         for i, w in enumerate(words)]
                total = None
                for out, r in zip(gru_sequence(params, group, reverse), probes):
                    term = E.mean(T.mul(out, r))
                    total = term if total is None else T.add(total, term)
                return total

            return run, Tensor(words[0] if probe == "inputs" else weights[probe])
        return build

    for probe in (*GRU_WEIGHTS, "inputs"):
        case(f"gru_sequence_group_{probe}")(gru_sequence_group_case(probe, reverse=False))
        case(f"gru_sequence_group_reverse_{probe}")(gru_sequence_group_case(probe, reverse=True))

    def leaf_states_case(probe, widths, n):
        # probe is "weight", "bias" or "part<k>"; the loss reads every
        # output but the middle leaf's c when there are two leaves or more
        unused = {n + n // 2} if n > 1 else set()

        def build(rng):
            hidden = 2
            values = {"weight": rng.normal(size=(2 * hidden, sum(widths))),
                      "bias": rng.normal(size=2 * hidden),
                      **{f"part{k}": rng.normal(size=(n, w)) for k, w in enumerate(widths)}}

            def states(x):
                weight, bias, *parts = (x if name == probe else Tensor(v)
                                        for name, v in values.items())
                leaves = leaf_states(weight, bias, parts)
                outs = (*(leaf.h for leaf in leaves), *(leaf.c for leaf in leaves))
                return T.concat([out for i, out in enumerate(outs) if i not in unused])

            return (via_dot(rng, (2 * n - len(unused)) * hidden, states),
                    Tensor(values[probe]))
        return build

    for widths in ((3,), (2, 3)):
        for n in (1, 2, 7):
            for probe in ("weight", "bias", *(f"part{k}" for k in range(len(widths)))):
                case(f"leaf_states_{len(widths)}parts_n{n}_{probe}")(
                    leaf_states_case(probe, widths, n))

    @case("dot")
    def _(rng):
        b = Tensor(rng.normal(size=6))
        return lambda x: T.dot(x, b), Tensor(rng.normal(size=6))

    @case("cross_entropy")
    def _(rng):
        return lambda x: T.cross_entropy(x, 1), Tensor(rng.normal(size=5))

    @case("take_rows_repeated_index")
    def _(rng):
        # a fine-tuned table: row 2 is read twice and row 3 not at all
        r = Tensor(rng.normal(size=(4, 3)))
        return (lambda x: E.mean(T.mul(T.take_rows(x, [2, 0, 2, 1]), r)),
                Tensor(rng.normal(size=(4, 3))))

    # the tests-side ops of elementary.py
    @case("sigmoid")
    def _(rng):
        return via_dot(rng, 6, E.sigmoid), Tensor(rng.normal(size=6))

    @case("tanh")
    def _(rng):
        return via_dot(rng, 6, E.tanh), Tensor(rng.normal(size=6))

    @case("exp")
    def _(rng):
        return via_dot(rng, 6, E.exp), Tensor(rng.normal(size=6))

    @case("log")
    def _(rng):
        return via_dot(rng, 6, E.log), Tensor(rng.uniform(0.2, 3.0, 6))

    @case("weighted_sum_vectors")
    def _(rng):
        w = Tensor(rng.normal(size=3))
        vs = [Tensor(rng.normal(size=4)) for _ in range(2)]
        return (via_dot(rng, 4, lambda x: E.weighted_sum([x, *vs], w)),
                Tensor(rng.normal(size=4)))

    @case("weighted_sum_weights")
    def _(rng):
        vs = [Tensor(rng.normal(size=4)) for _ in range(3)]
        return (via_dot(rng, 4, lambda x: E.weighted_sum(vs, x)),
                Tensor(rng.normal(size=3)))

    @case("mean")
    def _(rng):
        return E.mean, Tensor(rng.normal(size=(3, 4)))

    @case("split")
    def _(rng):
        # both pieces read, through a product
        def f(x):
            first, second = E.split(x, 2)
            return T.dot(first, T.mul(second, second))
        return f, Tensor(rng.normal(size=8))

    @case("split_unused_piece")
    def _(rng):
        return (via_dot(rng, 6, lambda x: T.concat([E.split(x, 3)[i] for i in (0, 2)])),
                Tensor(rng.normal(size=9)))

    @case("take_row")
    def _(rng):
        return via_dot(rng, 4, lambda x: E.take_row(x, 1)), Tensor(rng.normal(size=(3, 4)))

    return cases


def max_op_gradient_error(seed: int = 0, step: float = 1e-5) -> dict[str, float]:
    """Run the finite-difference check once per cataloged operation."""
    errors = {}
    for name, build in op_gradient_cases(seed):
        rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 1000)
        f, x = build(rng)
        errors[name] = finite_difference_check(f, x, step)
    return errors
