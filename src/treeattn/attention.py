"""Attention pooling over every node of an induced tree.

Each of the 2n - 1 node hidden states is mapped into a shared embedding
space by a ReLU layer, scored by a learned row vector, and the softmax of
those scores weights the original hidden states into one sentence vector.
Because every node (leaves included) contributes, gradients reach the
input through many paths instead of only through the root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (NonFiniteError, ShapeError, Tensor, _Outer, _check_same_vectors, _emit,
                     _softmax_grad, glorot, stable_softmax)


@dataclass
class AttentionParams:
    embed_weight: Tensor  # (D_a, H)
    score_weight: Tensor  # (1, D_a)


@dataclass
class AttentionOutput:
    """Pooled sentence vector plus the attention weights.

    ``sentence`` is exactly the weight-vector-weighted sum of the input
    hidden states; weights are nonnegative and sum to one.
    """

    sentence: Tensor
    weights: Tensor


def attend(nodes: list[Tensor], params: AttentionParams) -> AttentionOutput:
    """Pool node hidden states into one sentence vector, as one
    ``attention_pool`` record.

    Node ``h_i`` (size H) is embedded as ``e_i = relu(embed_weight @ h_i)``
    and scored ``score_weight @ e_i``.  The weights are the max-shifted
    softmax of the scores, which is mathematically identical to the plain
    softmax but immune to overflow from unbounded logits, and the pooled
    vector is ``sum_i w_i h_i``.  One matrix product embeds all nodes and
    one more scores them, so the values match those of the elementary ops
    to the last bits.  The pre-activations are checked for non-finite
    values, because the ReLU would otherwise hide an overflow.  The backward
    pass hands back the embedding weight's gradient as one deferred matrix
    product (an ``_Outer``) and takes one matrix product for the nodes'
    gradients.
    """
    if not nodes:
        raise ShapeError("attention_pool: no nodes to pool")
    nodes = tuple(nodes)
    _check_same_vectors("attention_pool", nodes)
    embed_weight, score_weight = params.embed_weight, params.score_weight
    w_embed, w_score = embed_weight.data, score_weight.data
    m, hidden = len(nodes), nodes[0].shape[0]
    if (w_embed.ndim != 2 or w_embed.shape[1] != hidden
            or w_score.shape != (1, w_embed.shape[0])):
        raise ShapeError(f"attention_pool: weights {embed_weight.shape} and "
                         f"{score_weight.shape} do not fit nodes of size {hidden}")
    stacked = np.array([h.data for h in nodes])
    pre = stacked @ w_embed.T
    if not np.isfinite(pre).all():
        raise NonFiniteError("attention_pool: pre-activation has non-finite values")
    embedded = np.maximum(pre, 0.0)
    logits = embedded @ w_score[0]
    if not np.isfinite(logits).all():
        raise NonFiniteError("attention_pool: scores have non-finite values")
    weights = stable_softmax(logits)
    sentence = weights @ stacked

    def grad_fn(grads):
        g_sentence, g_weights = grads
        g_w = np.zeros(m) if g_sentence is None else stacked @ g_sentence
        if g_weights is not None:
            g_w += g_weights
        g_logits = _softmax_grad(weights, g_w)
        g_pre = g_logits[:, None] * w_score
        g_pre *= pre > 0
        out = [_Outer(g_pre.T, stacked), g_logits[None] @ embedded]
        if any(h.requires_grad for h in nodes):
            g_nodes = g_pre @ w_embed
            if g_sentence is not None:
                g_nodes += weights[:, None] * g_sentence
            out += list(g_nodes)
        else:
            out += [None] * m
        return tuple(out)

    return AttentionOutput(*_emit("attention_pool", (embed_weight, score_weight, *nodes),
                                  (sentence, weights), grad_fn))


def init_attention_params(rng: np.random.Generator, d_attn: int, hidden: int) -> AttentionParams:
    return AttentionParams(glorot(rng, d_attn, hidden), glorot(rng, 1, d_attn))
