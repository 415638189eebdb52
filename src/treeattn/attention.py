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

from .tensor import Tensor, ShapeError, attention_pool, glorot


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
    """Pool node hidden states into one sentence vector.

    The score exponentials are normalized through a max-subtracted
    softmax, which is mathematically identical but immune to overflow
    from unbounded logits.  The whole pooling is one tape record.
    """
    if not nodes:
        raise ShapeError("attend: no nodes to pool")
    return AttentionOutput(*attention_pool(params.embed_weight, params.score_weight, nodes))


def init_attention_params(rng: np.random.Generator, d_attn: int, hidden: int) -> AttentionParams:
    return AttentionParams(glorot(rng, d_attn, hidden), glorot(rng, 1, d_attn))
