"""The full sentence and sentence-pair models.

Wiring: word indices -> embedding rows -> leaf transform -> latent tree
induction -> attention pooling -> feature vector -> MLP logits.  The
model owns every trainable tensor and exposes them as a flat name -> Tensor
mapping for the optimizer and checkpoints.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields, replace

import numpy as np

from . import attention, classifier, parser
from .data import EmbeddingMatrix, PairExample, SentenceExample, Vocabulary
from .tensor import Tensor, cross_entropy, take_rows
from .trees import BinaryTree


@dataclass
class EncodedSentence:
    """Everything the encoder produced for one sentence: the induced tree,
    all 2n - 1 node states, the pooled sentence vector, and the attention
    weights aligned with the node order."""

    tree: BinaryTree
    nodes: list[parser.NodeState]
    sentence: Tensor
    weights: Tensor


def _collect_tensors(prefix: str, value, out: dict[str, Tensor]) -> None:
    if isinstance(value, Tensor):
        out[prefix] = value
        return
    for f in fields(value):
        _collect_tensors(f"{prefix}.{f.name}", getattr(value, f.name), out)


class Model:
    """Latent-tree encoder plus a task head ("pair" or "sentence").  The type
    of ``leaf_params`` is the leaf transform; ``selection``, the Gumbel settings."""

    def __init__(self, task: str, vocab: Vocabulary, embedding: EmbeddingMatrix,
                 leaf_params: parser.LeafAffineParams | parser.LeafRnnParams,
                 composition: parser.CompositionParams, query: Tensor,
                 attn: attention.AttentionParams, head: classifier.MlpParams,
                 selection: parser.GumbelConfig):
        if task not in ("pair", "sentence"):
            raise ValueError(f"task must be 'pair' or 'sentence', got {task!r}")
        self.task = task
        self.vocab = vocab
        self.embedding = embedding
        self.leaf_params = leaf_params
        self.composition = composition
        self.query = query
        self.attn = attn
        self.head = head
        self.selection = selection

    @classmethod
    def build(cls, rng: np.random.Generator, *, task: str, num_classes: int,
              hidden: int, d_attn: int, d_clf: int, vocab: Vocabulary,
              embedding: EmbeddingMatrix, leaf_kind: str = "rnn",
              selection: parser.GumbelConfig = parser.GumbelConfig()) -> "Model":
        d_word = embedding.dim
        if leaf_kind == "affine":
            leaf_params = parser.init_leaf_affine(rng, d_word, hidden)
        elif leaf_kind == "rnn":
            leaf_params = parser.init_leaf_rnn(rng, d_word, hidden)
        else:
            raise ValueError(f"unknown leaf transform {leaf_kind!r}")
        feature_dim = 4 * hidden if task == "pair" else hidden
        return cls(task, vocab, embedding, leaf_params,
                   parser.init_composition_params(rng, hidden),
                   parser.init_query(rng, hidden),
                   attention.init_attention_params(rng, d_attn, hidden),
                   classifier.init_mlp_params(rng, feature_dim, d_clf, num_classes),
                   selection)

    @property
    def num_classes(self) -> int:
        return self.head.out_bias.shape[0]

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors by stable name, in a fixed order.

        Names are dataclass field paths, e.g. ``leaf.fwd.update_in``.
        """
        params: dict[str, Tensor] = {}
        if self.embedding.trainable:
            params["embedding"] = self.embedding.vectors
        for prefix, value in (("leaf", self.leaf_params), ("composition", self.composition),
                              ("query", self.query), ("attention", self.attn),
                              ("head", self.head)):
            _collect_tensors(prefix, value, params)
        return params

    def encode(self, token_ids: list[int], mode: str = "infer",
               rng: np.random.Generator | None = None,
               tokens=None) -> EncodedSentence:
        """Run the encoder over one sentence of vocabulary indices."""
        if mode != "infer" and rng is None:
            raise ValueError(f"mode {mode!r} draws Gumbel noise and needs an rng")
        words = take_rows(self.embedding.vectors, token_ids)
        tree, nodes = parser.induce_tree(parser.leaf_transform(words, self.leaf_params),
                                         self.composition, self.query,
                                         replace(self.selection, mode=mode), rng, tokens=tokens)
        return self._pooled(tree, nodes)

    def _pooled(self, tree: BinaryTree, nodes: list[parser.NodeState]) -> EncodedSentence:
        pooled = attention.attend([state.h for state in nodes], self.attn)
        return EncodedSentence(tree, nodes, pooled.sentence, pooled.weights)

    def logits(self, example, mode: str = "infer",
               rng: np.random.Generator | None = None,
               dropout_keep: float = 1.0) -> Tensor:
        """Class logits for a pair or sentence example (matching the task):
        ``batch_logits`` of a batch of one."""
        return self.batch_logits([example], mode, [rng], dropout_keep)[0]

    def batch_logits(self, examples, mode: str = "infer", rngs=None,
                     dropout_keep: float = 1.0, tapes=None) -> list[Tensor]:
        """Class logits of each example (matching the task), in three phases.

        First the leaves of all the examples' sentences (one
        ``parser.leaf_transform`` group), then their trees (one
        ``parser.induce_tree`` group), then each example's attention
        pooling, dropout masks and head, recorded on ``tapes[i]`` when
        ``tapes`` is given.  The sentences enter both groups with the
        examples last to first, so that the group records, which hand the
        sentences' gradients back last sentence first, give each tensor its
        gradients in example order and, within an example, the hypothesis's
        before the premise's: the order one tape per example gives them.
        No sentence is padded and every matrix product stays per sentence,
        so each example's logits are bit for bit those of the example alone.

        ``mode`` is the induction's; each example's generator in ``rngs``,
        needed unless it is ``infer``, draws its premise's Gumbel noise,
        then its hypothesis's, then (in ``train`` mode with
        ``dropout_keep`` below 1) its two dropout masks.
        """
        for example in examples:
            self._check_example(example)
        if rngs is None:
            rngs = [None] * len(examples)
        if mode != "infer" and any(rng is None for rng in rngs):
            raise ValueError(f"mode {mode!r} draws Gumbel noise and needs an rng")
        if not examples:
            return []
        pair = self.task == "pair"
        width = 2 if pair else 1  # sentences per example
        sentences = [ids for ex in reversed(examples)
                     for ids in ((ex.premise, ex.hypothesis) if pair else (ex.tokens,))]
        # word matrices made as the leaves need them: the affine leaf maps
        # one sentence at a time, so no more than one is alive in inference
        leaves = parser.leaf_transform((take_rows(self.embedding.vectors, ids)
                                        for ids in sentences), self.leaf_params)
        induced = parser.induce_tree(leaves, self.composition, self.query,
                                     replace(self.selection, mode=mode),
                                     [rng for rng in reversed(rngs) for _ in range(width)])
        logits = []
        for i, rng in enumerate(rngs):
            at = (len(examples) - 1 - i) * width
            with tapes[i] if tapes is not None else nullcontext():
                pooled = [self._pooled(tree, nodes).sentence
                          for tree, nodes in induced[at:at + width]]
                feature = classifier.featurize_pair(*pooled) if pair else pooled[0]
                masks = None
                if mode == "train" and dropout_keep < 1.0:
                    masks = (classifier.make_dropout_mask(rng, feature.shape[0], dropout_keep),
                             classifier.make_dropout_mask(rng, self.head.hidden_bias.shape[0],
                                                          dropout_keep))
                logits.append(classifier.classify(feature, self.head, masks))
        return logits

    def _check_example(self, example) -> None:
        if self.task == "pair" and not isinstance(example, PairExample):
            raise TypeError("pair model expects PairExample inputs")
        if self.task == "sentence" and not isinstance(example, SentenceExample):
            raise TypeError("sentence model expects SentenceExample inputs")

    def example_loss(self, example, mode: str = "train",
                     rng: np.random.Generator | None = None,
                     dropout_keep: float = 1.0) -> tuple[Tensor, Tensor]:
        """(cross-entropy loss, logits) for one example."""
        logits = self.logits(example, mode, rng, dropout_keep)
        return cross_entropy(logits, example.label), logits
