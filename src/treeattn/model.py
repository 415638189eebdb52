"""The full sentence and sentence-pair models.

Wiring: word indices -> embedding rows -> leaf transform -> latent tree
induction -> attention pooling -> feature vector -> MLP logits.  The
model owns every trainable tensor and exposes them as a flat name -> Tensor
mapping for the optimizer and checkpoints.
"""

from __future__ import annotations

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
        tree, nodes = parser.induce_tree(self._leaves(token_ids), self.composition, self.query,
                                         replace(self.selection, mode=mode), rng, tokens=tokens)
        return self._pooled(tree, nodes)

    def encode_group(self, sentences: list[list[int]]) -> list[EncodedSentence]:
        """``encode`` in ``infer`` mode over several sentences, whose trees
        one ``parser.induce_tree`` call induces in lockstep, in the loop that
        induces a sentence alone as a group of one; each result is bit for
        bit what ``encode`` gives the sentence."""
        induced = parser.induce_tree([self._leaves(ids) for ids in sentences],
                                     self.composition, self.query,
                                     replace(self.selection, mode="infer"))
        return [self._pooled(tree, nodes) for tree, nodes in induced]

    def _leaves(self, token_ids: list[int]) -> list[parser.NodeState]:
        words = take_rows(self.embedding.vectors, token_ids)
        return parser.leaf_transform(words, self.leaf_params)

    def _pooled(self, tree: BinaryTree, nodes: list[parser.NodeState]) -> EncodedSentence:
        pooled = attention.attend([state.h for state in nodes], self.attn)
        return EncodedSentence(tree, nodes, pooled.sentence, pooled.weights)

    def logits(self, example, mode: str = "infer",
               rng: np.random.Generator | None = None,
               dropout_keep: float = 1.0) -> Tensor:
        """Class logits for a pair or sentence example (matching the task)."""
        self._check_example(example)
        if self.task == "pair":
            s1 = self.encode(example.premise, mode, rng).sentence
            s2 = self.encode(example.hypothesis, mode, rng).sentence
            feature = classifier.featurize_pair(s1, s2)
        else:
            feature = self.encode(example.tokens, mode, rng).sentence
        masks = None
        if mode == "train" and dropout_keep < 1.0:
            masks = (classifier.make_dropout_mask(rng, feature.shape[0], dropout_keep),
                     classifier.make_dropout_mask(rng, self.head.hidden_bias.shape[0],
                                                  dropout_keep))
        return classifier.classify(feature, self.head, masks)

    def infer_logits(self, examples) -> list[Tensor]:
        """``logits`` in ``infer`` mode of each example, with the trees of
        all their sentences induced by one ``encode_group`` call; each is
        bit for bit what the example gives alone."""
        for example in examples:
            self._check_example(example)
        if self.task == "sentence":
            return [classifier.classify(encoded.sentence, self.head)
                    for encoded in self.encode_group([ex.tokens for ex in examples])]
        encoded = self.encode_group([ids for ex in examples
                                     for ids in (ex.premise, ex.hypothesis)])
        return [classifier.classify(classifier.featurize_pair(s1.sentence, s2.sentence),
                                    self.head)
                for s1, s2 in zip(encoded[::2], encoded[1::2])]

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
