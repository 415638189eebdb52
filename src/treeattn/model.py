"""The full sentence and sentence-pair models.

Wiring: word indices -> embedding rows -> leaf transform -> latent tree
induction -> attention pooling -> feature vector -> MLP logits.  The
model owns every trainable tensor and exposes them as a flat name -> Tensor
mapping for the optimizer and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import attention, classifier, parser
from .data import EmbeddingMatrix, PairExample, SentenceExample, Vocabulary
from .tensor import Tensor, cross_entropy, take_row
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
    """Latent-tree encoder plus a task head ("pair" or "sentence")."""

    def __init__(self, task: str, vocab: Vocabulary, embedding: EmbeddingMatrix,
                 leaf_kind: str, leaf_params, composition: parser.CompositionParams,
                 query: Tensor, attn: attention.AttentionParams,
                 head: classifier.MlpParams, temperature: float = 1.0,
                 perturb_probs: bool = False, noise_per_layer: bool = True):
        if task not in ("pair", "sentence"):
            raise ValueError(f"task must be 'pair' or 'sentence', got {task!r}")
        self.task = task
        self.vocab = vocab
        self.embedding = embedding
        self.leaf_kind = leaf_kind
        self.leaf_params = leaf_params
        self.composition = composition
        self.query = query
        self.attn = attn
        self.head = head
        self.temperature = temperature
        self.perturb_probs = perturb_probs
        self.noise_per_layer = noise_per_layer

    @classmethod
    def build(cls, rng: np.random.Generator, *, task: str, num_classes: int,
              hidden: int, d_attn: int, d_clf: int, vocab: Vocabulary,
              embedding: EmbeddingMatrix, leaf_kind: str = "rnn",
              temperature: float = 1.0, perturb_probs: bool = False,
              noise_per_layer: bool = True) -> "Model":
        d_word = embedding.dim
        if leaf_kind == "affine":
            leaf_params = parser.init_leaf_affine(rng, d_word, hidden)
        elif leaf_kind == "rnn":
            leaf_params = parser.init_leaf_rnn(rng, d_word, hidden)
        else:
            raise ValueError(f"unknown leaf transform {leaf_kind!r}")
        feature_dim = 4 * hidden if task == "pair" else hidden
        return cls(task, vocab, embedding, leaf_kind, leaf_params,
                   parser.init_composition_params(rng, hidden),
                   parser.init_query(rng, hidden),
                   attention.init_attention_params(rng, d_attn, hidden),
                   classifier.init_mlp_params(rng, feature_dim, d_clf, num_classes),
                   temperature=temperature, perturb_probs=perturb_probs,
                   noise_per_layer=noise_per_layer)

    @property
    def hidden(self) -> int:
        return self.composition.hidden

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

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter's values by name, trainable or not."""
        arrays = {name: t.data for name, t in self.parameters().items()}
        arrays.setdefault("embedding", self.embedding.vectors.data)
        return arrays

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        targets = self.parameters()
        targets.setdefault("embedding", self.embedding.vectors)
        for name, tensor in targets.items():
            if name not in arrays:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != tensor.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {value.shape} != {tensor.shape}")
            tensor.data = value

    def gumbel_config(self, mode: str) -> parser.GumbelConfig:
        return parser.GumbelConfig(temperature=self.temperature, mode=mode,
                                   perturb_probs=self.perturb_probs,
                                   noise_per_layer=self.noise_per_layer)

    def encode(self, token_ids: list[int], mode: str = "infer",
               rng: np.random.Generator | None = None,
               tokens=None) -> EncodedSentence:
        """Run the encoder over one sentence of vocabulary indices."""
        vectors = [take_row(self.embedding.vectors, i) for i in token_ids]
        leaves = parser.leaf_transform(vectors, self.leaf_params, self.leaf_kind)
        tree, nodes = parser.induce_tree(leaves, self.composition, self.query,
                                         self.gumbel_config(mode), rng, tokens=tokens)
        pooled = attention.attend([state.h for state in nodes], self.attn)
        return EncodedSentence(tree, nodes, pooled.sentence, pooled.weights)

    def logits(self, example, mode: str = "infer",
               rng: np.random.Generator | None = None,
               dropout_keep: float = 1.0) -> Tensor:
        """Class logits for a pair or sentence example (matching the task)."""
        if self.task == "pair":
            if not isinstance(example, PairExample):
                raise TypeError("pair model expects PairExample inputs")
            s1 = self.encode(example.premise, mode, rng).sentence
            s2 = self.encode(example.hypothesis, mode, rng).sentence
            feature = classifier.featurize_pair(s1, s2)
        else:
            if not isinstance(example, SentenceExample):
                raise TypeError("sentence model expects SentenceExample inputs")
            feature = self.encode(example.tokens, mode, rng).sentence
        masks = None
        if mode == "train" and dropout_keep < 1.0:
            masks = (classifier.make_dropout_mask(rng, feature.shape[0], dropout_keep),
                     classifier.make_dropout_mask(rng, self.head.hidden_bias.shape[0],
                                                  dropout_keep))
        return classifier.classify(feature, self.head, masks)

    def example_loss(self, example, mode: str = "train",
                     rng: np.random.Generator | None = None,
                     dropout_keep: float = 1.0) -> tuple[Tensor, Tensor]:
        """(cross-entropy loss, logits) for one example."""
        logits = self.logits(example, mode, rng, dropout_keep)
        return cross_entropy(logits, example.label), logits
